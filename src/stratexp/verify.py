"""Independent oracles: exhaustive SRSWOR enumeration and seeded Monte Carlo.

Both oracles take every estimator of a report at once and visit each
sample a single time, evaluating all the estimators on it by one shared
step, ``_deviation_rows``, which also names the sample when one fails.  A
sample is the plain tuple ``(index_sets, ybar_st, xbar_st)``:
``index_sets[h]`` holds the n_h distinct unit indices drawn from stratum
h, and ``ybar_st`` and ``xbar_st`` are the stratified sample means, the
only two numbers an estimator reads.

The enumeration oracle realizes the design expectation exactly: strata are
sampled independently, so the joint sample space is the Cartesian product
of the per-stratum combinations, each joint sample equally likely.  Each
expectation is the exactly rounded sum over the space (the bits of
``math.fsum``) divided by its size.  It is what every analytic moment and
approximation in this package is certified against.  Each stratum's
combination means are built once, as arrays, by ``stratum_means``, whose
rule a Monte Carlo draw applies to all its strata at once; the joint
samples are then walked a block at a time.  A block's stratified means,
the ``exactsum.fsum`` of the weighted stratum means, are added with its
bits by ``exactsum.fsum_columns``: an error-free TwoSum filter over the
whole block that hands ``exactsum.fsum`` only a sum it cannot certify.  Each
block's rows from the estimator step go to ``exactsum.block_sums``,
which adds them into one set of exact bucket sums for the whole
enumeration and sums each row once, at the end.  No Python object is kept
per combination or per sample, so memory grows with the strata's
combination counts, not with the joint space.

The Monte Carlo oracle is stochastic but fully reproducible: replicate r
draws from a Philox4x64 counter-based generator keyed by (seed, r), so a
replicate's sample depends on nothing but the seed and its own index.
Each thread keeps one generator and resets it to the state of a fresh
one keyed (seed, r) for every replicate, which costs a fraction of
building one; two threads never share a generator.  Replicates are drawn
a block at a time, ``DRAW_BLOCK`` padded (replicate, stratum, step) slots
a block, by one routine, ``_draw_block``; ``draw_sample`` is that routine
on a block of one, plus the index sets.  A draw is a partial Fisher-Yates
shuffle that is never written out: the targets of every step of the
block are taken in one array pass, and only the steps that a repeated
target can reach are walked, storing just the positions their swaps
displace.  One ``take`` from the population's column table gathers the
block's y and x at its units into one array, zero-padded from the
table's zero column; the one sample-mean rule of ``stratum_means`` gives
every stratum's means in every replicate at once, and
``exactsum.fsum_columns`` adds each replicate's weighted means.  So a
draw costs O(n_h) time and memory per stratum, independent of the stratum
size N_h; the step table it reads is built once per population and is
O(n_h) too, and a block's memory is bounded whatever the replicate count.
``monte_carlo`` keeps only each replicate's two means, so it builds no
index sets; it draws a failing replicate once more, by ``draw_sample``,
to name it.  Blocks run in replicate order on the calling thread, and the
bias and MSE rows are reduced by ``exactsum.row_sums``, the bits of
``math.fsum``.  There is no worker pool: a block's NumPy calls and
Python steps hold the interpreter lock, so threads would not run it
faster, and the command line's ``--workers`` changes neither results nor
speed.
"""

from __future__ import annotations

import math
import operator
import threading
from array import array
from dataclasses import dataclass
from itertools import chain, combinations, count, islice, repeat
from typing import Callable, Iterator, Sequence

import numpy as np

from . import trace
from .errors import ComputationError, EnumerationLimitError
from .estimators import EstimatorSpec, estimate
from .exactsum import block_sums, fsum_columns, row_sums
from .population import StratifiedPopulation, StratumPopulation

DEFAULT_ENUM_LIMIT = 10**7

#: samples whose values the enumeration oracle holds before adding them
#: into its bucket sums
BLOCK = 1024

#: padded slots, replicates x strata x max n_h, that one block of Monte
#: Carlo draws holds; a block draws at least one replicate
DRAW_BLOCK = 2**16

# each thread's Philox generator for the draws; see _philox
_generators = threading.local()

Sample = tuple[tuple[tuple[int, ...], ...], float, float]


def _means(values: np.ndarray, n: int | np.ndarray) -> float | np.ndarray:
    """The sample-mean rule both oracles share: along the first axis of
    ``values``, the left-to-right sum, one add per entry (a vector add
    over the other axes), plus 0.0, over ``n``; the same on every Python,
    where the builtin ``sum`` is compensated from Python 3.12 on.  Adding
    0.0 makes an all ``-0.0`` selection sum to 0.0, as ``sum`` does.  So
    zeros padded after the units change no mean: s + 0.0 is s, but for
    s = -0.0, which the rule's own + 0.0 turns into 0.0 as well."""
    total = values[0].copy()
    for row in values[1:]:
        total += row
    total += 0.0
    return total / n


def stratum_means(
    stratum: StratumPopulation, idx: Sequence[int] | np.ndarray
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(ybar_h, xbar_h): the plain means of y and x over units ``idx`` of a
    stratum, by ``_means``; for a 2-D ``idx``, two arrays holding the means
    of each row.  The enumeration takes its combination means from here,
    and a block of Monte Carlo draws applies the same rule to all its
    strata and replicates at once.
    """
    idx = np.asarray(idx).T  # a 2-D idx's rows run down the first axis, as _means sums
    n = stratum.small_n
    return _means(stratum.y.take(idx), n), _means(stratum.x.take(idx), n)


@dataclass(frozen=True)
class ExactDesignDistribution:
    """The full joint SRSWOR sample space of a stratified population."""

    population: StratifiedPopulation
    limit: int = DEFAULT_ENUM_LIMIT

    def __post_init__(self) -> None:
        if self.size > self.limit:
            raise EnumerationLimitError(
                f"joint sample space has {self.size} samples, exceeding the "
                f"limit of {self.limit}; use the Monte Carlo oracle instead"
            )
        # A joint position is a NumPy index.  A stratum past that range on
        # its own is refused, by name, where its means are allocated.
        if max(self.stratum_space_sizes) <= np.iinfo(np.intp).max < self.size:
            raise EnumerationLimitError(
                f"joint sample space has {self.size} samples, more than NumPy "
                "can index; use the Monte Carlo oracle instead"
            )

    @property
    def stratum_space_sizes(self) -> tuple[int, ...]:
        return tuple(
            math.comb(s.capital_n, s.small_n) for s in self.population.strata
        )

    @property
    def size(self) -> int:
        return math.prod(self.stratum_space_sizes)

    def _combinations(self) -> list[Iterator[tuple[int, ...]]]:
        """Each stratum's n_h-subsets of its unit indices, lexicographically."""
        return [combinations(range(s.capital_n), s.small_n) for s in self.population.strata]

    def _index_sets(self, position: int) -> tuple[tuple[int, ...], ...]:
        """The index sets of the joint sample at ``position`` in enumeration order."""
        ranks = np.unravel_index(position, self.stratum_space_sizes)
        return tuple(
            next(islice(combos, int(rank), None))
            for combos, rank in zip(self._combinations(), ranks)
        )

    def _weighted_means(self) -> list[np.ndarray]:
        """Per stratum, a (2, C_h) array: W_h * ybar_h over W_h * xbar_h, for
        every combination, lexicographically; the combinations are taken
        ``BLOCK`` at a time.

        An array that cannot be allocated is a :class:`ComputationError`
        naming the stratum and its combination count.
        """
        pop = self.population
        out = []
        for w, s, combos, size in zip(
            pop.weights, pop.strata, self._combinations(), self.stratum_space_sizes
        ):
            try:
                means = np.empty((2, size))
            except (ValueError, MemoryError) as exc:
                raise ComputationError(
                    f"stratum {s.id!r}: cannot allocate the means of its {size} "
                    f"combinations: {exc}"
                ) from None
            for start in range(0, size, BLOCK):
                rows = min(BLOCK, size - start)
                idx = np.fromiter(
                    chain.from_iterable(islice(combos, rows)), np.intp, rows * s.small_n
                )
                ybars, xbars = stratum_means(s, idx.reshape(rows, s.small_n))
                np.multiply(w, ybars, out=means[0, start : start + rows])
                np.multiply(w, xbars, out=means[1, start : start + rows])
            out.append(means)
        return out

    def _mean_blocks(self) -> Iterator[tuple[list[float], list[float]]]:
        """(ybar_st values, xbar_st values) of every joint sample, ``BLOCK``
        samples at a time, in enumeration order: ``itertools.product`` of the
        strata's combinations, the last stratum varying fastest.  Each is the
        ``exactsum.fsum`` of the weighted stratum means, in stratum order,
        with its bits; ``exactsum.fsum_columns`` takes the whole block, both
        means, at once."""
        means = self._weighted_means()
        size, sizes = self.size, self.stratum_space_sizes
        for start in range(0, size, BLOCK):
            rows = min(BLOCK, size - start)
            picks = np.unravel_index(np.arange(start, start + rows), sizes)
            cols = np.empty((len(means), 2, rows))
            for m, p, col in zip(means, picks, cols):
                m.take(p, axis=1, out=col)
            sums = fsum_columns(cols.reshape(len(means), 2 * rows))
            yield sums[:rows], sums[rows:]

    def _joint_index_sets(self, h: int = 0) -> Iterator[tuple[tuple[int, ...], ...]]:
        """The index sets of strata h onward for every joint sample, in
        enumeration order; each stratum's combinations are walked lazily,
        not held, so memory does not grow with their count."""
        strata = self.population.strata
        if h == len(strata):
            yield ()
            return
        for combo in combinations(range(strata[h].capital_n), strata[h].small_n):
            for rest in self._joint_index_sets(h + 1):
                yield (combo, *rest)

    def __iter__(self) -> Iterator[Sample]:
        """Yield every joint sample once, in enumeration order."""
        index_sets = self._joint_index_sets()
        for ybars, xbars in self._mean_blocks():
            yield from zip(islice(index_sets, len(ybars)), ybars, xbars)


def exact_expectation(
    pop: StratifiedPopulation,
    statistic: Callable[[float, float], float],
    limit: int = DEFAULT_ENUM_LIMIT,
) -> float:
    """Exact design expectation of ``statistic(ybar_st, xbar_st)`` over every
    joint sample: the exactly rounded sum over the size of the space.

    The values are held for ``BLOCK`` samples, then added into the exact
    bucket sums of ``exactsum.block_sums``.  An error the statistic raises
    propagates as it is, and so does one converting a value to a float (a
    ``TypeError``, say).  Aborts if the sum is not finite: a value is
    infinite or nan, or the sum leaves the float range.
    """
    dist = ExactDesignDistribution(pop, limit)
    # array("d") converts each value as math.fsum does; np.array would also
    # take None (as nan) and numeric strings
    (total,) = block_sums(
        [np.frombuffer(array("d", map(statistic, ybars, xbars)))]
        for ybars, xbars in dist._mean_blocks()
    )
    if not math.isfinite(total):
        raise ComputationError(
            "the statistic's exact expectation is not finite: a value is "
            "infinite or nan, or their sum leaves the float range"
        )
    return total / dist.size


def _deviation_rows(
    pop: StratifiedPopulation,
    specs: Sequence[EstimatorSpec],
    ybars: list[float],
    xbars: list[float],
    index_sets: Callable[[int], tuple[tuple[int, ...], ...]],
    rows: np.ndarray,
) -> np.ndarray:
    """Fill and return ``rows``, (2k, n), for the k ``specs`` on the n
    samples with stratified means ``ybars``, ``xbars``: each estimator is
    called once per sample into its row, then d = t - Ybar (taken directly
    to avoid cancellation in the bias) is formed in place in the upper k
    rows and d * d in the lower k.  A failure names the first failing
    sample, by ``index_sets(i)``, and the first spec that fails on it."""
    xbar_pop = pop.grand_x_mean
    k, n = len(specs), len(ybars)
    try:
        for row, spec in zip(rows, specs):
            row[:] = np.fromiter(
                map(estimate, repeat(spec), ybars, xbars, repeat(xbar_pop)), float, n
            )
    except ComputationError:
        for i, (y, x) in enumerate(zip(ybars, xbars)):
            for spec in specs:
                try:
                    estimate(spec, y, x, xbar_pop)
                except ComputationError as exc:
                    raise ComputationError(
                        f"estimator {spec.label()} failed on sample with index "
                        f"sets {index_sets(i)}: {exc}"
                    ) from exc
        raise
    # float64 arithmetic has the bits of Python's, which makes an overflow
    # inf without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        d = rows[:k]
        d -= pop.grand_y_mean
        np.multiply(d, d, out=rows[k:])
    return rows


def exact_bias_mse(
    pop: StratifiedPopulation,
    specs: Sequence[EstimatorSpec],
    limit: int = DEFAULT_ENUM_LIMIT,
) -> list[tuple[float, float]]:
    """Exact (bias, MSE) of each estimator under the design, in ``specs`` order.

    One pass over the sample space evaluates every estimator on each
    sample, ``BLOCK`` samples at a time, into one (2k, n) array of the
    deviations d and their squares d * d; ``exactsum.block_sums`` adds
    the rows into exact bucket sums and sums each row once, after the last
    block: memory does not grow with the space.
    Aborts if an estimator fails anywhere on the sample space, naming the
    first failing sample in enumeration order and the first estimator in
    ``specs`` order that fails on it: exactness certifies, it does not skip.
    Aborts, naming the estimator, if a bias or MSE is not finite; a
    squared deviation that overflows leaves its sum non-finite.
    """
    dist = ExactDesignDistribution(pop, limit)
    k = len(specs)

    def deviation_blocks() -> Iterator[np.ndarray]:
        for start, (ybars, xbars) in zip(count(0, BLOCK), dist._mean_blocks()):
            rows = np.empty((2 * k, len(ybars)))
            yield _deviation_rows(
                pop, specs, ybars, xbars, lambda i: dist._index_sets(start + i), rows
            )

    sums = block_sums(deviation_blocks())
    trace.count(exact_samples=dist.size, exact_evaluations=dist.size * k)
    results = [(b / dist.size, m / dist.size) for b, m in zip(sums[:k], sums[k:])]
    for spec, (b, m) in zip(specs, results):
        if not (math.isfinite(b) and math.isfinite(m)):
            raise ComputationError(
                f"estimator {spec.label()} overflows the float range "
                "in its exact bias or MSE"
            )
    return results


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its sampling uncertainty."""

    mean: float
    variance: float
    replicates: int
    seed: int
    standard_error: float


@dataclass(frozen=True)
class MonteCarloResult:
    """Bias and MSE estimates, one of each per estimator, from the same replicates."""

    bias: tuple[McEstimate, ...]
    mse: tuple[McEstimate, ...]
    skipped: int


def _key_word(name: str, value: int) -> int:
    """``value`` as one 64-bit word of the Philox key: an integer, not a
    bool, in [0, 2**64)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        word = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if not 0 <= word < 2**64:
        raise ValueError(f"{name} must be in [0, 2**64), got {word}")
    return word


def _philox(seed: int, rep: int) -> np.random.Philox:
    """This thread's Philox4x64 generator, reset to the state of a fresh
    ``Philox(key=[seed, rep])``: setting a state costs a fraction of
    constructing a generator.  Each thread has its own, so threads drawing
    at once never share one."""
    philox = getattr(_generators, "philox", None)
    if philox is None:
        philox = _generators.philox = np.random.Philox(key=np.zeros(2, np.uint64))
        _generators.fresh = philox.state  # counter 0, empty buffer
    fresh = _generators.fresh
    fresh["state"]["key"][:] = seed, rep
    philox.state = fresh
    return philox


def _walked_steps(units: np.ndarray, limits: np.ndarray) -> np.ndarray:
    """The steps that a block's walk takes, as flat indices into the
    (replicates, steps) ``units``, in replicate and step order: none if no
    replicate repeats a target, else every step whose target column is
    repeated in its replicate or below its stratum's limit."""
    # A row sorted by column << bits | step holds a repeated column's steps
    # side by side.  A column is at most N and 2**bits is below 2N, so the
    # keys stay below 2**63 for every N < 2**31; 2**31 units take 32 GiB.
    per_row = units.shape[1]
    bits = (per_row - 1).bit_length()
    packed = units << bits
    packed |= np.arange(per_row)
    packed.sort()
    cols = packed >> bits
    same = cols[:, 1:] == cols[:, :-1]
    if not same.any():
        return np.empty(0, np.intp)
    repeated = np.zeros(units.shape, bool)
    repeated[:, 1:] = same
    repeated[:, :-1] |= same
    at = np.flatnonzero(repeated)
    walked = units < limits
    # a repeated entry's row start plus the step it came from
    walked.ravel()[at - at % per_row + (packed.take(at) & ((1 << bits) - 1))] = True
    return np.flatnonzero(walked)


def _draw_block(
    pop: StratifiedPopulation, seed: int, reps: range
) -> tuple[np.ndarray, list[float], list[float]]:
    """Draw replicates ``reps`` of ``seed`` at once, by the frozen rule of
    ``draw_sample``: (units, ybar_st values, xbar_st values), where row r
    of ``units`` holds the table columns of replicate reps[r]'s selected
    units, in step order.  ``seed`` is a key word already checked."""
    divisors, offsets, bases, limits, _, width, slots, sizes, weights = pop.draw_steps
    count, strata = len(reps), sizes.size
    raw = np.stack([_philox(seed, rep).random_raw(divisors.size) for rep in reps])
    # every word mod N_h - i is below 2**63, so its bits read as an int64
    units = np.remainder(raw, divisors, out=raw).view(np.int64)
    units += offsets
    units += bases
    steps = _walked_steps(units, limits)
    if steps.size:
        rows, at = np.divmod(steps, divisors.size)
        # the walk keys replicate r's columns plus r * (N + 1), which no
        # other replicate's keys share
        shift = rows * pop.columns.shape[1]
        fixed = offsets.take(at) + bases.take(at) + shift
        # key p holds moved.get(p, p); the key a step fixes is final after it
        moved: dict[int, int] = {}
        get, picked = moved.get, []
        for i, j in zip(fixed.tolist(), (units.take(steps) + shift).tolist()):
            picked.append(get(j, j))
            moved[j] = get(i, i)
        units.put(steps, np.subtract(picked, shift))
    # every entry a step does not fill is -1, the table's zero column
    idx = np.full((width * strata, count), -1, np.intp)
    idx[slots] = units.T
    values = pop.columns.take(idx, axis=1).reshape(2, width, strata, count)
    weighted = _means(values.swapaxes(0, 1), sizes[:, None])
    weighted *= weights[:, None]  # W_h * ybar_h and W_h * xbar_h, each one rounding
    sums = fsum_columns(weighted.swapaxes(0, 1).reshape(strata, 2 * count))
    return units, sums[:count], sums[count:]


def draw_sample(pop: StratifiedPopulation, seed: int, rep: int) -> Sample:
    """Draw the stratified SRSWOR sample (index_sets, ybar_st, xbar_st) for
    replicate ``rep``: the block draw of ``monte_carlo``, on a block of one,
    plus the index sets.

    The draw identity is frozen: Philox4x64 keyed (seed, rep), both
    integers in [0, 2**64), supplies one 64-bit word per selection step of
    a partial Fisher-Yates shuffle, in stratum order; step i of stratum h
    swaps position i with j = i + raw mod (N_h - i) and the first n_h
    positions are the sample.  A seed or rep that is not an integer is a
    ``TypeError``, and one outside [0, 2**64) a ``ValueError``.  The
    generator is this thread's own, reset to that key (``_philox``).

    A block of R replicates puts their words in one (R, steps) array.  The
    shuffle is never written out.  Every step's target j is taken at
    once, as ``raw % divisors + offsets`` over the population's
    step table (:attr:`StratifiedPopulation.draw_steps`), and offset by
    its stratum's base to the unit's column of the population; strata
    never share a column.  Before step i reads position j, only an earlier
    step with the same target j has written it, so a draw whose targets
    are distinct selects exactly its targets.  One sort of each
    replicate's columns, each packed with its step, finds the repeated
    ones and the steps that drew them.  A block where some replicate
    repeats one walks, in replicate and step order and with one dict of
    the positions the swaps displace, every step whose target is repeated
    in its replicate or below n_h, and no other; the dict keys replicate
    r's columns plus r * (N + 1), so no two replicates share a key:

    - a step that is not walked selects its own target, which no earlier
      step wrote, and its write to that position is never read;
    - a walked step reads position i, the one it fixes, only if an earlier
      step targeted i; that target is below n_h (i < n_h), so that step is
      walked too.  A walk of the repeated targets alone misses it: with
      N_h = 6, n_h = 3 and targets (1, 5, 5), step 0 moves unit 0 to
      position 1, step 1 moves it on to position 5 and step 2 selects it,
      where that walk selects unit 1 twice.

    A draw costs O(n_h) time and memory per stratum whatever N_h is, and
    selects exactly the units the dense shuffle would.

    The units are gathered in one ``take`` from the population's column
    table (:attr:`StratifiedPopulation.columns`), y over x, strata side by
    side, then a zero column.  The take's index holds each step's column
    at its slot in a (max n_h, strata, R) layout and the zero column
    everywhere else, so it gives the (2, max n_h, strata, R) values,
    zero-padded.  ``_means``, the rule of ``stratum_means``, sums them over
    max n_h, which gives every stratum's two means for every replicate at
    once; ``exactsum.fsum_columns`` adds each replicate's weighted means,
    with the bits of ``math.fsum``.  The index sets hold the selected
    units' positions within their strata.
    """
    seed, rep = _key_word("seed", seed), _key_word("rep", rep)
    units, (ybar_st,), (xbar_st,) = _draw_block(pop, seed, range(rep, rep + 1))
    table = pop.draw_steps
    flat = (units[0] - table.bases).tolist()
    return tuple(tuple(flat[start:stop]) for start, stop in table.spans), ybar_st, xbar_st


def monte_carlo(
    pop: StratifiedPopulation,
    specs: Sequence[EstimatorSpec],
    replicates: int,
    seed: int,
) -> MonteCarloResult:
    """Seeded Monte Carlo bias and MSE of each estimator, with standard errors.

    Draw, mask, evaluate, reduce.  Each replicate is drawn once, in
    blocks of ``DRAW_BLOCK`` // (strata x max n_h) replicates (at least
    one) by the routine of ``draw_sample``, and only its (ybar_st,
    xbar_st) is kept.  Replicates where Xbar + xbar_st == 0.0, as
    ``estimate`` tests it, are found by one array comparison, skipped with
    no estimator call and counted.  The rest go through the enumeration's
    estimator step, so a failure names the first failing replicate by its
    index sets, from one more ``draw_sample`` call of that replicate.  A
    mean or variance outside the float range aborts the run, naming the
    estimator.  Output is bit-identical for (population, specs, replicates, seed).
    """
    if replicates < 2:
        raise ValueError(f"need at least 2 replicates, got {replicates}")
    seed = _key_word("seed", seed)
    k = len(specs)
    try:
        sample_means = np.empty((2, replicates))
        rows = np.empty((2 * k, replicates))
    except (ValueError, MemoryError) as exc:
        raise ComputationError(
            f"cannot allocate {replicates} Monte Carlo replicates: {exc}"
        ) from None
    table = pop.draw_steps
    block = max(1, DRAW_BLOCK // (table.width * table.sizes.size))
    for start in range(0, replicates, block):
        reps = range(start, min(start + block, replicates))
        sample_means[:, start : reps.stop] = _draw_block(pop, seed, reps)[1:]
    kept = np.flatnonzero(pop.grand_x_mean + sample_means[1] != 0.0)
    n = kept.size
    trace.count(mc_replicates=replicates, mc_skipped=replicates - n)
    ybars, xbars = sample_means[:, kept].tolist()
    rows = _deviation_rows(
        pop, specs, ybars, xbars, lambda i: draw_sample(pop, seed, kept[i])[0], rows[:, :n]
    )
    trace.count(mc_evaluations=n * k)
    if n < 2:
        raise ComputationError(f"only {n} usable replicates out of {replicates}")
    means = [s / n for s in row_sums(rows)]
    with np.errstate(over="ignore", invalid="ignore"):
        rows -= np.array(means)[:, None]
        rows *= rows
    estimates = []
    for spec, mean, total in zip([*specs, *specs], means, row_sums(rows)):
        var = total / (n - 1)
        if not (math.isfinite(mean) and math.isfinite(var)):
            raise ComputationError(
                f"estimator {spec.label()} overflows the float range "
                "in its Monte Carlo bias, MSE or their standard errors"
            )
        estimates.append(McEstimate(mean, var, n, seed, math.sqrt(var / n)))
    return MonteCarloResult(tuple(estimates[:k]), tuple(estimates[k:]), replicates - n)
