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
one keyed (seed, r) for every draw, which costs a fraction of building
one; two threads never share a generator.  A replicate's draw is a
partial Fisher-Yates shuffle that is never written out: the targets of
all its steps, across all strata, are taken in one array pass, and only
a stratum that repeats a target replays its walk, storing just the
positions the swaps displace.  Each stratum's y and x at its units go
into one zero-padded array, and the one sample-mean rule of
``stratum_means`` gives every stratum's means at once.  So a draw costs
O(n_h) time and memory per stratum, independent of the stratum size N_h;
the step table it reads is built once per population and is O(n_h) too.
``monte_carlo`` keeps only each replicate's two means, so its draws build
no index sets; it draws a failing replicate once more, with them, to name
it.  Replicates run in index order on the calling thread, and their bias
and MSE rows are reduced by ``exactsum.row_sums``, the bits of
``math.fsum``.  There is no worker pool: a replicate's NumPy calls and
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

from .errors import ComputationError, EnumerationLimitError
from .estimators import EstimatorSpec, estimate
from .exactsum import block_sums, fsum_columns, row_sums
from .population import StratifiedPopulation, StratumPopulation

DEFAULT_ENUM_LIMIT = 10**7

#: samples whose values the enumeration oracle holds before adding them
#: into its bucket sums
BLOCK = 1024

# each thread's Philox generator for draw_sample; see _philox
_generators = threading.local()

Sample = tuple[tuple[tuple[int, ...], ...], float, float]


def _means(values: np.ndarray, n: int | np.ndarray) -> float | np.ndarray:
    """The sample-mean rule both oracles share: along the last axis of
    ``values``, the left-to-right sum (the last running sum of
    ``np.add.accumulate``, which is ``np.cumsum`` without its Python
    wrapper), plus 0.0, over ``n``; the same on every Python, where the
    builtin ``sum`` is compensated from Python 3.12 on.  Adding 0.0 makes an
    all ``-0.0`` selection sum to 0.0, as ``sum`` does.  So zeros padded
    after the units change no mean: s + 0.0 is s, but for s = -0.0, which
    the rule's own + 0.0 turns into 0.0 as well."""
    return (np.add.accumulate(values, axis=-1)[..., -1] + 0.0) / n


def stratum_means(
    stratum: StratumPopulation, idx: Sequence[int] | np.ndarray
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(ybar_h, xbar_h): the plain means of y and x over units ``idx`` of a
    stratum, by ``_means``; for a 2-D ``idx``, two arrays holding the means
    of each row.  The enumeration takes its combination means from here,
    and a Monte Carlo draw applies the same rule to all its strata at once.
    """
    idx = np.asarray(idx)
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


def _replay(targets: list[int]) -> list[int]:
    """The units a stratum's sparse Fisher-Yates walk selects, given the
    targets of its steps.  Position p holds ``moved.get(p, p)``: only the
    positions a swap has displaced are stored."""
    moved: dict[int, int] = {}
    chosen = []
    for i, j in enumerate(targets):
        # Position i is final after this step and never read again.
        chosen.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return chosen


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


def draw_sample(
    pop: StratifiedPopulation, seed: int, rep: int, *, index_sets: bool = True
) -> Sample | tuple[None, float, float]:
    """Draw the stratified SRSWOR sample (index_sets, ybar_st, xbar_st) for
    replicate ``rep``.

    With ``index_sets=False`` the first item is None: the draw, the replay
    and the means are the same, and the two means have the same bits, but
    no index-set tuples are built.  ``monte_carlo`` draws its replicates
    so and asks for the index sets only to name a failing replicate.

    The draw identity is frozen: Philox4x64 keyed (seed, rep), both
    integers in [0, 2**64), supplies one 64-bit word per selection step of
    a partial Fisher-Yates shuffle, in stratum order; step i of stratum h
    swaps position i with j = i + raw mod (N_h - i) and the first n_h
    positions are the sample.  A seed or rep that is not an integer is a
    ``TypeError``, and one outside [0, 2**64) a ``ValueError``.  The
    generator is this thread's own, reset to that key (``_philox``).

    The shuffle is never written out.  Every step's target j is taken at
    once, as ``raw % divisors + offsets`` over the population's
    step table (:attr:`StratifiedPopulation.draw_steps`).  Step i's unit
    is its target unless an earlier step of its stratum swapped that
    position, which only an earlier equal target does; so a stratum whose
    targets are distinct selects exactly its targets.  Equal targets are
    found by one sort of all the targets, each offset by its stratum's
    base.  Only the strata that have one replay the walk, storing just the
    positions its swaps displace.  A draw costs O(n_h) time and memory per
    stratum whatever N_h is, and selects exactly the units the dense
    shuffle would.

    Each stratum's y and x at its units are taken into one (2, strata,
    max n_h) array, zero-padded; the step table holds each stratum's span
    of steps and that width.  ``_means``, the rule of ``stratum_means``,
    gives every stratum's two means at once.
    """
    seed, rep = _key_word("seed", seed), _key_word("rep", rep)
    divisors, offsets, bases, stratum_bases, _, spans, width, sizes, weights = pop.draw_steps
    chosen = (_philox(seed, rep).random_raw(divisors.size) % divisors).astype(np.intp) + offsets
    keys = np.sort(chosen + bases)
    repeats = keys[1:][keys[1:] == keys[:-1]]
    # a repeated key lies in stratum h - 1 for h = searchsorted(..., "right")
    for h in set(np.searchsorted(stratum_bases, repeats, "right").tolist()):
        start, stop = spans[h - 1]
        chosen[start:stop] = _replay(chosen[start:stop].tolist())
    values = np.zeros((2, len(spans), width))
    for s, (start, stop), ys, xs in zip(pop.strata, spans, *values):
        units = chosen[start:stop]
        ys[: stop - start] = s.y[units]
        xs[: stop - start] = s.x[units]
    weighted = _means(values, sizes)
    weighted *= weights  # W_h * ybar_h and W_h * xbar_h, each one rounding
    ybar_st, xbar_st = map(math.fsum, weighted.tolist())
    if not index_sets:
        return None, ybar_st, xbar_st
    flat = chosen.tolist()
    return tuple(tuple(flat[start:stop]) for start, stop in spans), ybar_st, xbar_st


def monte_carlo(
    pop: StratifiedPopulation,
    specs: Sequence[EstimatorSpec],
    replicates: int,
    seed: int,
) -> MonteCarloResult:
    """Seeded Monte Carlo bias and MSE of each estimator, with standard errors.

    Draw, mask, evaluate, reduce.  Each replicate is drawn once, by
    ``draw_sample`` with ``index_sets=False``, and only its (ybar_st,
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
    for r in range(replicates):
        sample_means[:, r] = draw_sample(pop, seed, r, index_sets=False)[1:]
    kept = np.flatnonzero(pop.grand_x_mean + sample_means[1] != 0.0)
    n = kept.size
    ybars, xbars = sample_means[:, kept].tolist()
    rows = _deviation_rows(
        pop, specs, ybars, xbars, lambda i: draw_sample(pop, seed, kept[i])[0], rows[:, :n]
    )
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
