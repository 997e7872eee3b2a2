"""Independent oracles: exhaustive SRSWOR enumeration and seeded Monte Carlo.

Both oracles take every estimator of a report at once and visit each
sample a single time, evaluating all the estimators on it.  A sample is
the plain tuple ``(index_sets, ybar_st, xbar_st)``: ``index_sets[h]`` holds
the n_h distinct unit indices drawn from stratum h, and ``ybar_st`` and
``xbar_st`` are the stratified sample means, the only two numbers an
estimator reads.

The enumeration oracle realizes the design expectation exactly: strata are
sampled independently, so the joint sample space is the Cartesian product
of the per-stratum combinations, each joint sample equally likely.  Each
expectation is the exactly rounded sum over the space (the bits of
``math.fsum``) divided by its size.  It is what every analytic moment and
approximation in this package is certified against.

The Monte Carlo oracle is stochastic but fully reproducible: replicate r
draws from a Philox4x64 counter-based generator keyed by (seed, r), so a
replicate's sample depends on nothing but the seed and its own index.  A
replicate's draw is a sparse partial Fisher-Yates shuffle that stores only
the positions its swaps displace, so it costs O(n_h) time and memory per
stratum, independent of the stratum size N_h.  Replicates run in index
order on the calling thread, and every reduction runs over them in that
order with exactly-rounded summation.  There is no worker pool: the work
is pure Python and threads would not run it any faster, so the command
line's ``--workers`` changes neither results nor speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice, product
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ComputationError, DegenerateAuxiliaryError, EnumerationLimitError
from .estimators import EstimatorSpec, estimate
from .exactsum import fold, fsum
from .population import StratifiedPopulation, StratumPopulation

DEFAULT_ENUM_LIMIT = 10**7

#: samples whose values the enumeration oracle holds before folding them
BLOCK = 1024

Sample = tuple[tuple[tuple[int, ...], ...], float, float]


def stratum_means(stratum: StratumPopulation, idx: Sequence[int]) -> tuple[float, float]:
    """(ybar_h, xbar_h): the plain means of y and x over units ``idx`` of a stratum.

    Each mean is the left-to-right sum of the selected values (the last
    running sum of ``np.add.accumulate``, which is ``np.cumsum`` without its
    Python wrapper) over n_h, on every Python: the builtin ``sum`` is
    compensated from Python 3.12 on.  Adding 0.0 makes an all ``-0.0``
    selection sum to 0.0, as ``sum`` does.
    """
    n = stratum.small_n
    return (
        (float(np.add.accumulate(stratum.y.take(idx))[-1]) + 0.0) / n,
        (float(np.add.accumulate(stratum.x.take(idx))[-1]) + 0.0) / n,
    )


def _sample(
    weights: Sequence[float],
    index_sets: tuple[tuple[int, ...], ...],
    means: Sequence[tuple[float, float]],
) -> Sample:
    """The sample with per-stratum ``means`` (ybar_h, xbar_h) combined by ``weights``."""
    ybars, xbars = zip(*means)
    return (
        index_sets,
        math.fsum(w * yb for w, yb in zip(weights, ybars)),
        math.fsum(w * xb for w, xb in zip(weights, xbars)),
    )


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

    @property
    def stratum_space_sizes(self) -> tuple[int, ...]:
        return tuple(
            math.comb(s.capital_n, s.small_n) for s in self.population.strata
        )

    @property
    def size(self) -> int:
        return math.prod(self.stratum_space_sizes)

    def __iter__(self) -> Iterator[Sample]:
        """Yield every joint sample once, lexicographically per stratum."""
        pop = self.population
        weights = pop.weights
        per_stratum = [
            [
                (idx, stratum_means(s, idx))
                for idx in combinations(range(s.capital_n), s.small_n)
            ]
            for s in pop.strata
        ]
        for picks in product(*per_stratum):
            index_sets, means = zip(*picks)
            yield _sample(weights, index_sets, means)


def exact_expectation(
    pop: StratifiedPopulation,
    statistic: Callable[[float, float], float],
    limit: int = DEFAULT_ENUM_LIMIT,
) -> float:
    """Exact design expectation of ``statistic(ybar_st, xbar_st)`` over every
    joint sample: the exactly rounded sum over the size of the space.

    The values are held for ``BLOCK`` samples, then folded into an exact
    running sum.  An error the statistic raises propagates as it is.
    Aborts if the sum is not finite: a value is infinite or nan, or the
    sum leaves the float range.
    """
    dist = ExactDesignDistribution(pop, limit)
    values = (statistic(ybar_st, xbar_st) for _, ybar_st, xbar_st in dist)
    parts: list[float] = []
    while block := list(islice(values, BLOCK)):
        parts = fold(parts + block)
    total = fsum(parts)
    if not math.isfinite(total):
        raise ComputationError(
            "the statistic's exact expectation is not finite: a value is "
            "infinite or nan, or their sum leaves the float range"
        )
    return total / dist.size


def exact_bias_mse(
    pop: StratifiedPopulation,
    specs: Sequence[EstimatorSpec],
    limit: int = DEFAULT_ENUM_LIMIT,
) -> list[tuple[float, float]]:
    """Exact (bias, MSE) of each estimator under the design, in ``specs`` order.

    One pass over the sample space evaluates every estimator on each sample.
    The deviations t - Ybar, taken directly to avoid cancellation in the
    bias, are held for ``BLOCK`` samples, then folded with their squares
    into exact running sums: memory does not grow with the space.
    Aborts, naming the estimator and the sample, if an estimator fails
    anywhere on the sample space: exactness certifies, it does not skip.
    Aborts, naming the estimator, if a bias or MSE is not finite; a
    squared deviation that overflows leaves its sum non-finite.
    """
    dist = ExactDesignDistribution(pop, limit)
    size = dist.size
    ybar_pop = pop.grand_y_mean
    xbar_pop = pop.grand_x_mean
    block: list[float] = []  # d = t - Ybar, sample by sample, in specs order
    sums = [([], []) for _ in specs]  # exact parts of the sums of d and d * d
    for count, (index_sets, ybar_st, xbar_st) in enumerate(dist, 1):
        for spec in specs:
            try:
                t = estimate(spec, ybar_st, xbar_st, xbar_pop)
            except ComputationError as exc:
                raise ComputationError(
                    f"estimator {spec.label()} failed on sample with index sets "
                    f"{index_sets}: {exc}"
                ) from exc
            block.append(t - ybar_pop)
        if count % BLOCK == 0 or count == size:
            for k, (d_parts, d2_parts) in enumerate(sums):
                d = block[k :: len(specs)]
                sums[k] = (fold(d_parts + d), fold(d2_parts + [x * x for x in d]))
            block.clear()
    results = [(fsum(d) / size, fsum(d2) / size) for d, d2 in sums]
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


def draw_sample(pop: StratifiedPopulation, seed: int, rep: int) -> Sample:
    """Draw the stratified SRSWOR sample (index_sets, ybar_st, xbar_st) for
    replicate ``rep``.

    The draw identity is frozen: Philox4x64 keyed (seed, rep), both below
    2**64, supplies one 64-bit word per selection step of a partial
    Fisher-Yates shuffle, in stratum order; step i of stratum h swaps
    position i with i + raw mod (N_h - i) and the first n_h positions are
    the sample.

    The shuffle is sparse: a stratum's index list is never built.  Position
    p holds ``moved.get(p, p)``, and only the positions a swap has displaced
    are stored, so a draw costs O(n_h) time and memory per stratum whatever
    N_h is, and selects exactly the units the dense shuffle would.
    """
    total = sum(s.small_n for s in pop.strata)
    bg = np.random.Philox(key=np.array([seed, rep], dtype=np.uint64))
    words = iter(bg.random_raw(total).tolist())
    index_sets = []
    for s in pop.strata:
        n_cap = s.capital_n
        moved: dict[int, int] = {}
        chosen = []
        for i in range(s.small_n):
            j = i + next(words) % (n_cap - i)
            # Position i is final after this step and never read again.
            chosen.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        index_sets.append(tuple(chosen))
    return _sample(
        pop.weights,
        tuple(index_sets),
        [stratum_means(s, sel) for s, sel in zip(pop.strata, index_sets)],
    )


def monte_carlo(
    pop: StratifiedPopulation,
    specs: Sequence[EstimatorSpec],
    replicates: int,
    seed: int,
) -> MonteCarloResult:
    """Seeded Monte Carlo bias and MSE of each estimator, with standard errors.

    Every estimator is evaluated on the same replicates.  A replicate on
    which the estimators are undefined (Xbar + xbar_st = 0, whatever the
    estimator) is skipped for all of them and counted once; the estimates
    use the remaining replicates.  Any other failure, such as an estimator
    overflowing the float range or a bias or MSE summary that leaves it,
    aborts the run, naming the estimator.  Output is bit-identical
    for a given (population, specs, replicates, seed).
    """
    if replicates < 2:
        raise ValueError(f"need at least 2 replicates, got {replicates}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    xbar_pop = pop.grand_x_mean
    ybar_pop = pop.grand_y_mean

    try:
        deviations = np.empty((len(specs), replicates), dtype=np.float64)
        usable = np.ones(replicates, dtype=bool)
    except (ValueError, MemoryError) as exc:
        raise ComputationError(
            f"cannot allocate {replicates} Monte Carlo replicates: {exc}"
        ) from None
    for r in range(replicates):
        _, ybar_st, xbar_st = draw_sample(pop, seed, r)
        try:
            for k, spec in enumerate(specs):
                deviations[k, r] = estimate(spec, ybar_st, xbar_st, xbar_pop) - ybar_pop
        except DegenerateAuxiliaryError:
            usable[r] = False

    n = int(usable.sum())
    if n < 2:
        raise ComputationError(f"only {n} usable replicates out of {replicates}")

    def summarize(spec: EstimatorSpec, values: list[float]) -> McEstimate:
        mean = fsum(values) / n
        var = fsum([(x - mean) * (x - mean) for x in values]) / (n - 1)
        if not (math.isfinite(mean) and math.isfinite(var)):
            raise ComputationError(
                f"estimator {spec.label()} overflows the float range "
                "in its Monte Carlo bias, MSE or their standard errors"
            )
        return McEstimate(
            mean=mean,
            variance=var,
            replicates=n,
            seed=seed,
            standard_error=math.sqrt(var / n),
        )

    valid = [row.tolist() for row in deviations[:, usable]]
    return MonteCarloResult(
        bias=tuple(summarize(s, d) for s, d in zip(specs, valid)),
        mse=tuple(summarize(s, [x * x for x in d]) for s, d in zip(specs, valid)),
        skipped=replicates - n,
    )
