"""The four point estimators of the grand y-mean and the samples they act on.

All four scale the stratified sample mean ybar_st by an exponential factor
built from the known auxiliary grand mean:

    z   = (Xbar - xbar_st) / (Xbar + xbar_st)
    T1S = ybar_st * exp(z)              ratio type
    T2S = ybar_st * exp(-z)             product type
    T3S = ybar_st * exp(alpha * z)      tunable exponent
    T4S = theta * T1S + (1 - theta) * T2S

so T3S(1) == T1S, T3S(-1) == T2S, T3S(0) == ybar_st, and T4S interpolates
the first two literally (no algebraic simplification).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ComputationError, DegenerateAuxiliaryError, PopulationError
from .population import StratifiedPopulation, StratumPopulation


class EstimatorKind(enum.Enum):
    T1S = "t1s"
    T2S = "t2s"
    T3S = "t3s"
    T4S = "t4s"

    @property
    def parameter_name(self) -> str | None:
        if self is EstimatorKind.T3S:
            return "alpha"
        if self is EstimatorKind.T4S:
            return "theta"
        return None


def format_constant(value: float) -> str:
    """A tuning constant as text: the ':g' text when it reads back as the same
    float, ``repr`` otherwise, so nearby constants keep distinct names."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


@dataclass(frozen=True)
class EstimatorSpec:
    """An estimator kind plus its tuning constant, for the kinds that take one."""

    kind: EstimatorKind
    parameter: float | None = None

    def __post_init__(self) -> None:
        name = self.kind.parameter_name
        if (self.parameter is None) != (name is None):
            wanted = f"a tuning constant {name}" if name else "no tuning constant"
            raise ValueError(f"{self.kind.value} takes {wanted}")

    def label(self) -> str:
        if self.parameter is None:
            return self.kind.value
        constant = format_constant(self.parameter)
        return f"{self.kind.value}({self.kind.parameter_name}={constant})"


def t1s() -> EstimatorSpec:
    return EstimatorSpec(EstimatorKind.T1S)


def t2s() -> EstimatorSpec:
    return EstimatorSpec(EstimatorKind.T2S)


def t3s(alpha: float) -> EstimatorSpec:
    return EstimatorSpec(EstimatorKind.T3S, float(alpha))


def t4s(theta: float) -> EstimatorSpec:
    return EstimatorSpec(EstimatorKind.T4S, float(theta))


def stratum_means(stratum: StratumPopulation, idx: Sequence[int]) -> tuple[float, float]:
    """(ybar_h, xbar_h): the plain means of y and x over units ``idx`` of a stratum.

    Each mean is a left-to-right ``sum`` of the selected values over n_h.
    """
    n = stratum.small_n
    return sum(stratum.y.take(idx).tolist()) / n, sum(stratum.x.take(idx).tolist()) / n


@dataclass(frozen=True)
class StratifiedSample:
    """A drawn sample: per-stratum index sets plus the derived means.

    ``index_sets[h]`` holds ``n_h`` distinct unit indices into stratum h.
    ``ybar``/``xbar`` are the weighted stratified means, with the weights
    taken from the population the sample was drawn from.
    """

    index_sets: tuple[tuple[int, ...], ...]
    ybar_strata: tuple[float, ...]
    xbar_strata: tuple[float, ...]
    ybar: float
    xbar: float

    @classmethod
    def from_means(
        cls,
        weights: Sequence[float],
        index_sets: tuple[tuple[int, ...], ...],
        means: Sequence[tuple[float, float]],
    ) -> "StratifiedSample":
        """The sample with per-stratum ``means`` (ybar_h, xbar_h) combined by ``weights``."""
        ybar_strata, xbar_strata = zip(*means)
        return cls(
            index_sets=index_sets,
            ybar_strata=ybar_strata,
            xbar_strata=xbar_strata,
            ybar=math.fsum(w * yb for w, yb in zip(weights, ybar_strata)),
            xbar=math.fsum(w * xb for w, xb in zip(weights, xbar_strata)),
        )

    @classmethod
    def from_indices(
        cls, pop: StratifiedPopulation, index_sets: tuple[tuple[int, ...], ...]
    ) -> "StratifiedSample":
        if len(index_sets) != len(pop.strata):
            raise PopulationError(
                f"expected {len(pop.strata)} index sets, got {len(index_sets)}"
            )
        for s, idx in zip(pop.strata, index_sets):
            if any(not isinstance(i, int) or isinstance(i, bool) for i in idx):
                raise PopulationError(
                    f"stratum {s.id!r}: indices must be integers, got {idx!r}"
                )
            if len(idx) != s.small_n or len(set(idx)) != s.small_n:
                raise PopulationError(
                    f"stratum {s.id!r}: need {s.small_n} distinct indices, got {idx!r}"
                )
            if any(i < 0 or i >= s.capital_n for i in idx):
                raise PopulationError(
                    f"stratum {s.id!r}: index out of range in {idx!r}"
                )
        return cls.from_means(
            pop.weights,
            tuple(tuple(idx) for idx in index_sets),
            [stratum_means(s, idx) for s, idx in zip(pop.strata, index_sets)],
        )


def estimate(spec: EstimatorSpec, sample: StratifiedSample, xbar_pop: float) -> float:
    """Evaluate one estimator on a drawn sample, given the known grand x-mean.

    Raises :class:`DegenerateAuxiliaryError` when Xbar + xbar_st = 0, and
    :class:`ComputationError` naming the estimator when its value is not a
    finite float (an exponent too large for ``math.exp``, say).
    """
    denom = xbar_pop + sample.xbar
    if denom == 0.0:
        raise DegenerateAuxiliaryError(
            "degenerate auxiliary configuration: Xbar + xbar_st = 0"
        )
    z = (xbar_pop - sample.xbar) / denom
    kind = spec.kind
    try:
        if kind is EstimatorKind.T1S:
            t = sample.ybar * math.exp(z)
        elif kind is EstimatorKind.T2S:
            t = sample.ybar * math.exp(-z)
        elif kind is EstimatorKind.T3S:
            t = sample.ybar * math.exp(spec.parameter * z)
        else:
            # T4S: the literal mixture of the two exponential branches
            theta = spec.parameter
            t = theta * sample.ybar * math.exp(z) + (1.0 - theta) * sample.ybar * math.exp(-z)
    except OverflowError:
        t = math.inf
    if not math.isfinite(t):
        raise ComputationError(
            f"estimator {spec.label()} overflows the float range (z = {z!r})"
        )
    return t
