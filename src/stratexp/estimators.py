"""The four point estimators of the grand y-mean.

Each is a function of two sample numbers only, the stratified sample means
ybar_st and xbar_st, given the known auxiliary grand mean Xbar.  All four
scale ybar_st by an exponential factor:

    z   = (Xbar - xbar_st) / (Xbar + xbar_st)
    T1S = ybar_st * exp(z)              ratio type
    T2S = ybar_st * exp(-z)             product type
    T3S = ybar_st * exp(alpha * z)      tunable exponent
    T4S = theta * T1S + (1 - theta) * T2S

so T3S(1) == T1S, T3S(-1) == T2S, T3S(0) == ybar_st, and T4S interpolates
the first two literally (no algebraic simplification).

The first three share one branch, ``ybar_st * exp(rate * z)``: each
``EstimatorSpec`` carries its exponent rate, 1.0, -1.0 or alpha, computed
once when it is made.  The bits are those of the three formulas, since
``1.0 * z == z`` and ``-1.0 * z == -z`` hold exactly for every float.
T4S has no single rate and keeps its literal mixture.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import exp, inf, isfinite

from .errors import ComputationError, DegenerateAuxiliaryError


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
    """An estimator kind plus its tuning constant, for the kinds that take one.

    ``rate`` is the exponent rate of T1S-T3S (1.0, -1.0 or alpha) and None
    for T4S.  It is set once here and is not a field, so ``==``, ``hash``
    and ``repr`` see only the kind and the constant.
    """

    kind: EstimatorKind
    parameter: float | None = None

    def __post_init__(self) -> None:
        name = self.kind.parameter_name
        if (self.parameter is None) != (name is None):
            wanted = f"a tuning constant {name}" if name else "no tuning constant"
            raise ValueError(f"{self.kind.value} takes {wanted}")
        rates = {
            EstimatorKind.T1S: 1.0, EstimatorKind.T2S: -1.0, EstimatorKind.T3S: self.parameter
        }
        object.__setattr__(self, "rate", rates.get(self.kind))

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


def estimate(
    spec: EstimatorSpec, ybar_st: float, xbar_st: float, xbar_pop: float
) -> float:
    """Evaluate one estimator at the stratified sample means ybar_st and
    xbar_st, given the known grand x-mean.

    Raises :class:`DegenerateAuxiliaryError` when Xbar + xbar_st = 0, and
    :class:`ComputationError` naming the estimator when its value is not a
    finite float (an exponent too large for ``math.exp``, say).
    """
    denom = xbar_pop + xbar_st
    if denom == 0.0:
        raise DegenerateAuxiliaryError(
            "degenerate auxiliary configuration: Xbar + xbar_st = 0"
        )
    z = (xbar_pop - xbar_st) / denom
    rate = spec.rate
    try:
        if rate is not None:
            t = ybar_st * exp(rate * z)
        else:
            # T4S: the literal mixture of the two exponential branches
            theta = spec.parameter
            t = theta * ybar_st * exp(z) + (1.0 - theta) * ybar_st * exp(-z)
    except OverflowError:
        t = inf
    if not isfinite(t):
        raise ComputationError(
            f"estimator {spec.label()} overflows the float range (z = {z!r})"
        )
    return t
