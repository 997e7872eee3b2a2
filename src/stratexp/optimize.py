"""Choosing the tuning constants that minimize first- or second-order MSE.

At first order both optima have closed forms:

    alpha* = 2 * V11 / V02          theta* = V11 / V02 + 1/2

and both deliver the same minimum, Ybar^2 * (V20 - V11^2 / V02).  At
second order the objective is an exact polynomial in the constant (quartic
for the exponent, quadratic for the mixture), so its minimum on the fixed
bracket is one of these candidates: the two bracket ends and each real root
of the derivative inside the bracket, polished by Newton steps.  Ties break
toward the smaller absolute parameter, then the smaller parameter.
``iterations`` counts the Newton steps taken at the chosen point: 0 at a
bracket end and at first order, usually 1 inside the bracket.  It is a
diagnostic, not part of the numeric contract: the polish stops on a step
below 1e-15 relative, so a one-ulp change in V can move it between 1 and
2.  When V02 = 0 exactly (a constant auxiliary column) the MSE does not
depend on the constant, and both orders raise DegenerateAuxiliaryError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAuxiliaryError
from .estimators import EstimatorKind, EstimatorSpec
from .expansion import mse, mse_parameter_polynomial
from .moments import VTable

#: the second-order search bracket of each tunable kind's constant
BRACKETS = {EstimatorKind.T3S: (-4.0, 4.0), EstimatorKind.T4S: (-2.0, 3.0)}


@dataclass(frozen=True)
class OptimizationOutcome:
    parameter: float
    objective: float
    order: int
    method: str  # "closed_form" | "numeric"
    bracket: tuple[float, float]
    iterations: int
    objective_negative: bool = False


def _horner(coeffs: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _polish(
    d1: list[float], d2: list[float], x: float, lo: float, hi: float
) -> tuple[float, int]:
    """Newton steps on ``d1`` (derivative ``d2``) from a ``polyroots`` root: (x, steps).

    A root from the companion matrix's eigenvalues is good to about 1e-15
    relative, so a step or two recovers the last bits.  Non-positive
    curvature, or a step leaving ``[lo, hi]``, ends the polish.
    """
    steps = 0
    for _ in range(20):
        curvature = _horner(d2, x)
        if curvature <= 0.0:
            break
        step = _horner(d1, x) / curvature
        nxt = x - step
        if not (lo <= nxt <= hi):
            break
        x = nxt
        steps += 1
        if abs(step) <= 1e-15 * max(1.0, abs(x)):
            break
    return x, steps


def _minimize(coeffs: list[float], bracket: tuple[float, float]) -> tuple[float, int]:
    """(minimizer, Newton steps) of the polynomial on the bracket.

    A root that comes back complex is at most an inflection (a near-double
    real pair), and a neighbouring candidate always beats it.
    """
    lo, hi = bracket
    candidates = [(lo, 0), (hi, 0)]
    d1 = [k * c for k, c in enumerate(coeffs)][1:]
    d2 = [k * c for k, c in enumerate(d1)][1:]
    if any(d1):
        for root in np.polynomial.polynomial.polyroots(d1):
            if root.imag == 0 and lo <= root.real <= hi:
                candidates.append(_polish(d1, d2, float(root.real), lo, hi))
    return min(candidates, key=lambda c: (_horner(coeffs, c[0]), abs(c[0]), c[0]))


def optimize_spec(kind: EstimatorKind, v: VTable, order: int) -> OptimizationOutcome:
    """Minimize the order-``order`` MSE of ``kind`` over its tuning constant."""
    if kind not in BRACKETS:
        raise ValueError(f"{kind.value} has no tuning constant to optimize")
    v02 = v.entries[(0, 2)]
    v11 = v.entries[(1, 1)]
    if v02 == 0.0:
        # xbar_st never varies, so every e1 moment vanishes and the MSE is
        # flat in the constant at either order
        raise DegenerateAuxiliaryError(
            "degenerate auxiliary variance: V02 = 0, no informative optimum"
        )

    if order == 1:
        param = 2.0 * v11 / v02 if kind is EstimatorKind.T3S else v11 / v02 + 0.5
        method, bracket, iterations = "closed_form", (param, param), 0
    elif order == 2:
        bracket = BRACKETS[kind]
        param, iterations = _minimize(mse_parameter_polynomial(kind, v), bracket)
        method = "numeric"
    else:
        raise ValueError(f"order must be 1 or 2, got {order}")
    objective = mse(EstimatorSpec(kind, param), v, order)
    return OptimizationOutcome(
        parameter=param,
        objective=objective,
        order=order,
        method=method,
        bracket=bracket,
        iterations=iterations,
        objective_negative=objective < 0.0,
    )
