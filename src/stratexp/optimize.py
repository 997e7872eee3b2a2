"""Choosing the tuning constants that minimize first- or second-order MSE.

At first order both optima have closed forms:

    alpha* = 2 * V11 / V02          theta* = V11 / V02 + 1/2

and both deliver the same minimum, Ybar^2 * (V20 - V11^2 / V02).  At
second order no closed form is attempted: the objective is an exact
polynomial in the constant (quartic for the exponent, quadratic for the
mixture), minimized by an 801-point grid over a fixed bracket followed by
golden-section refinement around the best grid point.  Grid ties break
toward the smaller absolute parameter.  When V02 = 0 exactly (a constant
auxiliary column) the MSE does not depend on the constant, and both
orders raise DegenerateAuxiliaryError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAuxiliaryError
from .estimators import EstimatorKind, EstimatorSpec
from .expansion import mse, mse_parameter_polynomial
from .moments import VTable

ALPHA_BRACKET = (-4.0, 4.0)
THETA_BRACKET = (-2.0, 3.0)
GRID_POINTS = 801
REFINE_WIDTH = 1e-10

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizationOutcome:
    parameter: float
    objective: float
    order: int
    method: str  # "closed_form" | "numeric"
    bracket: tuple[float, float]
    iterations: int
    objective_negative: bool = False


def _golden_section(f, lo: float, hi: float, tol: float) -> tuple[float, int]:
    """Standard golden-section minimization to interval width ``tol``."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    iterations = 0
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        iterations += 1
    return 0.5 * (a + b), iterations


def _horner(coeffs: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _polish(coeffs: list[float], x: float, lo: float, hi: float) -> float:
    """Newton steps on the derivative.

    Golden-section alone saturates where objective differences fall below
    one ulp of the objective value (around 1e-8 here); the derivative has
    full relative precision at the minimum, so a few Newton steps recover
    the argmin essentially to machine precision.
    """
    d1 = [k * c for k, c in enumerate(coeffs)][1:]
    d2 = [k * c for k, c in enumerate(d1)][1:]
    for _ in range(20):
        curvature = _horner(d2, x)
        if curvature <= 0.0:
            break
        step = _horner(d1, x) / curvature
        nxt = x - step
        if not (lo <= nxt <= hi):
            break
        x = nxt
        if abs(step) <= 1e-15 * max(1.0, abs(x)):
            break
    return x


def _grid_then_refine(
    coeffs: list[float], bracket: tuple[float, float]
) -> tuple[float, int]:
    lo, hi = bracket
    xs = np.linspace(lo, hi, GRID_POINTS)
    vals = np.polynomial.polynomial.polyval(xs, np.asarray(coeffs))
    vmin = vals.min()
    ties = np.flatnonzero(vals == vmin)
    # ties break toward the smaller |parameter|, then the smaller parameter
    best = float(min((abs(xs[i]), xs[i]) for i in ties)[1])
    step = (hi - lo) / (GRID_POINTS - 1)
    a = max(lo, best - step)
    b = min(hi, best + step)
    x, iterations = _golden_section(lambda t: _horner(coeffs, t), a, b, REFINE_WIDTH)
    return _polish(coeffs, x, a, b), iterations


def _optimize(
    kind: EstimatorKind, v: VTable, order: int, bracket: tuple[float, float]
) -> OptimizationOutcome:
    v02 = v.entries[(0, 2)]
    v11 = v.entries[(1, 1)]
    if v02 == 0.0:
        # xbar_st never varies, so every e1 moment vanishes and the MSE is
        # flat in the constant at either order
        raise DegenerateAuxiliaryError(
            "degenerate auxiliary variance: V02 = 0, no informative optimum"
        )

    if order == 1:
        if kind is EstimatorKind.T3S:
            param = 2.0 * v11 / v02
        else:
            param = v11 / v02 + 0.5
        objective = mse(EstimatorSpec(kind, param), v, 1)
        return OptimizationOutcome(
            parameter=param,
            objective=objective,
            order=1,
            method="closed_form",
            bracket=(param, param),
            iterations=0,
            objective_negative=objective < 0.0,
        )

    if order != 2:
        raise ValueError(f"order must be 1 or 2, got {order}")
    coeffs = mse_parameter_polynomial(kind, v)
    param, iterations = _grid_then_refine(coeffs, bracket)
    objective = mse(EstimatorSpec(kind, param), v, 2)
    return OptimizationOutcome(
        parameter=param,
        objective=objective,
        order=2,
        method="numeric",
        bracket=bracket,
        iterations=iterations,
        objective_negative=objective < 0.0,
    )


def optimize_alpha(v: VTable, order: int) -> OptimizationOutcome:
    """Minimize the MSE of the tunable-exponent estimator over alpha."""
    return _optimize(EstimatorKind.T3S, v, order, ALPHA_BRACKET)


def optimize_theta(v: VTable, order: int) -> OptimizationOutcome:
    """Minimize the MSE of the mixture estimator over theta."""
    return _optimize(EstimatorKind.T4S, v, order, THETA_BRACKET)


def optimize_spec(spec_kind: EstimatorKind, v: VTable, order: int) -> OptimizationOutcome:
    if spec_kind is EstimatorKind.T3S:
        return optimize_alpha(v, order)
    if spec_kind is EstimatorKind.T4S:
        return optimize_theta(v, order)
    raise ValueError(f"{spec_kind.value} has no tuning constant to optimize")

