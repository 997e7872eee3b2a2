"""Truncated series expansions of the estimators and their bias/MSE.

Every estimator divided by the target mean has the form

    t / Ybar = (1 + e0) * g(e1)

with g a smooth function of the auxiliary relative error satisfying
g(0) = 1.  Writing the exponent argument as u = -e1/(2 + e1), the
multiplier is exp(u) for the ratio type, exp(-u) for the product type,
exp(alpha * u) for the tunable exponent, and the literal theta-mixture of
the first two for the combination estimator.  Expanding g as an exact
rational power series and truncating at total degree 2*order gives

    bias(order)  = Ybar   * E[ t/Ybar - 1 ]
    mse(order)   = Ybar^2 * E[ (t/Ybar - 1)^2 ]

where expectations of monomials e0^a e1^b are read off the moment table.

The weights of bias/Ybar and MSE/Ybar^2 on each monomial depend only on
(kind, quantity, order).  One exact polynomial type carries them: a dict
from (a, b, j) to the Fraction coefficient of e0^a e1^b t^j, with t the
tuning constant, truncated at total degree ``DEGREE`` in e0 and e1.  With
u = sum_{k>=1} (-1/2)^k e1^k, g is exp(t*u), exp(u) or exp(-u) by the
truncated power series, and the mixture is g_t2s + t*(g_t1s - g_t2s).  Then

    r = (1 + e0) g - 1,    bias/Ybar = E[r],    MSE/Ybar^2 = E[r^2],

and the weight of E[e0^a e1^b] at a given order is the coefficient of
e0^a e1^b in r or r^2 for a + b <= 2*order; truncation by total degree
commutes with products, so one product at ``DEGREE`` serves both orders.
``coefficient_table`` reads each table off g once per process.  ``bias`` and
``mse`` evaluate a table at the exact rational value Fraction(parameter),
round each weight to float once and take an exactly summed (``math.fsum``)
dot product with the moment table, so each weight is the exact rational of
the estimator's expansion, evaluated at the exact rational constant and
rounded once, in one evaluator, ``_evaluate``.  ``mse_parameter_polynomial``
runs each column of the order-2 MSE table (the weights of one power of the
constant) through it, and so do the printed closed forms below.

Coefficients stay exact rationals until the final dot product with the
moment table.  For exp(u) the quadratic-and-below coefficients are the
familiar ones (e1: -1/2, e1^2: 3/8, e0e1: -1/2); exact composition gives
-13/48 for e1^3 and 73/384 for e1^4.  Legacy closed forms that circulate
with -7/48 and 25/384 in those slots are kept available as "printed" mode
for comparison reporting, but the derived expansion is the ground truth
here: it is the version certified by the enumeration oracle.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Mapping
from fractions import Fraction
from types import MappingProxyType

from .errors import ComputationError
from .estimators import EstimatorKind, EstimatorSpec
from .exactsum import fsum
from .moments import VTable

Monomial = tuple[int, int]  # (power of e0, power of e1)

#: a polynomial in e0, e1 and the tuning constant t: the exact coefficient of
#: e0^a e1^b t^j at (a, b, j), with no zero coefficients
Polynomial = Mapping[tuple[int, int, int], Fraction]

#: the total degree in e0 and e1 at which every polynomial is truncated:
#: that of an order-2 expansion
DEGREE = 4

_ONE: Polynomial = {(0, 0, 0): Fraction(1)}
_E0: Polynomial = {(1, 0, 0): Fraction(1)}
_PARAMETER: Polynomial = {(0, 0, 1): Fraction(1)}


def _add(p: Polynomial, q: Polynomial, scale: Fraction | int = 1) -> Polynomial:
    """p + scale * q."""
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + scale * c
    return {m: c for m, c in out.items() if c}


def _mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """p * q, truncated at total degree DEGREE in e0 and e1."""
    out: dict[tuple[int, int, int], Fraction] = {}
    for (a, b, j), c in p.items():
        for (a2, b2, j2), c2 in q.items():
            if a + a2 + b + b2 <= DEGREE:
                m = (a + a2, b + b2, j + j2)
                out[m] = out.get(m, 0) + c * c2
    return {m: c for m, c in out.items() if c}


def _exp(w: Polynomial) -> Polynomial:
    """exp(w) for a polynomial w with no constant term in e0 and e1."""
    result = term = _ONE
    for n in range(1, DEGREE + 1):
        term = _mul(term, w)  # w^n
        result = _add(result, term, Fraction(1, math.factorial(n)))
    return result


@functools.cache
def _multiplier(kind: EstimatorKind) -> Polynomial:
    """The multiplier g(e1), read-only: the cache hands it to every caller."""
    if kind is EstimatorKind.T4S:
        ratio = _multiplier(EstimatorKind.T1S)
        product = _multiplier(EstimatorKind.T2S)
        g = _add(product, _mul(_PARAMETER, _add(ratio, product, -1)))
    else:
        factor = {
            EstimatorKind.T1S: _ONE,
            EstimatorKind.T2S: {(0, 0, 0): Fraction(-1)},
            EstimatorKind.T3S: _PARAMETER,
        }[kind]
        # u = -e1/(2 + e1) = sum_k (-1/2)^k e1^k
        u = {(0, k, 0): Fraction(-1, 2) ** k for k in range(1, DEGREE + 1)}
        g = _exp(_mul(factor, u))
    return MappingProxyType(g)


def _moment(v: VTable, a: int, b: int) -> float:
    """E[e0^a e1^b]; the first moments vanish (the stratified means are unbiased)."""
    return 0.0 if a + b == 1 else v.entries[(a, b)]


#: rows (monomial, numerators, denominator): the weight of E[e0^a e1^b] is
#: the polynomial sum_k numerators[k] * parameter^k / denominator, exactly;
#: kinds without a tuning constant have one numerator per row
CoefficientTable = tuple[tuple[Monomial, tuple[int, ...], int], ...]


def _horner(nums: tuple[int, ...], den: int, p: int, q: int) -> tuple[int, int]:
    """The weight at parameter p/q, as an unreduced integer ratio."""
    acc = nums[-1]
    qk = 1
    for n in nums[-2::-1]:
        qk *= q
        acc = acc * p + n * qk
    return acc, den * qk


@functools.cache
def coefficient_table(
    kind: EstimatorKind, quantity: str, order: int
) -> CoefficientTable:
    """Exact weights of bias/Ybar ("bias") or MSE/Ybar^2 ("mse").

    Each weight multiplies E[e0^a e1^b] and is a polynomial in the tuning
    constant.  The table is read off r = (1 + e0) g - 1 or r^2 once per
    (kind, quantity, order) and kept for the life of the process.
    """
    if order not in (1, 2):
        raise ValueError(f"approximation order must be 1 or 2, got {order}")
    if quantity not in ("bias", "mse"):
        raise ValueError(f"quantity must be 'bias' or 'mse', got {quantity!r}")
    r = _add(_mul(_add(_ONE, _E0), _multiplier(kind)), _ONE, -1)
    if quantity == "mse":
        r = _mul(r, r)
    # {power of t: coefficient} per monomial, by ascending power of e1, then
    # of e0
    weights: dict[Monomial, dict[int, Fraction]] = {}
    for a, b, j in sorted(r, key=lambda m: (m[1], m[0])):
        if a + b <= 2 * order:
            weights.setdefault((a, b), {})[j] = r[a, b, j]
    rows = []
    for mono, p in weights.items():
        den = math.lcm(*(c.denominator for c in p.values()))
        nums = tuple((p.get(j, 0) * den).numerator for j in range(max(p) + 1))
        rows.append((mono, nums, den))
    return tuple(rows)


def _evaluate(
    table: CoefficientTable,
    parameter: float | None,
    label: Callable[[], str],
    v: VTable,
    scale: float,
) -> float:
    """scale * sum of weight(parameter) * E[e0^a e1^b], exactly summed.

    Each weight is evaluated at the exact rational value of the parameter
    in integers and rounded to float once (int / int is correctly rounded),
    so each term is the one the concrete expansion gives; ``parameter`` is
    None for a table of one numerator per row.  A result outside the float
    range is a :class:`ComputationError` naming the estimator by
    ``label()``, which is called only then.
    """
    try:
        p, q = (1, 1) if parameter is None else Fraction(parameter).as_integer_ratio()
        terms = []
        for (a, b), nums, den in table:
            n, d = _horner(nums, den, p, q)
            if n:
                terms.append(n / d * _moment(v, a, b))
    except (OverflowError, ValueError):  # a non-finite parameter, or n / d too large
        terms = [math.nan]
    result = scale * fsum(terms)
    if not math.isfinite(result):
        raise ComputationError(
            f"estimator {label()} overflows the float range in its series expansion"
        )
    return result


def bias(spec: EstimatorSpec, v: VTable, order: int) -> float:
    """Series bias: expectation of the expansion truncated at degree 2*order."""
    table = coefficient_table(spec.kind, "bias", order)
    return _evaluate(table, spec.parameter, spec.label, v, v.ybar)


def mse(spec: EstimatorSpec, v: VTable, order: int) -> float:
    """Series MSE: expectation of the squared expansion, same truncation."""
    table = coefficient_table(spec.kind, "mse", order)
    return _evaluate(table, spec.parameter, spec.label, v, v.ybar**2)


@functools.cache
def _parameter_columns(kind: EstimatorKind) -> tuple[CoefficientTable, ...]:
    """Column k of the order-2 MSE table: each row's weight of parameter^k."""
    table = coefficient_table(kind, "mse", 2)
    return tuple(
        tuple((mono, (nums[k],), den) for mono, nums, den in table if k < len(nums))
        for k in range(max(len(nums) for _, nums, _ in table))
    )


def mse_parameter_polynomial(kind: EstimatorKind, v: VTable) -> list[float]:
    """Second-order MSE as a polynomial in the tuning constant.

    Ascending coefficients (quartic for the tunable exponent, quadratic for
    the mixture), scaled by Ybar^2: coefficient k is column k of the order-2
    MSE table through ``_evaluate``, so one outside the float range is a
    :class:`ComputationError` naming the estimator.
    """
    return [
        _evaluate(column, None, lambda: kind.value, v, v.ybar**2)
        for column in _parameter_columns(kind)
    ]


def _printed(**weights: Fraction) -> CoefficientTable:
    """A constant table from weights keyed by moment-table name (``V12``)."""
    return tuple(
        ((int(name[1]), int(name[2])), (c.numerator,), c.denominator)
        for name, c in weights.items()
    )


# Legacy closed-form second-order expressions, evaluated literally for
# comparison reporting, in the shape of ``coefficient_table(kind, q, 2)``.
# Their cubic/quartic entries embed the -7/48 and 25/384 exponent-series
# coefficients instead of the exact -13/48 / 73/384, and the ratio-type MSE
# form has no V03 term at all.  The bias weights are half the printed
# bracket contents of Ybar/2 * [...].
PRINTED_SECOND_ORDER: dict[tuple[EstimatorKind, str], CoefficientTable] = {
    (EstimatorKind.T1S, "bias"): _printed(
        V11=Fraction(-1, 2),
        V02=Fraction(3, 8),
        V12=Fraction(3, 8),
        V03=Fraction(-7, 48),
        V13=Fraction(-7, 48),
        V04=Fraction(25, 384),
    ),
    (EstimatorKind.T1S, "mse"): _printed(
        V20=Fraction(1),
        V02=Fraction(1, 4),
        V11=Fraction(-1),
        V22=Fraction(1),
        V21=Fraction(-1),
        V12=Fraction(5, 4),
        V13=Fraction(-25, 24),
        V04=Fraction(55, 192),
    ),
    (EstimatorKind.T2S, "bias"): _printed(
        V11=Fraction(1, 2),
        V02=Fraction(-1, 8),
        V12=Fraction(-1, 8),
        V13=Fraction(-5, 48),
        V04=Fraction(1, 384),
        V03=Fraction(-5, 48),
    ),
    (EstimatorKind.T2S, "mse"): _printed(
        V20=Fraction(1),
        V02=Fraction(1, 4),
        V11=Fraction(1),
        V04=Fraction(23, 192),
        V03=Fraction(-1, 8),
        V12=Fraction(1, 4),
        V13=Fraction(-1, 24),
        V21=Fraction(1),
    ),
}

#: exponent-series coefficients of exp(-e1/(2+e1)): exact vs legacy values
RATIO_SERIES_COEFFS_DERIVED: dict[int, Fraction] = {
    k: _multiplier(EstimatorKind.T1S)[0, k, 0] for k in (3, 4)
}
RATIO_SERIES_COEFFS_PRINTED: dict[int, Fraction] = {
    3: Fraction(-7, 48),
    4: Fraction(25, 384),
}


def printed_second_order(spec: EstimatorSpec, v: VTable) -> tuple[float, float]:
    """Evaluate the legacy closed forms; ratio and product types only."""
    if (spec.kind, "bias") not in PRINTED_SECOND_ORDER:
        raise ValueError(
            f"printed-mode formulas exist only for t1s and t2s, not {spec.kind.value}"
        )
    return (
        _evaluate(PRINTED_SECOND_ORDER[spec.kind, "bias"], None, spec.label, v, v.ybar),
        _evaluate(PRINTED_SECOND_ORDER[spec.kind, "mse"], None, spec.label, v, v.ybar**2),
    )
