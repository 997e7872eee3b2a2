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
(kind, quantity, order).  One representation carries them: the series
g_0 ... g_4 of the multiplier in e1 alone, each coefficient a polynomial in
the tuning constant t, stored as an ascending tuple of exact Fractions.
With u = sum_{k=1..4} (-1/2)^k e1^k, g is exp(t*u), exp(u) or exp(-u) by
the truncated power series, and the mixture is g_t2s + t*(g_t1s - g_t2s).
With h = g^2 truncated at degree 4, the weight of E[e0^a e1^b] is

    bias:  (0,k) = g_k for k >= 1,        (1,k) = g_k
    mse:   (0,k) = h_k - 2 g_k + [k = 0],  (1,k) = 2 h_k - 2 g_k,  (2,k) = h_k

for a + k <= 4, since (1 + e0) g - 1 squared is
(1 + 2 e0 + e0^2) h - 2 (1 + e0) g + 1.  ``coefficient_table`` reads each
table off g and h once per process; order 1 is the degree-2 slice of
order 2 (truncation by total degree commutes with products).  ``bias`` and
``mse`` evaluate a table at the exact rational value Fraction(parameter),
round each weight to float once and take an exactly summed (``math.fsum``)
dot product with the moment table, so each weight is the exact rational of
the estimator's expansion, evaluated at the exact rational constant and
rounded once.  ``mse_parameter_polynomial`` is the column sums of the
order-2 MSE table, and the printed closed forms below are tables of the
same shape that go through the same evaluator.

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
from fractions import Fraction
from itertools import zip_longest

from .errors import ComputationError
from .estimators import EstimatorKind, EstimatorSpec
from .moments import VTable

Monomial = tuple[int, int]  # (power of e0, power of e1)

#: a polynomial in the tuning constant: ascending exact coefficients with no
#: trailing zeros, so the zero polynomial is ``()``
Polynomial = tuple[Fraction, ...]

#: highest power of e1 in g, and the total degree of an order-2 expansion
DEGREE = 4

#: a series in e1, truncated at e1^DEGREE: one polynomial per power
Series = tuple[Polynomial, ...]

_ONE: Polynomial = (Fraction(1),)
_PARAMETER: Polynomial = (Fraction(0), Fraction(1))


def _trim(coeffs: Polynomial) -> Polynomial:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


def _add(p: Polynomial, q: Polynomial, scale: Fraction | int = 1) -> Polynomial:
    """p + scale * q."""
    return _trim(tuple(a + scale * b for a, b in zip_longest(p, q, fillvalue=0)))


def _mul(p: Polynomial, q: Polynomial) -> Polynomial:
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(tuple(out))


def _series_mul(f: Series, g: Series) -> Series:
    """Product of two series, truncated at e1^DEGREE."""
    out: list[Polynomial] = [()] * (DEGREE + 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g[: DEGREE + 1 - i]):
            out[i + j] = _add(out[i + j], _mul(a, b))
    return tuple(out)


def _exp(w: Series) -> Series:
    """exp(w) for a series w with no constant term, truncated at e1^DEGREE."""
    result = term = (_ONE,) + ((),) * DEGREE
    for n in range(1, DEGREE + 1):
        term = _series_mul(term, w)  # w^n
        scale = Fraction(1, math.factorial(n))
        result = tuple(_add(r, t, scale) for r, t in zip(result, term))
    return result


@functools.cache
def _multiplier(kind: EstimatorKind) -> Series:
    """g_0 ... g_DEGREE, the series of the multiplier g(e1)."""
    if kind is EstimatorKind.T4S:
        ratio = _multiplier(EstimatorKind.T1S)
        product = _multiplier(EstimatorKind.T2S)
        return tuple(
            _add(b, _mul(_PARAMETER, _add(a, b, -1))) for a, b in zip(ratio, product)
        )
    factor = {
        EstimatorKind.T1S: _ONE,
        EstimatorKind.T2S: (Fraction(-1),),
        EstimatorKind.T3S: _PARAMETER,
    }[kind]
    # u = -e1/(2 + e1) = sum_k (-1/2)^k e1^k
    u = tuple((Fraction(-1, 2) ** k,) for k in range(1, DEGREE + 1))
    return _exp(((),) + tuple(_mul(factor, c) for c in u))


def _moment(v: VTable, a: int, b: int) -> float:
    """E[e0^a e1^b]; the first moments vanish (the stratified means are unbiased)."""
    return 0.0 if a + b == 1 else v.entries[(a, b)]


def _check_order(order: int) -> None:
    if order not in (1, 2):
        raise ValueError(f"approximation order must be 1 or 2, got {order}")


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
    constant.  The table is read off the multiplier series g once per
    (kind, quantity, order) and kept for the life of the process.
    """
    _check_order(order)
    if quantity not in ("bias", "mse"):
        raise ValueError(f"quantity must be 'bias' or 'mse', got {quantity!r}")
    if order == 1:
        # truncation by total degree commutes with products, so the
        # degree-2 slice of the order-2 table is the order-1 table
        return tuple(
            row for row in coefficient_table(kind, quantity, 2) if sum(row[0]) <= 2
        )
    g = _multiplier(kind)
    weights: dict[Monomial, Polynomial] = {}
    if quantity == "bias":
        # (1 + e0) g - 1, with g_0 = 1
        for k in range(DEGREE + 1):
            if k > 0:
                weights[(0, k)] = g[k]
            if k < DEGREE:
                weights[(1, k)] = g[k]
    else:
        # ((1 + e0) g - 1)^2 = (1 + 2 e0 + e0^2) h - 2 (1 + e0) g + 1, h = g^2
        h = _series_mul(g, g)
        for k in range(DEGREE + 1):
            weights[(0, k)] = _add(_add(h[k], g[k], -2), _ONE if k == 0 else ())
            if k < DEGREE:
                weights[(1, k)] = _add(_add(h[k], h[k]), g[k], -2)
            if k < DEGREE - 1:
                weights[(2, k)] = h[k]
    rows = []
    for mono, p in weights.items():
        if p:
            den = math.lcm(*(f.denominator for f in p))
            nums = tuple(f.numerator * (den // f.denominator) for f in p)
            rows.append((mono, nums, den))
    return tuple(rows)


def _evaluate(
    table: CoefficientTable, spec: EstimatorSpec, v: VTable, scale: float
) -> float:
    """scale * sum of weight(parameter) * E[e0^a e1^b], exactly summed.

    Each weight is evaluated at the exact rational value of the parameter
    in integers and rounded to float once (int / int is correctly rounded),
    so each term is the one the concrete expansion of ``spec`` gives.
    """
    try:
        if spec.parameter is None:
            p = q = 1
        else:
            p, q = Fraction(spec.parameter).as_integer_ratio()
        terms = []
        for (a, b), nums, den in table:
            n, d = _horner(nums, den, p, q)
            if n:
                terms.append(n / d * _moment(v, a, b))
        result = scale * math.fsum(terms)
    except (OverflowError, ValueError):
        result = math.nan
    if not math.isfinite(result):
        raise ComputationError(
            f"estimator {spec.label()} overflows the float range "
            "in its series expansion"
        )
    return result


def bias(spec: EstimatorSpec, v: VTable, order: int) -> float:
    """Series bias: expectation of the expansion truncated at degree 2*order."""
    return _evaluate(coefficient_table(spec.kind, "bias", order), spec, v, v.ybar)


def mse(spec: EstimatorSpec, v: VTable, order: int) -> float:
    """Series MSE: expectation of the squared expansion, same truncation."""
    return _evaluate(coefficient_table(spec.kind, "mse", order), spec, v, v.ybar**2)


def mse_parameter_polynomial(kind: EstimatorKind, v: VTable) -> list[float]:
    """Second-order MSE as a polynomial in the tuning constant.

    Returns ascending coefficients (quartic for the tunable exponent,
    quadratic for the mixture), already scaled by Ybar^2: the column sums
    of the order-2 MSE table, each an exactly-summed dot product of
    rational weights with table entries.
    """
    buckets: list[list[float]] = []
    for (a, b), nums, den in coefficient_table(kind, "mse", 2):
        m = _moment(v, a, b)
        for k, n in enumerate(nums):
            while len(buckets) <= k:
                buckets.append([])
            buckets[k].append(n / den * m)
    scale = v.ybar**2
    return [scale * math.fsum(vals) for vals in buckets]


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
    3: Fraction(-13, 48),
    4: Fraction(73, 384),
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
        _evaluate(PRINTED_SECOND_ORDER[spec.kind, "bias"], spec, v, v.ybar),
        _evaluate(PRINTED_SECOND_ORDER[spec.kind, "mse"], spec, v, v.ybar**2),
    )
