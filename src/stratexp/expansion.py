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
(kind, quantity, order), so ``coefficient_table`` derives each table once
per process by the symbolic expansion, with the tuning constant kept as a
polynomial variable: order 1 is the degree-2 slice of order 2 (truncation
by total degree commutes with products), and the ratio and product types
are the tunable exponent at alpha = +1 and -1.  ``bias`` and ``mse``
evaluate a table at the exact rational value Fraction(parameter), round
each weight to float once and take an exactly summed (``math.fsum``) dot
product with the moment table.  Substitution commutes with the ring
operations, so every weight is the rational that expanding the concrete
estimator gives, and the results are bit-identical to expanding afresh on
every call.  ``mse_parameter_polynomial`` is the column sums of the order-2
MSE table, and the printed closed forms below are tables of the same shape
that go through the same evaluator.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .errors import ComputationError
from .estimators import EstimatorKind, EstimatorSpec
from .moments import VTable

Monomial = tuple[int, int]  # (power of e0, power of e1)


@dataclass(frozen=True)
class ParameterPolynomial:
    """Polynomial in the tuning constant with exact rational coefficients.

    Used as a coefficient ring so one expansion pass can stay symbolic in
    alpha or theta; ``coeffs`` is ascending with no trailing zeros.
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(*values: Fraction | int) -> "ParameterPolynomial":
        return ParameterPolynomial(_trim(tuple(Fraction(v) for v in values)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _promote(self, other: object) -> "ParameterPolynomial | None":
        if isinstance(other, ParameterPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return ParameterPolynomial.of(other)
        return None

    def __add__(self, other: object) -> "ParameterPolynomial":
        p = self._promote(other)
        if p is None:
            return NotImplemented
        n = max(len(self.coeffs), len(p.coeffs))
        a = self.coeffs + (Fraction(0),) * (n - len(self.coeffs))
        b = p.coeffs + (Fraction(0),) * (n - len(p.coeffs))
        return ParameterPolynomial(_trim(tuple(x + y for x, y in zip(a, b))))

    __radd__ = __add__

    def __neg__(self) -> "ParameterPolynomial":
        return ParameterPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: object) -> "ParameterPolynomial":
        p = self._promote(other)
        if p is None:
            return NotImplemented
        return self + (-p)

    def __rsub__(self, other: object) -> "ParameterPolynomial":
        p = self._promote(other)
        if p is None:
            return NotImplemented
        return p + (-self)

    def __mul__(self, other: object) -> "ParameterPolynomial":
        p = self._promote(other)
        if p is None:
            return NotImplemented
        if not self.coeffs or not p.coeffs:
            return ParameterPolynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(p.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(p.coeffs):
                out[i + j] += a * b
        return ParameterPolynomial(_trim(tuple(out)))

    __rmul__ = __mul__

    def __call__(self, value: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc


def _trim(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


#: the symbolic tuning constant itself
PARAMETER = ParameterPolynomial.of(0, 1)

Coefficient = Union[Fraction, ParameterPolynomial]


@dataclass(frozen=True)
class SeriesPolynomial:
    """Bivariate polynomial in (e0, e1), truncated by total degree."""

    coefficients: Mapping[Monomial, Coefficient]
    max_total_degree: int = 4

    def coefficient(self, a: int, b: int) -> Coefficient:
        return self.coefficients.get((a, b), Fraction(0))

    def items(self):
        return self.coefficients.items()

    def __mul__(self, other: "SeriesPolynomial") -> "SeriesPolynomial":
        deg = min(self.max_total_degree, other.max_total_degree)
        out: dict[Monomial, Coefficient] = {}
        for (a1, b1), c1 in self.coefficients.items():
            for (a2, b2), c2 in other.coefficients.items():
                a, b = a1 + a2, b1 + b2
                if a + b <= deg:
                    out[(a, b)] = out.get((a, b), Fraction(0)) + c1 * c2
        return SeriesPolynomial(_clean(out, deg), deg)

    def square(self, max_degree: int | None = None) -> "SeriesPolynomial":
        deg = self.max_total_degree if max_degree is None else max_degree
        out: dict[Monomial, Coefficient] = {}
        for (a1, b1), c1 in self.coefficients.items():
            for (a2, b2), c2 in self.coefficients.items():
                a, b = a1 + a2, b1 + b2
                if a + b <= deg:
                    out[(a, b)] = out.get((a, b), Fraction(0)) + c1 * c2
        return SeriesPolynomial(_clean(out, deg), deg)

    def substitute(self, value: Fraction) -> "SeriesPolynomial":
        """Evaluate any symbolic coefficients at ``value``."""
        out: dict[Monomial, Coefficient] = {}
        for mono, c in self.coefficients.items():
            out[mono] = c(value) if isinstance(c, ParameterPolynomial) else c
        return SeriesPolynomial(
            _clean(out, self.max_total_degree), self.max_total_degree
        )


def _demote(c: Coefficient) -> Coefficient:
    """Collapse constant parameter-polynomials back to plain rationals."""
    if isinstance(c, ParameterPolynomial) and c.degree <= 0:
        return c.coeffs[0] if c.coeffs else Fraction(0)
    return c


def _clean(
    coeffs: dict[Monomial, Coefficient], max_degree: int
) -> dict[Monomial, Coefficient]:
    out = {}
    for m, c in coeffs.items():
        if m[0] + m[1] > max_degree:
            continue
        c = _demote(c)
        if c:
            out[m] = c
    return out


def _exponent_series(max_degree: int) -> dict[int, Fraction]:
    """u = -e1/(2 + e1) = sum_k (-1/2)^k e1^k, truncated at ``max_degree``."""
    half = Fraction(-1, 2)
    return {k: half**k for k in range(1, max_degree + 1)}


def _mul_univariate(
    p: dict[int, Coefficient], q: dict[int, Coefficient], max_degree: int
) -> dict[int, Coefficient]:
    out: dict[int, Coefficient] = {}
    for i, a in p.items():
        for j, b in q.items():
            if i + j <= max_degree:
                out[i + j] = out.get(i + j, Fraction(0)) + a * b
    return {k: c for k, c in out.items() if c}


def _exp_of(w: dict[int, Coefficient], max_degree: int) -> dict[int, Coefficient]:
    """exp(w) for a series w with no constant term, truncated by degree."""
    result: dict[int, Coefficient] = {0: Fraction(1)}
    term: dict[int, Coefficient] = {0: Fraction(1)}
    factorial = 1
    for k in range(1, max_degree + 1):
        term = _mul_univariate(term, w, max_degree)
        if not term:
            break
        factorial *= k
        inv = Fraction(1, factorial)
        for d, c in term.items():
            result[d] = result.get(d, Fraction(0)) + inv * c
    return {k: c for k, c in result.items() if c}


def _multiplier_series(
    kind: EstimatorKind, parameter: Coefficient | None, max_degree: int
) -> dict[int, Coefficient]:
    """Series in e1 of the multiplier g(e1), constant term included."""
    u = _exponent_series(max_degree)
    if kind is EstimatorKind.T1S:
        return _exp_of(u, max_degree)
    if kind is EstimatorKind.T2S:
        return _exp_of({k: -c for k, c in u.items()}, max_degree)
    if kind is EstimatorKind.T3S:
        scaled = {k: parameter * c for k, c in u.items()}
        return _exp_of(scaled, max_degree)
    # T4S: mixture = B + theta * (A - B) with A the ratio and B the product branch
    a = _exp_of(u, max_degree)
    b = _exp_of({k: -c for k, c in u.items()}, max_degree)
    out: dict[int, Coefficient] = {}
    for k in set(a) | set(b):
        ak = a.get(k, Fraction(0))
        bk = b.get(k, Fraction(0))
        out[k] = bk + parameter * (ak - bk)
    return {k: c for k, c in out.items() if c}


def _assemble(mult: dict[int, Coefficient], max_degree: int) -> SeriesPolynomial:
    """(1 + e0) * g(e1) - 1 as a bivariate series."""
    out: dict[Monomial, Coefficient] = {}
    for k, c in mult.items():
        if k > 0:
            out[(0, k)] = c
        if k + 1 <= max_degree:
            out[(1, k)] = c
    return SeriesPolynomial(_clean(out, max_degree), max_degree)


def expand_estimator(spec: EstimatorSpec, max_degree: int = 4) -> SeriesPolynomial:
    """Exact rational expansion of (t/Ybar) - 1 for a concrete estimator."""
    param = None if spec.parameter is None else Fraction(spec.parameter)
    mult = _multiplier_series(spec.kind, param, max_degree)
    return _assemble(mult, max_degree)


def expand_estimator_symbolic(
    kind: EstimatorKind, max_degree: int = 4
) -> SeriesPolynomial:
    """Like :func:`expand_estimator` but with the tuning constant symbolic."""
    param = None if kind.parameter_name is None else PARAMETER
    mult = _multiplier_series(kind, param, max_degree)
    return _assemble(mult, max_degree)


def _moment(v: VTable, a: int, b: int) -> float:
    if a + b == 0:
        return 1.0
    if a + b == 1:
        return 0.0
    try:
        return v.entries[(a, b)]
    except KeyError:
        raise ComputationError(
            f"monomial e0^{a} e1^{b} outside the moment table"
        ) from None


def expectation_of(poly: SeriesPolynomial, v: VTable) -> float:
    """Design expectation of a numeric series against the moment table."""
    terms = []
    for (a, b), c in poly.items():
        if isinstance(c, ParameterPolynomial):
            raise ComputationError(
                "series still contains a symbolic tuning constant; substitute first"
            )
        terms.append(float(c) * _moment(v, a, b))
    return math.fsum(terms)


def _check_order(order: int) -> None:
    if order not in (1, 2):
        raise ValueError(f"approximation order must be 1 or 2, got {order}")


#: rows (monomial, numerators, denominator): the weight of E[e0^a e1^b] is
#: the polynomial sum_k numerators[k] * parameter^k / denominator, exactly;
#: kinds without a tuning constant have one numerator per row
CoefficientTable = tuple[tuple[Monomial, tuple[int, ...], int], ...]


def _table_of(poly: SeriesPolynomial) -> CoefficientTable:
    rows = []
    for mono, c in poly.items():
        coeffs = c.coeffs if isinstance(c, ParameterPolynomial) else (c,)
        den = math.lcm(*(f.denominator for f in coeffs))
        nums = tuple(f.numerator * (den // f.denominator) for f in coeffs)
        rows.append((mono, nums, den))
    return tuple(rows)


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
    constant.  The table is derived once per (kind, quantity, order) by the
    symbolic expansion and kept for the life of the process.
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
    if kind in (EstimatorKind.T1S, EstimatorKind.T2S):
        # the ratio and product types are the tunable exponent at alpha = +-1
        alpha = 1 if kind is EstimatorKind.T1S else -1
        rows = []
        for mono, nums, den in coefficient_table(EstimatorKind.T3S, quantity, 2):
            n, d = _horner(nums, den, alpha, 1)
            if n:
                rows.append((mono, (n,), d))
        return tuple(rows)
    series = expand_estimator_symbolic(kind, max_degree=4)
    if quantity == "mse":
        series = series.square(4)
    return _table_of(series)


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
