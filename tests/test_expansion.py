"""Series expansion engine: coefficients, expectations, bias/MSE closed forms.

The cubic and quartic exponent-series coefficients are checked against an
independent numeric-differentiation oracle (arbitrary-precision Taylor
expansion of the scalar function), and the first-order closed forms are
verified as exact rational identities, symbolic in the tuning constant.
"""

import collections
import math
import re
from fractions import Fraction as F

import mpmath
import pytest

from stratexp import expansion
from stratexp.datasets import SYNTHETIC_SAMPLE_SIZES, synthetic_csv_path
from stratexp.errors import ComputationError
from stratexp.estimators import EstimatorKind, EstimatorSpec, t1s, t2s, t3s, t4s
from stratexp.expansion import (
    PARAMETER,
    ParameterPolynomial,
    RATIO_SERIES_COEFFS_DERIVED,
    RATIO_SERIES_COEFFS_PRINTED,
    SeriesPolynomial,
    bias,
    expand_estimator,
    expand_estimator_symbolic,
    expectation_of,
    mse,
    mse_parameter_polynomial,
    printed_second_order,
)
from stratexp.moments import VTABLE_KEYS, VTable
from stratexp.report import EstimatorRequest, RunConfig, report_as_dict, run
from stratexp.verify import exact_expectation


def toy_vtable(ybar: float = 1.0, xbar: float = 1.0, **named: float) -> VTable:
    """A moment table with the given entries and zeros elsewhere."""
    entries = {key: 0.0 for key in VTABLE_KEYS}
    by_name = {f"V{a}{b}": (a, b) for (a, b) in VTABLE_KEYS}
    for name, value in named.items():
        entries[by_name[name]] = value
    return VTable(entries=entries, ybar=ybar, xbar=xbar)


class TestExpansionCoefficients:
    def test_ratio_degree_two_slice(self):
        """exp(-e1/(2+e1)) through degree 2: e0, -e1/2, -e0e1/2, 3e1^2/8."""
        poly = expand_estimator(t1s(), max_degree=2)
        assert poly.coefficients == {
            (1, 0): F(1),
            (0, 1): F(-1, 2),
            (1, 1): F(-1, 2),
            (0, 2): F(3, 8),
        }

    def test_ratio_high_degree_terms(self):
        poly = expand_estimator(t1s(), max_degree=4)
        assert poly.coefficient(0, 3) == F(-13, 48)
        assert poly.coefficient(0, 4) == F(73, 384)
        assert poly.coefficient(1, 2) == F(3, 8)
        assert poly.coefficient(1, 3) == F(-13, 48)

    def test_product_expansion(self):
        poly = expand_estimator(t2s(), max_degree=4)
        assert poly.coefficient(0, 1) == F(1, 2)
        assert poly.coefficient(0, 2) == F(-1, 8)
        assert poly.coefficient(0, 3) == F(1, 48)
        assert poly.coefficient(0, 4) == F(1, 384)

    def test_zero_exponent_reduces_to_mean_error(self):
        poly = expand_estimator(t3s(0.0), max_degree=4)
        assert poly.coefficients == {(1, 0): F(1)}

    def test_cubic_quartic_against_numeric_differentiation(self):
        """Independent oracle: high-precision Taylor coefficients of
        f(w) = exp(-w/(2+w)) at 0 via mpmath."""
        mpmath.mp.dps = 40
        taylor = mpmath.taylor(lambda w: mpmath.exp(-w / (2 + w)), 0, 4)
        poly = expand_estimator(t1s(), max_degree=4)
        for k in range(1, 5):
            derived = float(poly.coefficient(0, k))
            assert derived == pytest.approx(float(taylor[k]), rel=1e-12), k
        # and the frozen rationals themselves
        assert RATIO_SERIES_COEFFS_DERIVED[3] == F(-13, 48)
        assert RATIO_SERIES_COEFFS_DERIVED[4] == F(73, 384)
        for k, printed in RATIO_SERIES_COEFFS_PRINTED.items():
            assert printed != RATIO_SERIES_COEFFS_DERIVED[k]
            assert float(printed) != pytest.approx(float(taylor[k]), rel=1e-6)

    def test_mixture_is_literal_combination(self):
        theta = F(5, 16)  # dyadic, so float round-trip is exact
        mix = expand_estimator(t4s(float(theta)), max_degree=4)
        a = expand_estimator(t1s(), max_degree=4)
        b = expand_estimator(t2s(), max_degree=4)
        for mono in set(a.coefficients) | set(b.coefficients):
            expected = theta * a.coefficient(*mono) + (1 - theta) * b.coefficient(*mono)
            assert mix.coefficient(*mono) == expected, mono

    def test_truncation_bound_respected(self):
        poly = expand_estimator(t1s(), max_degree=4)
        assert all(a + b <= 4 for a, b in poly.coefficients)
        assert all(a <= 1 for a, b in poly.coefficients)
        squared = poly.square(4)
        assert all(a + b <= 4 for a, b in squared.coefficients)
        assert all(a <= 2 for a, b in squared.coefficients)


class TestExpectation:
    def test_linear_combination(self):
        v = toy_vtable(V11=0.01, V02=0.04)
        poly = SeriesPolynomial({(1, 1): F(-1, 2), (0, 2): F(3, 8)})
        assert expectation_of(poly, v) == pytest.approx(0.01, rel=1e-15)

    def test_first_moments_vanish(self):
        v = toy_vtable(V02=0.5, V20=0.5, V11=0.5)
        poly = SeriesPolynomial({(0, 1): F(5)})
        assert expectation_of(poly, v) == 0.0

    def test_constant_term_counts_once(self):
        v = toy_vtable()
        poly = SeriesPolynomial({(0, 0): F(7, 2)})
        assert expectation_of(poly, v) == 3.5

    def test_monomial_outside_table(self):
        from stratexp.errors import ComputationError

        v = toy_vtable()
        poly = SeriesPolynomial({(4, 0): F(1)}, max_total_degree=4)
        with pytest.raises(ComputationError, match="outside the moment table"):
            expectation_of(poly, v)

    def test_quartic_term_against_enumeration(self, desk, desk_v):
        """E[poly(e0, e1)] from the table equals direct enumeration."""
        poly = SeriesPolynomial(
            {(0, 4): F(2, 3), (1, 3): F(-1, 5), (2, 2): F(4), (0, 2): F(1, 7)}
        )
        ybar, xbar = desk.grand_y_mean, desk.grand_x_mean

        def statistic(ybar_st, xbar_st):
            e0 = (ybar_st - ybar) / ybar
            e1 = (xbar_st - xbar) / xbar
            return float(
                F(2, 3) * F(e1) ** 4
                + F(-1, 5) * F(e0) * F(e1) ** 3
                + F(4) * F(e0) ** 2 * F(e1) ** 2
                + F(1, 7) * F(e1) ** 2
            )

        exact = exact_expectation(desk, statistic)
        assert expectation_of(poly, desk_v) == pytest.approx(exact, rel=1e-9)


class TestFirstOrderClosedForms:
    """Degree-2 truncations reproduce the first-order forms as exact
    rational identities, symbolic in the tuning constant."""

    def test_ratio_bias_and_mse(self):
        poly = expand_estimator(t1s(), max_degree=2)
        assert poly.coefficient(0, 2) == F(3, 8)
        assert poly.coefficient(1, 1) == F(-1, 2)
        sq = poly.square(2)
        assert sq.coefficients == {
            (2, 0): F(1),
            (1, 1): F(-1),
            (0, 2): F(1, 4),
        }

    def test_product_bias_and_mse(self):
        poly = expand_estimator(t2s(), max_degree=2)
        assert poly.coefficient(0, 2) == F(-1, 8)
        assert poly.coefficient(1, 1) == F(1, 2)
        sq = poly.square(2)
        assert sq.coefficients == {
            (2, 0): F(1),
            (1, 1): F(1),
            (0, 2): F(1, 4),
        }

    def test_tunable_symbolic_identities(self):
        """Bias: (alpha/4 + alpha^2/8) V02 - (alpha/2) V11;
        MSE: V20 + alpha^2/4 V02 - alpha V11."""
        poly = expand_estimator_symbolic(EstimatorKind.T3S, max_degree=2)
        assert poly.coefficient(0, 2) == ParameterPolynomial.of(0, F(1, 4), F(1, 8))
        assert poly.coefficient(1, 1) == ParameterPolynomial.of(0, F(-1, 2))
        sq = poly.square(2)
        assert sq.coefficient(2, 0) == F(1)
        assert sq.coefficient(0, 2) == ParameterPolynomial.of(0, 0, F(1, 4))
        assert sq.coefficient(1, 1) == ParameterPolynomial.of(0, -1)

    def test_mixture_symbolic_identities(self):
        """Bias: (theta/2 - 1/8) V02 + (1/2 - theta) V11;
        MSE: V20 + (1/2 - theta)^2 V02 + 2 (1/2 - theta) V11."""
        poly = expand_estimator_symbolic(EstimatorKind.T4S, max_degree=2)
        assert poly.coefficient(0, 2) == ParameterPolynomial.of(F(-1, 8), F(1, 2))
        assert poly.coefficient(1, 1) == ParameterPolynomial.of(F(1, 2), -1)
        sq = poly.square(2)
        assert sq.coefficient(2, 0) == F(1)
        assert sq.coefficient(0, 2) == ParameterPolynomial.of(F(1, 4), -1, 1)
        assert sq.coefficient(1, 1) == ParameterPolynomial.of(1, -2)

    def test_bias_substitution_example(self):
        """V02=0.04, V11=0.01, Ybar=1: bias1(ratio) = 3/8*.04 - 1/2*.01 = 0.01."""
        v = toy_vtable(V02=0.04, V11=0.01)
        assert bias(t1s(), v, 1) == pytest.approx(0.01, rel=1e-12)

    def test_mse_substitution_example(self):
        """V20=.01, V02=.04, V11=.01: mse1(t3s, 0.5) = .01 + .0025 - .005."""
        v = toy_vtable(V20=0.01, V02=0.04, V11=0.01)
        assert mse(t3s(0.5), v, 1) == pytest.approx(0.0075, rel=1e-12)

    def test_optimum_mse_identity(self, synthetic_v):
        """MSE1 at either optimum equals Ybar^2 (V20 - V11^2/V02)."""
        v = synthetic_v
        v20, v02, v11 = v[(2, 0)], v[(0, 2)], v[(1, 1)]
        target = v.ybar**2 * (v20 - v11**2 / v02)
        alpha_star = 2 * v11 / v02
        theta_star = v11 / v02 + 0.5
        assert mse(t3s(alpha_star), v, 1) == pytest.approx(target, rel=1e-12)
        assert mse(t4s(theta_star), v, 1) == pytest.approx(target, rel=1e-12)


class TestParameterIdentities:
    @pytest.mark.parametrize("order", [1, 2])
    def test_reductions_at_both_orders(self, synthetic_v, order):
        v = synthetic_v
        for metric in (bias, mse):
            base1 = metric(t1s(), v, order)
            base2 = metric(t2s(), v, order)
            assert metric(t3s(1.0), v, order) == pytest.approx(base1, rel=1e-12)
            assert metric(t3s(-1.0), v, order) == pytest.approx(base2, rel=1e-12)
            assert metric(t4s(1.0), v, order) == pytest.approx(base1, rel=1e-12)
            assert metric(t4s(0.0), v, order) == pytest.approx(base2, rel=1e-12)


class TestSecondOrder:
    def test_truncation_closure(self):
        """Squaring then truncating equals truncating then squaring: terms
        beyond degree 4 cannot feed back into degree <= 4 of the square."""
        for spec in (t1s(), t2s(), t3s(1.7), t4s(0.3)):
            wide = expand_estimator(spec, max_degree=6).square(4)
            narrow = expand_estimator(spec, max_degree=4).square(4)
            assert wide.coefficients == narrow.coefficients

    def test_zero_higher_moments_collapse_to_first_order(self, synthetic_v):
        v = synthetic_v.replace_entries(
            V30=0.0, V21=0.0, V12=0.0, V03=0.0, V22=0.0, V13=0.0, V04=0.0
        )
        for spec in (t1s(), t2s(), t3s(0.8), t4s(0.2)):
            assert bias(spec, v, 2) == pytest.approx(bias(spec, v, 1), rel=1e-14)
            assert mse(spec, v, 2) == pytest.approx(mse(spec, v, 1), rel=1e-14)

    def test_desk_population_regression_values(self, desk_v):
        """Frozen desk-population values, computed once from the enumerated
        moment table and pinned against drift."""
        assert mse(t1s(), desk_v, 2) == pytest.approx(0.19800852439741326, rel=1e-12)
        assert bias(t1s(), desk_v, 2) == pytest.approx(-0.007724035381348296, rel=1e-12)

    def test_mse_parameter_polynomial_consistent(self, synthetic_v):
        """The extracted polynomial agrees with pointwise evaluation."""
        for kind, make, points in (
            (EstimatorKind.T3S, t3s, (-2.0, -0.5, 0.0, 1.25, 3.0)),
            (EstimatorKind.T4S, t4s, (-1.0, 0.0, 0.5, 1.5, 2.5)),
        ):
            coeffs = mse_parameter_polynomial(kind, synthetic_v)
            for p in points:
                direct = mse(make(p), synthetic_v, 2)
                horner = 0.0
                for c in reversed(coeffs):
                    horner = horner * p + c
                assert horner == pytest.approx(direct, rel=1e-12), (kind, p)

    def test_polynomial_degrees(self, synthetic_v):
        assert len(mse_parameter_polynomial(EstimatorKind.T3S, synthetic_v)) == 5
        assert len(mse_parameter_polynomial(EstimatorKind.T4S, synthetic_v)) == 3


class TestPrintedMode:
    def test_truncation_consistency(self):
        """With all third/fourth-order entries zero, the legacy closed forms
        agree with the first-order values."""
        v = toy_vtable(ybar=2.0, V20=0.01, V02=0.04, V11=0.015)
        for spec in (t1s(), t2s()):
            b, m = printed_second_order(spec, v)
            assert b == pytest.approx(bias(spec, v, 1), rel=1e-12)
            assert m == pytest.approx(mse(spec, v, 1), rel=1e-12)

    def test_printed_only_for_ratio_and_product(self, synthetic_v):
        with pytest.raises(ValueError):
            printed_second_order(t3s(1.0), synthetic_v)
        with pytest.raises(ValueError):
            printed_second_order(t4s(0.5), synthetic_v)

    def test_derived_printed_deltas_nonzero(self, synthetic_v):
        """On the reference population the two modes agree at first order
        (the printed forms on the degree-two entries alone) and disagree at
        second, where the cubic/quartic coefficients differ."""
        v = synthetic_v
        first = toy_vtable(
            ybar=v.ybar, xbar=v.xbar, V20=v[(2, 0)], V11=v[(1, 1)], V02=v[(0, 2)]
        )
        for spec in (t1s(), t2s()):
            assert printed_second_order(spec, first) == (bias(spec, v, 1), mse(spec, v, 1))
            printed_bias2, printed_mse2 = printed_second_order(spec, v)
            assert bias(spec, v, 2) != printed_bias2
            assert mse(spec, v, 2) != printed_mse2

    def test_equals_the_printed_bracket_formulas(self, synthetic_v, desk_v):
        """bias = Ybar/2 * [bracket], mse = Ybar^2 * [...], with the printed
        bracket weights written out by name."""
        brackets = {
            EstimatorKind.T1S: (
                dict(V11=F(-1), V02=F(3, 4), V12=F(3, 4), V03=F(-7, 24),
                     V13=F(-7, 24), V04=F(25, 192)),
                dict(V20=F(1), V02=F(1, 4), V11=F(-1), V22=F(1), V21=F(-1),
                     V12=F(5, 4), V13=F(-25, 24), V04=F(55, 192)),
            ),
            EstimatorKind.T2S: (
                dict(V11=F(1), V02=F(-1, 4), V12=F(-1, 4), V13=F(-5, 24),
                     V04=F(1, 192), V03=F(-5, 24)),
                dict(V20=F(1), V02=F(1, 4), V11=F(1), V04=F(23, 192),
                     V03=F(-1, 8), V12=F(1, 4), V13=F(-1, 24), V21=F(1)),
            ),
        }
        for v in (synthetic_v, desk_v):
            for spec in (t1s(), t2s()):
                bias_bracket, mse_bracket = brackets[spec.kind]

                def dot(weights):
                    return math.fsum(
                        float(c) * v[(int(name[1]), int(name[2]))]
                        for name, c in weights.items()
                    )

                expected = (0.5 * v.ybar * dot(bias_bracket), v.ybar**2 * dot(mse_bracket))
                assert printed_second_order(spec, v) == expected

    def test_t1s_bias_delta_formula(self, synthetic_v):
        """The ratio-type bias gap is exactly
        Ybar * [(c3d - c3p)(V03 + V13) + (c4d - c4p) V04]."""
        v = synthetic_v
        d3 = float(RATIO_SERIES_COEFFS_DERIVED[3] - RATIO_SERIES_COEFFS_PRINTED[3])
        d4 = float(RATIO_SERIES_COEFFS_DERIVED[4] - RATIO_SERIES_COEFFS_PRINTED[4])
        expected = v.ybar * (
            d3 * (v[(0, 3)] + v[(1, 3)]) + d4 * v[(0, 4)]
        )
        derived = bias(t1s(), v, 2)
        printed_b, _ = printed_second_order(t1s(), v)
        assert derived - printed_b == pytest.approx(expected, rel=1e-9)


class TestParameterPolynomial:
    def test_arithmetic(self):
        t = PARAMETER
        p = (1 - t) * (1 - t)
        assert p == ParameterPolynomial.of(1, -2, 1)
        assert p(F(1, 2)) == F(1, 4)
        assert not (p - p)
        assert (2 * t + 1).coeffs == (F(1), F(2))

    def test_substitute_recovers_concrete_expansion(self):
        for value in (F(1), F(-1), F(3, 7)):
            symbolic = expand_estimator_symbolic(EstimatorKind.T3S, 4)
            concrete = expand_estimator(t3s(float(value)), 4)
            subbed = symbolic.substitute(value)
            # rational parameters that survive float round-trip compare exactly
            if value.denominator in (1, 2, 4, 8):
                assert subbed.coefficients == concrete.coefficients
            else:
                for mono in set(subbed.coefficients) | set(concrete.coefficients):
                    assert float(subbed.coefficient(*mono)) == pytest.approx(
                        float(concrete.coefficient(*mono)), rel=1e-12
                    )


def _moment_or_zero(v: VTable, a: int, b: int) -> float:
    return 1.0 if a + b == 0 else 0.0 if a + b == 1 else v[(a, b)]


TABLE_PARAMETERS = (0.0, 1.0, -1.0, 0.5, -0.5, 1 / 3, 2.75)


def _specs_of(kind: EstimatorKind) -> list[EstimatorSpec]:
    if kind is EstimatorKind.T3S:
        return [t3s(p) for p in TABLE_PARAMETERS]
    if kind is EstimatorKind.T4S:
        return [t4s(p) for p in TABLE_PARAMETERS]
    return [EstimatorSpec(kind)]


class TestCoefficientTables:
    """The cached tables reproduce a fresh derivation bit for bit."""

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("quantity", ["bias", "mse"])
    @pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda k: k.value)
    def test_table_is_the_symbolic_expansion(self, kind, quantity, order):
        series = expand_estimator_symbolic(kind, max_degree=2 * order)
        if quantity == "mse":
            series = series.square(2 * order)
        expected = {
            mono: c.coeffs if isinstance(c, ParameterPolynomial) else (c,)
            for mono, c in series.items()
        }
        table = {
            mono: tuple(F(n, den) for n in nums)
            for mono, nums, den in expansion.coefficient_table(kind, quantity, order)
        }
        assert table == expected

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("quantity", ["bias", "mse"])
    @pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda k: k.value)
    def test_evaluation_equals_fresh_expansion(
        self, synthetic_v, desk_v, kind, quantity, order
    ):
        for v in (synthetic_v, desk_v):
            for spec in _specs_of(kind):
                poly = expand_estimator(spec, max_degree=2 * order)
                if quantity == "bias":
                    expected = v.ybar * expectation_of(poly, v)
                    got = bias(spec, v, order)
                else:
                    expected = v.ybar**2 * expectation_of(poly.square(2 * order), v)
                    got = mse(spec, v, order)
                assert got == expected, (spec.label(), v.ybar)

    @pytest.mark.parametrize("kind", [EstimatorKind.T3S, EstimatorKind.T4S], ids=["t3s", "t4s"])
    def test_parameter_polynomial_equals_symbolic_square(self, synthetic_v, desk_v, kind):
        for v in (synthetic_v, desk_v):
            poly = expand_estimator_symbolic(kind, max_degree=4).square(4)
            buckets: list[list[float]] = []
            for (a, b), c in poly.items():
                cs = c.coeffs if isinstance(c, ParameterPolynomial) else (c,)
                for k, ck in enumerate(cs):
                    while len(buckets) <= k:
                        buckets.append([])
                    buckets[k].append(float(ck) * _moment_or_zero(v, a, b))
            expected = [v.ybar**2 * math.fsum(vals) for vals in buckets]
            assert mse_parameter_polynomial(kind, v) == expected

    def test_each_table_is_derived_once(self, monkeypatch):
        """Repeated reports reuse the tables: the symbolic expansion runs once
        per (kind, quantity) with a tuning constant, and never again."""
        derivations = collections.Counter()
        real = expansion.expand_estimator_symbolic

        def counting(kind, max_degree=4):
            derivations[kind] += 1
            return real(kind, max_degree)

        monkeypatch.setattr(expansion, "expand_estimator_symbolic", counting)
        expansion.coefficient_table.cache_clear()
        config = RunConfig(
            population=synthetic_csv_path(),
            sample_sizes=SYNTHETIC_SAMPLE_SIZES,
            estimators=tuple(
                EstimatorRequest.parse(e)
                for e in ("t1s", "t2s", "t3s:optimize", "t4s:optimize", "t3s:0.5")
            ),
            printed_mode=True,
        )
        first = report_as_dict(run(config))
        after_first = dict(derivations)
        for _ in range(3):
            assert report_as_dict(run(config)) == first
        assert dict(derivations) == after_first == {
            EstimatorKind.T3S: 2,
            EstimatorKind.T4S: 2,
        }
        info = expansion.coefficient_table.cache_info()
        assert info.misses == info.currsize == 16  # 4 kinds x 2 quantities x 2 orders

    @pytest.mark.parametrize(
        "spec, label",
        [(t3s(1e200), "t3s(alpha=1e+200)"), (t4s(1e308), "t4s(theta=1e+308)")],
    )
    def test_overflowing_weight_is_a_typed_error(self, synthetic_v, spec, label):
        for order in (1, 2):
            with pytest.raises(ComputationError, match=rf"{re.escape(label)} overflows"):
                mse(spec, synthetic_v, order)
