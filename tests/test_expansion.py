"""Series expansion engine: coefficient tables, bias/MSE closed forms.

The coefficient tables are checked against an independent oracle, the
arbitrary-precision Taylor coefficients of the scalar multiplier and of its
square (mpmath), and the first-order closed forms are verified as exact
rational identities, symbolic in the tuning constant.
"""

import collections
import math
import re
from fractions import Fraction as F

import mpmath
import pytest

import stratexp
from stratexp import expansion
from stratexp.datasets import SYNTHETIC_SAMPLE_SIZES, synthetic_csv_path
from stratexp.errors import ComputationError
from stratexp.estimators import EstimatorKind, EstimatorSpec, t1s, t2s, t3s, t4s
from stratexp.expansion import (
    RATIO_SERIES_COEFFS_DERIVED,
    RATIO_SERIES_COEFFS_PRINTED,
    bias,
    mse,
    mse_parameter_polynomial,
    printed_second_order,
)
from stratexp.moments import VTABLE_KEYS, VTable
from stratexp.report import EstimatorRequest, RunConfig, report_as_dict, run
from stratexp.verify import exact_expectation

from helpers import series_weights

T1S, T2S, T3S, T4S = EstimatorKind


def toy_vtable(ybar: float = 1.0, xbar: float = 1.0, **named: float) -> VTable:
    """A moment table with the given entries and zeros elsewhere."""
    entries = {key: 0.0 for key in VTABLE_KEYS}
    by_name = {f"V{a}{b}": (a, b) for (a, b) in VTABLE_KEYS}
    for name, value in named.items():
        entries[by_name[name]] = value
    return VTable(entries=entries, ybar=ybar, xbar=xbar)


def at(coeffs: tuple[F, ...], t: F) -> F:
    """A weight's polynomial in the tuning constant, evaluated at t."""
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def series_at(kind: EstimatorKind, quantity: str, order: int, t: F) -> dict:
    """The nonzero weights of a table at tuning constant t."""
    weights = {m: at(c, t) for m, c in series_weights(kind, quantity, order).items()}
    return {m: w for m, w in weights.items() if w}


def square(series: dict, degree: int) -> dict:
    """The square of a numeric series in (e0, e1), truncated by total degree."""
    out = collections.defaultdict(F)
    for (a1, b1), c1 in series.items():
        for (a2, b2), c2 in series.items():
            if a1 + a2 + b1 + b2 <= degree:
                out[(a1 + a2, b1 + b2)] += c1 * c2
    return {m: c for m, c in out.items() if c}


class TestExpansionCoefficients:
    def test_ratio_degree_two_slice(self):
        """exp(-e1/(2+e1)) through degree 2: e0, -e1/2, -e0e1/2, 3e1^2/8."""
        assert series_weights(T1S, "bias", 1) == {
            (1, 0): (F(1),),
            (0, 1): (F(-1, 2),),
            (1, 1): (F(-1, 2),),
            (0, 2): (F(3, 8),),
        }

    def test_ratio_high_degree_terms(self):
        weights = series_weights(T1S, "bias", 2)
        assert weights[(0, 3)] == (F(-13, 48),)
        assert weights[(0, 4)] == (F(73, 384),)
        assert weights[(1, 2)] == (F(3, 8),)
        assert weights[(1, 3)] == (F(-13, 48),)

    def test_product_expansion(self):
        weights = series_weights(T2S, "bias", 2)
        assert weights[(0, 1)] == (F(1, 2),)
        assert weights[(0, 2)] == (F(-1, 8),)
        assert weights[(0, 3)] == (F(1, 48),)
        assert weights[(0, 4)] == (F(1, 384),)

    def test_zero_exponent_reduces_to_mean_error(self):
        assert series_at(T3S, "bias", 2, F(0)) == {(1, 0): F(1)}

    def test_cubic_quartic_against_numeric_differentiation(self):
        """Independent oracle: high-precision Taylor coefficients of
        f(w) = exp(-w/(2+w)) at 0 via mpmath."""
        with mpmath.workdps(40):
            taylor = mpmath.taylor(lambda w: mpmath.exp(-w / (2 + w)), 0, 4)
        weights = series_weights(T1S, "bias", 2)
        for k in range(1, 5):
            (derived,) = weights[(0, k)]
            assert float(derived) == pytest.approx(float(taylor[k]), rel=1e-12), k
        # and the frozen rationals themselves
        assert RATIO_SERIES_COEFFS_DERIVED[3] == F(-13, 48)
        assert RATIO_SERIES_COEFFS_DERIVED[4] == F(73, 384)
        for k, printed in RATIO_SERIES_COEFFS_PRINTED.items():
            assert printed != RATIO_SERIES_COEFFS_DERIVED[k]
            assert float(printed) != pytest.approx(float(taylor[k]), rel=1e-6)

    def test_mixture_is_literal_combination(self):
        theta = F(5, 16)
        mix = series_at(T4S, "bias", 2, theta)
        a = series_at(T1S, "bias", 2, theta)
        b = series_at(T2S, "bias", 2, theta)
        for mono in set(mix) | set(a) | set(b):
            expected = theta * a.get(mono, 0) + (1 - theta) * b.get(mono, 0)
            assert mix.get(mono, 0) == expected, mono

    def test_truncation_bound_respected(self):
        for kind in EstimatorKind:
            for order in (1, 2):
                for quantity, max_e0 in (("bias", 1), ("mse", 2)):
                    monomials = series_weights(kind, quantity, order)
                    assert all(a + b <= 2 * order for a, b in monomials)
                    assert all(a <= max_e0 for a, b in monomials)


class TestExpectation:
    def test_first_moments_vanish(self):
        """The (1,0) and (0,1) rows weigh E[e0] = E[e1] = 0."""
        assert {(1, 0), (0, 1)} <= set(series_weights(T1S, "bias", 2))
        assert bias(t1s(), toy_vtable(ybar=3.0), 2) == 0.0

    def test_quartic_term_against_enumeration(self, desk, desk_v):
        """table . V equals direct enumeration of the truncated series."""
        theta = F(5, 16)
        weights = series_at(T4S, "mse", 2, theta)
        ybar, xbar = desk.grand_y_mean, desk.grand_x_mean

        def statistic(ybar_st, xbar_st):
            e0 = F((ybar_st - ybar) / ybar)
            e1 = F((xbar_st - xbar) / xbar)
            return float(sum(w * e0**a * e1**b for (a, b), w in weights.items()))

        exact = exact_expectation(desk, statistic)
        got = mse(t4s(float(theta)), desk_v, 2) / ybar**2
        assert got == pytest.approx(exact, rel=1e-9)


class TestFirstOrderClosedForms:
    """Degree-2 truncations reproduce the first-order forms as exact
    rational identities, symbolic in the tuning constant."""

    def test_ratio_bias_and_mse(self):
        weights = series_weights(T1S, "bias", 1)
        assert weights[(0, 2)] == (F(3, 8),)
        assert weights[(1, 1)] == (F(-1, 2),)
        assert series_weights(T1S, "mse", 1) == {
            (2, 0): (F(1),),
            (1, 1): (F(-1),),
            (0, 2): (F(1, 4),),
        }

    def test_product_bias_and_mse(self):
        weights = series_weights(T2S, "bias", 1)
        assert weights[(0, 2)] == (F(-1, 8),)
        assert weights[(1, 1)] == (F(1, 2),)
        assert series_weights(T2S, "mse", 1) == {
            (2, 0): (F(1),),
            (1, 1): (F(1),),
            (0, 2): (F(1, 4),),
        }

    def test_tunable_symbolic_identities(self):
        """Bias: (alpha/4 + alpha^2/8) V02 - (alpha/2) V11;
        MSE: V20 + alpha^2/4 V02 - alpha V11."""
        weights = series_weights(T3S, "bias", 1)
        assert weights[(0, 2)] == (0, F(1, 4), F(1, 8))
        assert weights[(1, 1)] == (0, F(-1, 2))
        sq = series_weights(T3S, "mse", 1)
        assert sq[(2, 0)] == (F(1),)
        assert sq[(0, 2)] == (0, 0, F(1, 4))
        assert sq[(1, 1)] == (0, -1)

    def test_mixture_symbolic_identities(self):
        """Bias: (theta/2 - 1/8) V02 + (1/2 - theta) V11;
        MSE: V20 + (1/2 - theta)^2 V02 + 2 (1/2 - theta) V11."""
        weights = series_weights(T4S, "bias", 1)
        assert weights[(0, 2)] == (F(-1, 8), F(1, 2))
        assert weights[(1, 1)] == (F(1, 2), -1)
        sq = series_weights(T4S, "mse", 1)
        assert sq[(2, 0)] == (F(1),)
        assert sq[(0, 2)] == (F(1, 4), -1, 1)
        assert sq[(1, 1)] == (1, -2)

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
        """Each MSE table is the square of its bias series (t/Ybar - 1),
        and squaring then truncating equals truncating then squaring: terms
        beyond degree 2 cannot feed back into degree <= 2 of the square."""
        for kind, t in ((T1S, F(1)), (T2S, F(1)), (T3S, F(17, 10)), (T4S, F(3, 10))):
            wide = series_at(kind, "bias", 2, t)
            narrow = series_at(kind, "bias", 1, t)
            assert square(wide, 4) == series_at(kind, "mse", 2, t)
            assert square(wide, 2) == square(narrow, 2) == series_at(kind, "mse", 1, t)

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


#: tuning constants at which the tables of t3s and t4s meet the oracle
ORACLE_PARAMETERS = (F(-2), F(-1), F(-1, 2), F(0), F(1, 3), F(1), F(5, 2))


def _scalar_multiplier(kind: EstimatorKind, t):
    """The scalar multiplier g(w), written directly from the estimator."""
    if kind is T1S:
        return lambda w: mpmath.exp(-w / (2 + w))
    if kind is T2S:
        return lambda w: mpmath.exp(w / (2 + w))
    if kind is T3S:
        return lambda w: mpmath.exp(-t * w / (2 + w))
    return lambda w: t * mpmath.exp(-w / (2 + w)) + (1 - t) * mpmath.exp(w / (2 + w))


def _oracle_weights(kind: EstimatorKind, t: F) -> dict:
    """Weights of E[e0^a e1^b], a + b <= 4, in the bias and MSE series.

    With gamma and eta the Taylor coefficients of g and g^2,
    (1 + e0) g - 1 and ((1 + e0) g - 1)^2 = (1 + e0)^2 g^2 - 2 (1 + e0) g + 1
    weigh e0^a e1^b by binomials of a times gamma_b and eta_b.
    """
    mt = mpmath.mpf(t.numerator) / t.denominator
    g = _scalar_multiplier(kind, mt)
    gamma = mpmath.taylor(g, 0, 4)
    eta = mpmath.taylor(lambda w: g(w) ** 2, 0, 4)
    out = {"bias": {}, "mse": {}}
    for a in range(5):
        for b in range(5 - a):
            one = 1 if (a, b) == (0, 0) else 0
            out["bias"][(a, b)] = (gamma[b] if a <= 1 else 0) - one
            out["mse"][(a, b)] = (
                math.comb(2, a) * eta[b] - 2 * (gamma[b] if a <= 1 else 0) + one
            )
    return out


def test_every_public_name_resolves():
    assert len(set(stratexp.__all__)) == len(stratexp.__all__)
    for name in stratexp.__all__:
        assert getattr(stratexp, name) is not None, name
    assert stratexp.coefficient_table is expansion.coefficient_table


def _moment_or_zero(v: VTable, a: int, b: int) -> float:
    return 0.0 if a + b == 1 else v[(a, b)]


TABLE_PARAMETERS = (0.0, 1.0, -1.0, 0.5, -0.5, 1 / 3, 2.75)


def _specs_of(kind: EstimatorKind) -> list[EstimatorSpec]:
    if kind is T3S:
        return [t3s(p) for p in TABLE_PARAMETERS]
    if kind is T4S:
        return [t4s(p) for p in TABLE_PARAMETERS]
    return [EstimatorSpec(kind)]


class TestCoefficientTables:
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("quantity", ["bias", "mse"])
    @pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda k: k.value)
    def test_table_is_the_symbolic_expansion(self, kind, quantity, order):
        """Every row, evaluated at t, equals the composition of the
        multiplier's 50-digit Taylor coefficients (mpmath) to 1e-40
        relative, and every monomial of degree <= 2 * order absent from the
        table weighs 0 in the oracle."""
        table = series_weights(kind, quantity, order)
        assert all(a + b <= 2 * order for a, b in table)
        points = ORACLE_PARAMETERS if kind.parameter_name else (F(1),)
        with mpmath.workdps(50):
            tol = mpmath.mpf("1e-40")
            for t in points:
                oracle = _oracle_weights(kind, t)[quantity]
                for (a, b), expected in oracle.items():
                    if a + b > 2 * order:
                        continue
                    got = at(table[(a, b)], t) if (a, b) in table else F(0)
                    label = (str(t), (a, b))
                    if got == 0:
                        assert abs(expected) <= tol, label
                    else:
                        exact = mpmath.mpf(got.numerator) / got.denominator
                        assert abs(expected - exact) <= tol * abs(exact), label

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("quantity", ["bias", "mse"])
    @pytest.mark.parametrize("kind", list(EstimatorKind), ids=lambda k: k.value)
    def test_evaluation_equals_fresh_expansion(
        self, synthetic_v, desk_v, kind, quantity, order
    ):
        """bias and mse equal the table evaluated afresh in Fractions: each
        weight at the exact rational constant, rounded once, exactly summed."""
        for v in (synthetic_v, desk_v):
            for spec in _specs_of(kind):
                t = F(1 if spec.parameter is None else spec.parameter)
                terms = [
                    float(at(c, t)) * _moment_or_zero(v, a, b)
                    for (a, b), c in series_weights(kind, quantity, order).items()
                ]
                if quantity == "bias":
                    expected, got = v.ybar * math.fsum(terms), bias(spec, v, order)
                else:
                    expected, got = v.ybar**2 * math.fsum(terms), mse(spec, v, order)
                assert got == expected, (spec.label(), v.ybar)

    @pytest.mark.parametrize("kind", [T3S, T4S], ids=["t3s", "t4s"])
    def test_parameter_polynomial_equals_symbolic_square(self, synthetic_v, desk_v, kind):
        """``mse_parameter_polynomial`` is the exactly summed column sums of
        the order-2 MSE table."""
        for v in (synthetic_v, desk_v):
            buckets: list[list[float]] = []
            for (a, b), cs in series_weights(kind, "mse", 2).items():
                for k, ck in enumerate(cs):
                    while len(buckets) <= k:
                        buckets.append([])
                    buckets[k].append(float(ck) * _moment_or_zero(v, a, b))
            expected = [v.ybar**2 * math.fsum(vals) for vals in buckets]
            assert mse_parameter_polynomial(kind, v) == expected

    def test_each_table_is_derived_once(self):
        """Repeated reports reuse the tables: each kind's multiplier series
        is derived once, each of the 16 tables once, and never again."""
        expansion.coefficient_table.cache_clear()
        expansion._multiplier.cache_clear()
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
        for _ in range(3):
            assert report_as_dict(run(config)) == first
        g = expansion._multiplier.cache_info()
        assert g.misses == g.currsize == 4  # one per kind
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
