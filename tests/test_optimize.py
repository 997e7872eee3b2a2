"""Tuning-constant optimization: closed forms, numeric search, certificates."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratexp.errors import ComputationError, DegenerateAuxiliaryError
from stratexp.estimators import EstimatorKind, t3s, t4s
from stratexp.expansion import mse, mse_parameter_polynomial
from stratexp.optimize import BRACKETS, _horner, _minimize, optimize_spec
from stratexp.report import EstimatorRequest, RunConfig, run

from helpers import replace_entries
from test_expansion import toy_vtable

T3S, T4S = EstimatorKind.T3S, EstimatorKind.T4S


def optimizes(value):
    """The case id of a tunable kind names the constant it optimizes."""
    if isinstance(value, EstimatorKind):
        return f"optimize_{value.parameter_name}"
    return None


class TestClosedForms:
    def test_alpha_closed_form(self):
        v = toy_vtable(V20=0.02, V02=0.04, V11=0.01)
        out = optimize_spec(T3S, v, order=1)
        assert out.parameter == pytest.approx(0.5, rel=1e-15)
        assert out.method == "closed_form"
        assert out.iterations == 0

    def test_theta_closed_form(self):
        v = toy_vtable(V20=0.02, V02=0.04, V11=0.01)
        out = optimize_spec(T4S, v, order=1)
        assert out.parameter == pytest.approx(0.75, rel=1e-15)

    def test_uncorrelated_mixture_is_balanced(self):
        v = toy_vtable(V20=0.02, V02=0.04, V11=0.0)
        assert optimize_spec(T4S, v, order=1).parameter == pytest.approx(0.5)

    def test_degenerate_auxiliary_variance(self):
        v = toy_vtable(V20=0.02, V02=0.0, V11=0.0)
        with pytest.raises(DegenerateAuxiliaryError, match="degenerate auxiliary variance"):
            optimize_spec(T3S, v, order=1)

    @pytest.mark.parametrize("kind", BRACKETS, ids=optimizes)
    def test_degenerate_auxiliary_variance_second_order(self, kind):
        """With V02 = 0 every e1 moment vanishes and the quartic is flat."""
        v = toy_vtable(V20=0.02, V30=0.001)
        assert mse_parameter_polynomial(EstimatorKind.T3S, v)[1:] == [0.0] * 4
        with pytest.raises(DegenerateAuxiliaryError, match="degenerate auxiliary variance"):
            optimize_spec(kind, v, order=2)

    def test_objective_matches_recomputed_mse(self, synthetic_v):
        out = optimize_spec(T3S, synthetic_v, order=1)
        assert out.objective == pytest.approx(
            mse(t3s(out.parameter), synthetic_v, 1), rel=1e-12
        )

    def test_analytic_minimum_value(self, synthetic_v):
        v = synthetic_v
        target = v.ybar**2 * (v[(2, 0)] - v[(1, 1)] ** 2 / v[(0, 2)])
        assert optimize_spec(T3S, v, 1).objective == pytest.approx(target, rel=1e-12)
        assert optimize_spec(T4S, v, 1).objective == pytest.approx(target, rel=1e-12)


class TestNumericSearch:
    def test_zeroing_higher_moments_recovers_closed_forms(self, synthetic_v):
        """With no third/fourth-order contributions the quartic collapses to
        the first-order quadratic, so both orders must agree."""
        v = replace_entries(
            synthetic_v, V30=0.0, V21=0.0, V12=0.0, V03=0.0, V22=0.0, V13=0.0, V04=0.0
        )
        a1, a2 = optimize_spec(T3S, v, 1), optimize_spec(T3S, v, 2)
        t1, t2 = optimize_spec(T4S, v, 1), optimize_spec(T4S, v, 2)
        assert a2.parameter == pytest.approx(a1.parameter, abs=1e-8)
        assert t2.parameter == pytest.approx(t1.parameter, abs=1e-8)
        assert a2.method == "numeric"

    @pytest.mark.parametrize("kind", BRACKETS, ids=optimizes)
    def test_against_dense_scan(self, synthetic_v, kind):
        """Brute-force scan with step 1e-6 agrees to 1e-5."""
        out = optimize_spec(kind, synthetic_v, order=2)
        coeffs = np.asarray(mse_parameter_polynomial(kind, synthetic_v))
        lo, hi = BRACKETS[kind]
        xs = np.arange(lo, hi + 1e-9, 1e-6)
        vals = np.polynomial.polynomial.polyval(xs, coeffs)
        scan_best = float(xs[int(np.argmin(vals))])
        assert out.parameter == pytest.approx(scan_best, abs=1e-5)

    @pytest.mark.parametrize("kind,make", [(T3S, t3s), (T4S, t4s)], ids=optimizes)
    def test_local_optimality_certificate(self, synthetic_v, kind, make):
        out = optimize_spec(kind, synthetic_v, order=2)
        assert out.iterations >= 1  # an interior optimum is Newton-polished
        center = mse(make(out.parameter), synthetic_v, 2)
        left = mse(make(out.parameter - 1e-6), synthetic_v, 2)
        right = mse(make(out.parameter + 1e-6), synthetic_v, 2)
        assert center <= left
        assert center <= right

    def test_parameter_within_bracket(self, synthetic_v):
        out_a = optimize_spec(T3S, synthetic_v, 2)
        assert BRACKETS[T3S][0] <= out_a.parameter <= BRACKETS[T3S][1]
        assert out_a.bracket == BRACKETS[T3S]
        out_t = optimize_spec(T4S, synthetic_v, 2)
        assert BRACKETS[T4S][0] <= out_t.parameter <= BRACKETS[T4S][1]

    def test_objective_recomputed_at_order_two(self, synthetic_v):
        out = optimize_spec(T3S, synthetic_v, 2)
        assert out.objective == pytest.approx(
            mse(t3s(out.parameter), synthetic_v, 2), rel=1e-12
        )
        assert not out.objective_negative

    def test_argmin_invariant_under_y_scaling(self, synthetic):
        """Scaling y rescales the objective but not the table, hence not the
        argmin."""
        from stratexp.moments import v_table

        from helpers import make_population

        scaled = make_population(
            *(
                (s.id, s.x.tolist(), [4.0 * y for y in s.y.tolist()], s.small_n)
                for s in synthetic.strata
            )
        )
        v0 = v_table(synthetic)
        v1 = v_table(scaled)
        for kind in BRACKETS:
            for order in (1, 2):
                p0 = optimize_spec(kind, v0, order).parameter
                p1 = optimize_spec(kind, v1, order).parameter
                assert p1 == pytest.approx(p0, abs=1e-9)

    def test_second_order_optimum_beats_first_order_point(self, synthetic_v):
        """At order 2 the numeric optimum cannot lose to the first-order
        closed form evaluated on the order-2 objective."""
        a1 = optimize_spec(T3S, synthetic_v, 1).parameter
        out = optimize_spec(T3S, synthetic_v, 2)
        assert out.objective <= mse(t3s(a1), synthetic_v, 2) + 1e-15


_COEFFICIENT = st.builds(
    operator.mul,
    st.sampled_from((-1.0, 1.0)),
    st.floats(-6.0, 2.0).map(lambda e: 10.0**e),
)


class TestSearchMechanics:
    def test_ties_break_toward_smaller_magnitude(self):
        """A symmetric double-well quartic has exact ties at +/-1; the
        minimizer must prefer the smaller parameter of the pair rather than
        depend on the order of the candidates."""
        coeffs = [0.0, 0.0, -2.0, 0.0, 1.0]  # x^4 - 2x^2, minima at +/-1
        x, _ = _minimize(coeffs, (-4.0, 4.0))
        assert x == pytest.approx(-1.0, abs=1e-9)

    def test_global_well_wins_over_a_near_tie(self):
        """x^4 - 2x^2 - 1e-6 x is lower near +1 than near -1 by 2e-6: the
        deeper well wins however the bracket (-3, 4.995) is sampled."""
        coeffs = [0.0, -1e-6, -2.0, 0.0, 1.0]
        x, _ = _minimize(coeffs, (-3.0, 4.995))
        assert x == pytest.approx(1.0, abs=1e-6)
        assert _horner(coeffs, x) < -1.0 - 9e-7

    @settings(max_examples=200, deadline=None)
    @given(
        coeffs=st.sampled_from((3, 5)).flatmap(
            lambda size: st.lists(_COEFFICIENT, min_size=size, max_size=size)
        ),
        lo=st.floats(-5.0, -0.01),
        hi=st.floats(0.01, 5.0),
    )
    def test_no_scan_point_beats_the_minimizer(self, coeffs, lo, hi):
        """Quadratics and quartics of mixed signs and magnitudes 1e-6 to
        1e2: the result lies in the bracket, and no point of a 100 001-point
        scan is lower by more than 1e-9 relative to the size of the terms."""
        x, _ = _minimize(coeffs, (lo, hi))
        assert lo <= x <= hi
        xs = np.linspace(lo, hi, 100_001)
        vals = np.polynomial.polynomial.polyval(xs, np.asarray(coeffs))
        best = int(np.argmin(vals))
        terms = _horner([abs(c) for c in coeffs], abs(xs[best]))
        assert _horner(coeffs, x) <= vals[best] + 1e-9 * terms

    def test_optimum_at_the_bracket_end_is_exact(self, tmp_path):
        """With y = x^4 the order-1 optima (alpha 5.83, theta 3.41) lie past
        the brackets, so the order-2 optima are exactly the bracket ends,
        reached without a Newton step."""
        csv = tmp_path / "quartic.csv"
        csv.write_text("stratum,x,y\n" + "".join(
            f"{h},{x},{x**4}\n" for h, first in (("A", 5), ("B", 6))
            for x in range(first, first + 12)
        ))
        report = run(RunConfig(
            population=str(csv),
            sample_sizes={"A": 4, "B": 4},
            estimators=(
                EstimatorRequest.parse("t3s:optimize"),
                EstimatorRequest.parse("t4s:optimize"),
            ),
        ))
        for row, end in zip(report.rows, (BRACKETS[T3S][1], BRACKETS[T4S][1])):
            assert row.parameter_order1 > end
            assert row.parameter_order2 == end
            assert report.optimizer_outcomes[row.label]["order2"].iterations == 0

    def test_negative_objective_flagged_not_clamped(self, synthetic_v):
        """An (unphysical) table can push the second-order MSE negative at
        the optimum; the outcome reports it instead of clamping."""
        v = replace_entries(synthetic_v, V04=-50.0)
        out = optimize_spec(T3S, v, order=2)
        assert out.objective < 0
        assert out.objective_negative


class TestOverflow:
    @pytest.mark.parametrize(
        "entry", [{"V04": 1e308}, {"V22": 1.7e308}, {"V13": -1.7e308}, {"V02": 1e308}]
    )
    @pytest.mark.parametrize("kind, label", [(T3S, "t3s"), (T4S, "t4s")], ids=optimizes)
    def test_polynomial_outside_the_float_range_is_a_typed_error(
        self, synthetic_v, entry, kind, label
    ):
        """The order-2 objective has a coefficient outside the float range;
        root finding on it used to fail inside NumPy."""
        v = replace_entries(synthetic_v, **entry)
        with pytest.raises(ComputationError, match=rf"^estimator {label} overflows"):
            optimize_spec(kind, v, 2)


class TestOrderValidation:
    def test_bad_order(self, synthetic_v):
        with pytest.raises(ValueError):
            optimize_spec(T3S, synthetic_v, 3)

    @pytest.mark.parametrize("kind", [EstimatorKind.T1S, EstimatorKind.T2S])
    def test_kind_without_a_constant(self, synthetic_v, kind):
        with pytest.raises(ValueError, match="has no tuning constant to optimize"):
            optimize_spec(kind, synthetic_v, 1)
