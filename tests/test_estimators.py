"""Point estimator evaluation and its reduction/monotonicity properties."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stratexp.errors import ComputationError, DegenerateAuxiliaryError
from stratexp.estimators import (
    EstimatorKind,
    EstimatorSpec,
    estimate,
    t1s,
    t2s,
    t3s,
    t4s,
)
from stratexp.verify import draw_sample


class TestSpecValidation:
    def test_parameter_required_iff_kind_needs_it(self):
        with pytest.raises(ValueError):
            EstimatorSpec(EstimatorKind.T3S)
        with pytest.raises(ValueError):
            EstimatorSpec(EstimatorKind.T4S)
        with pytest.raises(ValueError):
            EstimatorSpec(EstimatorKind.T1S, 1.0)
        assert t3s(0.5).parameter == 0.5
        assert t4s(0.25).parameter == 0.25
        assert t1s().parameter is None

    def test_labels(self):
        assert t1s().label() == "t1s"
        assert t3s(0.5).label() == "t3s(alpha=0.5)"
        assert t4s(-1.25).label() == "t4s(theta=-1.25)"

    def test_label_keeps_every_digit_of_the_constant(self):
        """Nearby constants keep distinct names, under the requests' rule."""
        assert t3s(0.1234567).label() == "t3s(alpha=0.1234567)"
        assert t3s(0.1234568).label() == "t3s(alpha=0.1234568)"
        assert t3s(1.0000001e6).label() == "t3s(alpha=1000000.1)"
        assert t4s(1e6).label() == "t4s(theta=1e+06)"


class TestPointValues:
    """Direct substitutions into the closed forms."""

    def test_ratio_and_product(self):
        assert estimate(t1s(), 10.0, 2.0, 4.0) == pytest.approx(10 * math.exp(1 / 3), rel=1e-12)
        assert estimate(t2s(), 10.0, 2.0, 4.0) == pytest.approx(10 * math.exp(-1 / 3), rel=1e-12)
        assert estimate(t1s(), 10.0, 2.0, 4.0) == pytest.approx(13.95612425, rel=1e-8)
        assert estimate(t2s(), 10.0, 2.0, 4.0) == pytest.approx(7.165313106, rel=1e-8)

    def test_mixture_midpoint(self):
        assert estimate(t4s(0.5), 10.0, 2.0, 4.0) == pytest.approx(10.56071868, rel=1e-8)

    def test_tunable_exponent(self):
        assert estimate(t3s(2.0), 10.0, 2.0, 4.0) == pytest.approx(10 * math.exp(2 / 3), rel=1e-12)
        assert estimate(t3s(2.0), 10.0, 2.0, 4.0) == pytest.approx(19.47734041, rel=1e-8)

    def test_matched_means_return_ybar(self):
        for spec in (t1s(), t2s(), t3s(3.7), t4s(0.3)):
            assert estimate(spec, 12.5, 4.0, 4.0) == 12.5

    def test_zero_exponent_is_plain_mean(self):
        assert estimate(t3s(0.0), 9.0, 2.0, 4.0) == 9.0

    def test_zero_denominator_raises(self):
        with pytest.raises(DegenerateAuxiliaryError, match="degenerate auxiliary"):
            estimate(t1s(), 9.0, -4.0, 4.0)

    @pytest.mark.parametrize("spec", [t3s(1e6), t4s(1e308)], ids=["exp", "product"])
    def test_overflow_is_a_typed_error_naming_the_estimator(self, spec):
        """exp(1e6 z) overflows math.exp; theta = 1e308 overflows the product."""
        with pytest.raises(ComputationError, match=r"estimator t[34]s\(.*\) overflows") as info:
            estimate(spec, 9.0, 2.0, 4.0)
        assert not isinstance(info.value, DegenerateAuxiliaryError)


def formula(spec, ybar_st, xbar_st, xbar_pop):
    """The module docstring's formulas written out, T4S left to right as the
    literal mixture; None where the value is not a finite float."""
    z = (xbar_pop - xbar_st) / (xbar_pop + xbar_st)
    try:
        if spec.kind is EstimatorKind.T1S:
            t = ybar_st * math.exp(z)
        elif spec.kind is EstimatorKind.T2S:
            t = ybar_st * math.exp(-z)
        elif spec.kind is EstimatorKind.T3S:
            t = ybar_st * math.exp(spec.parameter * z)
        else:
            theta = spec.parameter
            t = theta * ybar_st * math.exp(z) + (1.0 - theta) * ybar_st * math.exp(-z)
    except OverflowError:
        return None
    return t if math.isfinite(t) else None


MEANS = st.one_of(st.sampled_from([0.0, -0.0, 2.0, -2.0]), st.floats(-1e6, 1e6))
CONSTANTS = st.one_of(st.sampled_from([1e6, -1e6, 1e300]), st.floats(-50.0, 50.0))
SPECS = st.one_of(
    st.sampled_from([t1s(), t2s()]),
    st.builds(t3s, CONSTANTS),
    st.builds(t4s, st.one_of(CONSTANTS, st.just(1e308))),
)


class TestFormulas:
    @given(SPECS, MEANS, MEANS, MEANS)
    @example(t2s(), 5.0, -2.0, -2.0)  # z = -0.0
    @example(t2s(), 5.0, 2.0, 2.0)  # z = 0.0
    @example(t3s(1e6), 9.0, 2.0, 4.0)  # exp overflows
    @example(t3s(1e300), 9.0, 4.0 + 2**-50, 4.0)  # exp underflows to 0
    @example(t4s(1e308), 9.0, 2.0, 4.0)  # the product overflows
    @example(t1s(), 9.0, -4.0, 4.0)  # Xbar + xbar_st = 0
    def test_estimate_has_the_bits_of_the_formulas(self, spec, ybar_st, xbar_st, xbar_pop):
        if xbar_pop + xbar_st == 0.0:
            with pytest.raises(DegenerateAuxiliaryError):
                estimate(spec, ybar_st, xbar_st, xbar_pop)
            return
        want = formula(spec, ybar_st, xbar_st, xbar_pop)
        if want is None:
            with pytest.raises(ComputationError, match=r"overflows the float range") as info:
                estimate(spec, ybar_st, xbar_st, xbar_pop)
            assert not isinstance(info.value, DegenerateAuxiliaryError)
        else:
            assert estimate(spec, ybar_st, xbar_st, xbar_pop).hex() == want.hex()

    def test_rate_is_not_a_field(self):
        """Each spec's exponent rate; reading it changes neither equality,
        hash nor repr, which see only the kind and the constant."""
        spec = t3s(0.5)
        assert [s.rate for s in (t1s(), t2s(), spec, t4s(0.5))] == [1.0, -1.0, 0.5, None]
        same = EstimatorSpec(EstimatorKind.T3S, 0.5)
        assert spec == same
        assert hash(spec) == hash(same)
        assert repr(spec) == "EstimatorSpec(kind=<EstimatorKind.T3S: 't3s'>, parameter=0.5)"


class TestReductionIdentities:
    """t3s(1)=t1s, t3s(-1)=t2s, t4s(1)=t1s, t4s(0)=t2s on random samples."""

    def test_over_randomized_samples(self, synthetic):
        xbar_pop = synthetic.grand_x_mean
        for rep in range(1000):
            _, y, x = draw_sample(synthetic, seed=424242, rep=rep)
            v1 = estimate(t1s(), y, x, xbar_pop)
            v2 = estimate(t2s(), y, x, xbar_pop)
            assert estimate(t3s(1.0), y, x, xbar_pop) == pytest.approx(v1, rel=1e-12)
            assert estimate(t3s(-1.0), y, x, xbar_pop) == pytest.approx(v2, rel=1e-12)
            assert estimate(t4s(1.0), y, x, xbar_pop) == pytest.approx(v1, rel=1e-12)
            assert estimate(t4s(0.0), y, x, xbar_pop) == pytest.approx(v2, rel=1e-12)


class TestShapeProperties:
    def test_monotonicity_in_auxiliary_mean(self):
        """With everything else fixed, t1s falls and t2s rises in xbar_st."""
        xbars = np.linspace(0.5, 8.0, 40)
        ratio = [estimate(t1s(), 10.0, x, 4.0) for x in xbars]
        product = [estimate(t2s(), 10.0, x, 4.0) for x in xbars]
        assert all(a > b for a, b in zip(ratio, ratio[1:]))
        assert all(a < b for a, b in zip(product, product[1:]))

    def test_exponent_scale_invariance(self):
        """Scaling Xbar and all x by c > 0 leaves every estimate unchanged."""
        for c in (0.25, 3.0, 117.0):
            for spec in (t1s(), t2s(), t3s(1.75), t4s(0.4)):
                base = estimate(spec, 10.0, 2.0, 4.0)
                scaled = estimate(spec, 10.0, 2.0 * c, 4.0 * c)
                assert scaled == pytest.approx(base, rel=1e-12)
