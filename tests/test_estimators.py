"""Point estimator evaluation and its reduction/monotonicity properties."""

import math

import numpy as np
import pytest

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
