"""Point estimator evaluation and its reduction/monotonicity properties."""

import math

import numpy as np
import pytest

from stratexp.errors import ComputationError, DegenerateAuxiliaryError, PopulationError
from stratexp.estimators import (
    EstimatorKind,
    EstimatorSpec,
    StratifiedSample,
    estimate,
    t1s,
    t2s,
    t3s,
    t4s,
)
from stratexp.verify import draw_sample

from helpers import make_population


def sample_with(ybar: float, xbar: float) -> StratifiedSample:
    """A bare sample carrying just the stratified means."""
    return StratifiedSample(
        index_sets=((0,),),
        ybar_strata=(ybar,),
        xbar_strata=(xbar,),
        ybar=ybar,
        xbar=xbar,
    )


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
        s = sample_with(ybar=10.0, xbar=2.0)
        assert estimate(t1s(), s, 4.0) == pytest.approx(10 * math.exp(1 / 3), rel=1e-12)
        assert estimate(t2s(), s, 4.0) == pytest.approx(10 * math.exp(-1 / 3), rel=1e-12)
        assert estimate(t1s(), s, 4.0) == pytest.approx(13.95612425, rel=1e-8)
        assert estimate(t2s(), s, 4.0) == pytest.approx(7.165313106, rel=1e-8)

    def test_mixture_midpoint(self):
        s = sample_with(ybar=10.0, xbar=2.0)
        assert estimate(t4s(0.5), s, 4.0) == pytest.approx(10.56071868, rel=1e-8)

    def test_tunable_exponent(self):
        s = sample_with(ybar=10.0, xbar=2.0)
        assert estimate(t3s(2.0), s, 4.0) == pytest.approx(10 * math.exp(2 / 3), rel=1e-12)
        assert estimate(t3s(2.0), s, 4.0) == pytest.approx(19.47734041, rel=1e-8)

    def test_matched_means_return_ybar(self):
        s = sample_with(ybar=12.5, xbar=4.0)
        for spec in (t1s(), t2s(), t3s(3.7), t4s(0.3)):
            assert estimate(spec, s, 4.0) == 12.5

    def test_zero_exponent_is_plain_mean(self):
        s = sample_with(ybar=9.0, xbar=2.0)
        assert estimate(t3s(0.0), s, 4.0) == 9.0

    def test_zero_denominator_raises(self):
        s = sample_with(ybar=9.0, xbar=-4.0)
        with pytest.raises(DegenerateAuxiliaryError, match="degenerate auxiliary"):
            estimate(t1s(), s, 4.0)

    @pytest.mark.parametrize("spec", [t3s(1e6), t4s(1e308)], ids=["exp", "product"])
    def test_overflow_is_a_typed_error_naming_the_estimator(self, spec):
        """exp(1e6 z) overflows math.exp; theta = 1e308 overflows the product."""
        s = sample_with(ybar=9.0, xbar=2.0)
        with pytest.raises(ComputationError, match=r"estimator t[34]s\(.*\) overflows") as info:
            estimate(spec, s, 4.0)
        assert not isinstance(info.value, DegenerateAuxiliaryError)


class TestReductionIdentities:
    """t3s(1)=t1s, t3s(-1)=t2s, t4s(1)=t1s, t4s(0)=t2s on random samples."""

    def test_over_randomized_samples(self, synthetic):
        xbar_pop = synthetic.grand_x_mean
        for rep in range(1000):
            s = draw_sample(synthetic, seed=424242, rep=rep)
            v1 = estimate(t1s(), s, xbar_pop)
            v2 = estimate(t2s(), s, xbar_pop)
            assert estimate(t3s(1.0), s, xbar_pop) == pytest.approx(v1, rel=1e-12)
            assert estimate(t3s(-1.0), s, xbar_pop) == pytest.approx(v2, rel=1e-12)
            assert estimate(t4s(1.0), s, xbar_pop) == pytest.approx(v1, rel=1e-12)
            assert estimate(t4s(0.0), s, xbar_pop) == pytest.approx(v2, rel=1e-12)


class TestShapeProperties:
    def test_monotonicity_in_auxiliary_mean(self):
        """With everything else fixed, t1s falls and t2s rises in xbar_st."""
        xbars = np.linspace(0.5, 8.0, 40)
        ratio = [estimate(t1s(), sample_with(10.0, x), 4.0) for x in xbars]
        product = [estimate(t2s(), sample_with(10.0, x), 4.0) for x in xbars]
        assert all(a > b for a, b in zip(ratio, ratio[1:]))
        assert all(a < b for a, b in zip(product, product[1:]))

    def test_exponent_scale_invariance(self):
        """Scaling Xbar and all x by c > 0 leaves every estimate unchanged."""
        for c in (0.25, 3.0, 117.0):
            for spec in (t1s(), t2s(), t3s(1.75), t4s(0.4)):
                base = estimate(spec, sample_with(10.0, 2.0), 4.0)
                scaled = estimate(spec, sample_with(10.0, 2.0 * c), 4.0 * c)
                assert scaled == pytest.approx(base, rel=1e-12)


class TestStratifiedSample:
    def test_from_indices_computes_weighted_means(self):
        pop = make_population(
            ("A", [1, 2, 3], [2, 4, 6], 2),
            ("B", [4, 5, 6], [1, 2, 3], 2),
        )
        s = StratifiedSample.from_indices(pop, ((0, 2), (1, 2)))
        assert s.ybar_strata == (4.0, 2.5)
        assert s.xbar_strata == (2.0, 5.5)
        assert s.ybar == pytest.approx(0.5 * 4.0 + 0.5 * 2.5)
        assert s.xbar == pytest.approx(0.5 * 2.0 + 0.5 * 5.5)

    def test_from_indices_validates(self):
        pop = make_population(("A", [1, 2, 3], [2, 4, 6], 2))
        with pytest.raises(PopulationError, match="distinct"):
            StratifiedSample.from_indices(pop, ((0, 0),))
        with pytest.raises(PopulationError, match="out of range"):
            StratifiedSample.from_indices(pop, ((0, 5),))
        with pytest.raises(PopulationError, match="index sets"):
            StratifiedSample.from_indices(pop, ((0, 1), (0, 1)))
        with pytest.raises(PopulationError, match="integers"):
            StratifiedSample.from_indices(pop, ((0.0, 1),))
        with pytest.raises(PopulationError, match="integers"):
            StratifiedSample.from_indices(pop, ((0, True),))
        with pytest.raises(PopulationError, match="distinct"):
            StratifiedSample.from_indices(pop, ((0, 1, 1),))
