"""Enumeration and Monte Carlo oracles: exactness, determinism, consistency."""

import itertools
import math
import operator
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stratexp import exactsum, verify
from stratexp.errors import ComputationError, DegenerateAuxiliaryError, EnumerationLimitError
from stratexp.estimators import estimate, t1s, t2s, t3s, t4s
from stratexp.exactsum import fsum, fsum_columns
from stratexp.moments import v_table
from stratexp.population import StratifiedPopulation
from stratexp.verify import (
    ExactDesignDistribution,
    draw_sample,
    exact_bias_mse,
    exact_expectation,
    monte_carlo,
    stratum_means,
)

from helpers import make_population, mc_report_without_workers, sign_keeping_fsum


def reference_samples(pop):
    """The joint samples written out one by one: ``product`` of each
    stratum's ``combinations``, stratum means summed left to right with
    ``reduce`` (plus 0.0, so an all -0.0 selection gives 0.0), and their
    weighted sum by ``math.fsum``."""
    per_stratum = []
    for s in pop.strata:
        ys, xs = s.y.tolist(), s.x.tolist()
        per_stratum.append([
            (
                idx,
                (reduce(operator.add, [ys[i] for i in idx]) + 0.0) / s.small_n,
                (reduce(operator.add, [xs[i] for i in idx]) + 0.0) / s.small_n,
            )
            for idx in itertools.combinations(range(s.capital_n), s.small_n)
        ])
    for picks in itertools.product(*per_stratum):
        yield (
            tuple(idx for idx, _, _ in picks),
            math.fsum(w * yb for w, (_, yb, _) in zip(pop.weights, picks)),
            math.fsum(w * xb for w, (_, _, xb) in zip(pop.weights, picks)),
        )


def reference_monte_carlo(pop, specs, replicates, seed):
    """The Monte Carlo oracle as a per-replicate loop: ``draw_sample``, then
    ``estimate`` for each spec, skipping a replicate on
    ``DegenerateAuxiliaryError``; each mean a ``math.fsum`` of a list over
    n, each variance a two-pass ``math.fsum`` over n - 1.  Returns the bias
    and MSE summaries, as ``McEstimate``s, and the skipped count."""
    xbar, ybar = pop.grand_x_mean, pop.grand_y_mean
    deviations = []
    for r in range(replicates):
        _, y, x = draw_sample(pop, seed, r)
        try:
            deviations.append([estimate(spec, y, x, xbar) - ybar for spec in specs])
        except DegenerateAuxiliaryError:
            pass
    n = len(deviations)

    def summary(values):
        mean = math.fsum(values) / n
        var = math.fsum([(v - mean) * (v - mean) for v in values]) / (n - 1)
        return verify.McEstimate(mean, var, n, seed, math.sqrt(var / n))

    columns = [list(column) for column in zip(*deviations)]
    return (
        tuple(summary(d) for d in columns),
        tuple(summary([v * v for v in d]) for d in columns),
        replicates - n,
    )


VALUES = st.one_of(st.sampled_from([-0.0, 1e16, 1.0, -1e16]), st.floats(-100.0, 100.0))


def filter_columns(rng, k, m):
    """A (k, m) array of columns for ``fsum_columns``: a quarter each of
    wide scales (up to 10**+-300), near cancellation (the last entry is
    minus the rounded sum of the others), ties (small integers times powers
    of two up to 2**60) and tiny entries (+-0.0 and subnormals), with one
    entry of every column replaced by an entry of a random kind."""
    scales = 10.0 ** rng.integers(-300, 301, (k, m))
    wide = rng.standard_normal((k, m)) * scales
    cancel = rng.standard_normal((k, m)) * scales[0]
    cancel[-1] = -cancel[:-1].sum(axis=0) + rng.standard_normal(m) * scales[0] * 1e-15
    ties = rng.integers(-8, 9, (k, m)) * np.ldexp(1.0, rng.integers(0, 61, (k, m)))
    tiny = rng.choice([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -1e-310, 3e-320], (k, m))
    kinds, at = np.stack([wide, cancel, ties, tiny]), np.arange(m)
    cols = kinds[at % 4, :, at].T
    swap = rng.integers(0, k, m)
    cols[swap, at] = kinds[rng.integers(0, 4, m), swap, at]
    return cols


class TestFsumColumns:
    """``fsum_columns`` has the bits of ``math.fsum`` on every column."""

    @pytest.mark.parametrize("keep_sign", [False, True])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_bits_of_fsum(self, monkeypatch, k, keep_sign):
        if keep_sign:
            monkeypatch.setattr(math, "fsum", sign_keeping_fsum)
        rng = np.random.default_rng([k, keep_sign])
        zeros = np.full((k, 2), -0.0)
        zeros[0, 1] = 0.0
        cols = np.concatenate((filter_columns(rng, k, 4096), zeros), axis=1)
        got = fsum_columns(cols)
        want = [math.fsum(col) for col in cols.T.tolist()]
        assert [g.hex() for g in got] == [w.hex() for w in want]
        assert math.copysign(1.0, got[-2]) == (-1.0 if keep_sign else 1.0)
        assert math.copysign(1.0, got[-1]) == 1.0

    @pytest.mark.parametrize(
        "column",
        [
            [1e308, 1e308, -1e308],  # math.fsum overflows on the way
            [1e308, -1e308, 1e308],
            [2.0**1023, 2.0**1023],
            [1.7976931348623157e308, 2.0**970, -2.0**970],
            [-1.7976931348623157e308, -2.0**969],
            [2.0**1022, 2.0**1022, 2.0**1021, -2.0**1023, -2.0**1022],
            [math.inf, 1.0],
            [-math.inf],
            [math.inf, -math.inf],
            [math.nan, 1.0, 2.0],
            [1.0, math.nan],
            [math.nan, math.inf, -math.inf],  # math.fsum raises; inf, not nan
        ],
    )
    def test_values_past_the_float_range(self, column):
        """Non-finite entries and running sums that leave the float range:
        the value of ``exactsum.fsum``, which does not depend on the order
        of the terms and never raises."""
        want = fsum(column)
        got = fsum_columns(np.array(column)[:, None])
        if math.isnan(want):
            assert math.isnan(*got)
        else:
            assert [g.hex() for g in got] == [want.hex()]

    def test_only_a_column_the_filter_cannot_certify_goes_to_fsum(self, monkeypatch):
        """1 + 2**-60 + 2**-120: the first cascade leaves the errors 2**-60
        and 2**-120, whose sum the second cannot hold in one float."""
        fsum, calls = math.fsum, []

        def counting_fsum(values):
            calls.append(values)
            return fsum(values)

        monkeypatch.setattr(math, "fsum", counting_fsum)
        cols = np.array([[1.0, 1.0, 1e16], [2.0**-60, 0.5, 1.0], [2.0**-120, 0.25, 1.0]])
        got = fsum_columns(cols)
        assert calls == [[1.0, 2.0**-60, 2.0**-120]]
        assert [g.hex() for g in got] == [fsum(col).hex() for col in cols.T.tolist()]


class TestEnumeration:
    def test_stratified_mean_is_unbiased(self, synthetic):
        got = exact_expectation(synthetic, lambda y, x: y)
        assert got == pytest.approx(synthetic.grand_y_mean, rel=1e-13)

    def test_textbook_variance_identity(self):
        """Single stratum N=4, n=2, y={1,2,3,4}: Var(ybar) = 0.25 * 5/3 = 5/12."""
        pop = make_population(("A", [1, 1, 1, 1], [1, 2, 3, 4], 2))
        var = exact_expectation(pop, lambda y, x: (y - 2.5) ** 2)
        assert var == pytest.approx(5.0 / 12.0, rel=1e-13)

    def test_third_moment_matches_k1_formula(self, desk, desk_v):
        """E[e1^3] equals the table's V03 (here zero: N = 2n kills k1) and,
        on an asymmetric design, the k1-weighted third central moment."""
        pop = make_population(("A", [1, 2, 4, 8, 16, 32, 64], [1, 1, 1, 1, 1, 1, 1], 2))
        xbar = pop.grand_x_mean
        got = exact_expectation(pop, lambda y, x: ((x - xbar) / xbar) ** 3)
        cap, n = 7, 2
        k1 = ((cap - n) * (cap - 2 * n)) / (n * n * (cap - 1) * (cap - 2))
        mu3 = math.fsum((x - xbar) ** 3 for x in pop.strata[0].x.tolist()) / cap
        assert got == pytest.approx(k1 * mu3 / xbar**3, rel=1e-12)

    def test_visits_every_sample_once(self, synthetic):
        dist = ExactDesignDistribution(synthetic)
        assert dist.stratum_space_sizes == (20, 35)
        assert dist.size == 700
        seen = {tuple(map(tuple, index_sets)) for index_sets, _, _ in dist}
        assert len(seen) == 700

    def test_sample_means_are_weighted_stratum_means(self):
        pop = make_population(
            ("A", [1, 2, 3], [2, 4, 6], 2),
            ("B", [4, 5, 6], [1, 2, 3], 2),
        )
        assert stratum_means(pop.strata[0], (0, 2)) == (4.0, 2.0)
        assert stratum_means(pop.strata[1], (1, 2)) == (2.5, 5.5)
        samples = {index_sets: (y, x) for index_sets, y, x in ExactDesignDistribution(pop)}
        ybar, xbar = samples[(0, 2), (1, 2)]
        assert ybar == pytest.approx(0.5 * 4.0 + 0.5 * 2.5)
        assert xbar == pytest.approx(0.5 * 2.0 + 0.5 * 5.5)

    def test_sample_means_sum_left_to_right(self):
        """1e16 + 1.0 rounds back to 1e16, so the y sum is 0.0 left to right
        (a compensated sum, as ``sum`` is from Python 3.12 on, gives 1.0);
        an all -0.0 selection sums to 0.0."""
        pop = make_population(("A", [1, 2, 3, 4, 5, 6], [1e16, 1.0, -1e16, -0.0, -0.0, -0.0], 3))
        stratum = pop.strata[0]
        assert stratum_means(stratum, (0, 1, 2)) == (0.0, 2.0)
        ybar, xbar = stratum_means(stratum, (3, 4, 5))
        assert math.copysign(1.0, ybar) == 1.0 and xbar == 5.0

    @settings(max_examples=80, deadline=None)
    @given(
        strata=st.lists(
            st.integers(2, 5).flatmap(
                lambda cap: st.tuples(
                    st.lists(VALUES, min_size=cap, max_size=cap),
                    st.lists(VALUES, min_size=cap, max_size=cap),
                    st.integers(1, cap - 1),
                )
            ),
            min_size=1,
            max_size=4,
        ),
        block=st.sampled_from([1, 3, 1024]),
    )
    @example(strata=[([1e16, 1.0, -1e16, -0.0], [-0.0, -0.0, 1.0, 1e16], 2)], block=1024)
    @example(
        # eight strata, W_h = 1/8 exactly: the weighted means keep scales
        # from 2**-123 to about 2**997, and many sums have a nonzero
        # second-level error or are zero, so both routes of fsum_columns run
        strata=[
            ([1.0, 3.0], [1.0, -0.0], 1),
            ([2.0, -0.0], [2.0**-60, 1e16], 1),
            ([5e-324, 4.0], [2.0**-120, -1e16], 1),
            ([-0.0, -0.0], [-0.0, 5e-324], 1),
            ([1e300, 7.0], [3.0, -0.0], 1),
            ([-1e300, 9.0], [2.0**53, 1.0], 1),
            ([1e-300, 1.0], [2.0**53, -1.0], 1),
            ([6.0, 2.0**-1074], [1e-300, -1e-300], 1),
        ],
        block=100,
    )
    @example(
        strata=[
            ([1e16, 1.0, -1e16], [1.0, 2.0, 3.0], 2),
            ([-0.0, 5e-324, 3.0], [1e16, -1e16, 1.0], 1),
            ([2.0**53, 1.0, 1.0], [-0.0, -0.0, -0.0], 2),
            ([4.0, -4.0, 1e-300], [2.0**-60, 7.0, -7.0], 1),
            ([1e300, -1e300, 2.0], [5.0, 2.0**52, -0.0], 2),
        ],
        block=3,
    )
    def test_samples_have_the_bits_of_the_scalar_reference(self, strata, block):
        """The array means, combined block by block, give each sample the
        index sets and the bits of the sample-by-sample reference."""
        pop = make_population(*((f"S{h}", xs, ys, n) for h, (xs, ys, n) in enumerate(strata)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "BLOCK", block)
            got = list(ExactDesignDistribution(pop))
        want = list(reference_samples(pop))
        assert [idx for idx, _, _ in got] == [idx for idx, _, _ in want]
        for (_, y, x), (_, y_ref, x_ref) in zip(got, want):
            assert (y.hex(), x.hex()) == (y_ref.hex(), x_ref.hex())

    def test_expectation_is_exactly_rounded(self, synthetic):
        """700 samples, 140 of each value: the exact sum is 140.  Summing in
        order with a running compensation loses it to the 1e200 terms."""
        values = itertools.cycle([1e200, 1e100, 1.0, -1e200, -1e100])
        assert exact_expectation(synthetic, lambda y, x: next(values)) == 0.2

    @pytest.mark.parametrize("block", [699, 700, 701, 64])
    def test_expectation_has_the_bits_of_fsum(self, synthetic, monkeypatch, block):
        """One block but one sample, one block, one block and one sample, 11
        blocks; the large values cancel across blocks."""
        monkeypatch.setattr(verify, "BLOCK", block)
        big = itertools.cycle([0.0, 1e200, 0.0, 0.0, -1e200])
        values = [next(big) or y for _, y, _ in ExactDesignDistribution(synthetic)]
        given = iter(values)
        got = exact_expectation(synthetic, lambda y, x: next(given))
        assert got.hex() == (math.fsum(values) / 700).hex()

    @pytest.mark.parametrize("keep_sign", [False, True])
    @pytest.mark.parametrize("block", [100, 255, 700])
    def test_expectation_of_negative_zeros(self, synthetic, monkeypatch, block, keep_sign):
        """Off and on the bucket kernel, which never gives a -0.0 part, a
        sum of -0.0 alone follows math.fsum's sign rule; were it to keep the
        sign of an all -0.0 input, the sum would keep it too."""
        monkeypatch.setattr(verify, "BLOCK", block)
        if keep_sign:
            monkeypatch.setattr(math, "fsum", sign_keeping_fsum)
        got = exact_expectation(synthetic, lambda y, x: -0.0)
        assert got.hex() == (math.fsum([-0.0] * 700) / 700).hex()

    def test_a_value_that_is_not_a_float_is_an_error(self, synthetic):
        with pytest.raises(TypeError):
            exact_expectation(synthetic, lambda y, x: None)

    @pytest.mark.parametrize(
        "statistic, error",
        [
            (lambda y, x: math.sqrt(-y), ValueError),
            (lambda y, x: math.log(x - x), ValueError),
            (lambda y, x: (y * 1e300) ** 2, OverflowError),
            (lambda y, x: y / 0.0, ZeroDivisionError),
        ],
    )
    def test_an_error_of_the_statistic_propagates(self, synthetic, statistic, error):
        with pytest.raises(error):
            exact_expectation(synthetic, statistic)

    @pytest.mark.parametrize(
        "statistic",
        [
            lambda y, x: math.inf,
            lambda y, x: -math.inf,
            lambda y, x: math.nan,
            lambda y, x: math.inf if y > 5.0 else -math.inf,
            lambda y, x: 1e308,
            lambda y, x: -1e308,
        ],
    )
    def test_a_sum_that_is_not_finite_is_an_error(self, synthetic, monkeypatch, statistic):
        """Infinite or nan values, an undefined inf - inf and sums past the
        float range, also where they meet in a later block."""
        monkeypatch.setattr(verify, "BLOCK", 64)
        with pytest.raises(ComputationError, match="not finite"):
            exact_expectation(synthetic, statistic)

    def test_expectation_memory_does_not_grow_across_blocks(self, monkeypatch):
        monkeypatch.setattr(verify, "BLOCK", 50)
        ys = [1.0, 4.0, 2.0, 8.0, 5.0, 7.0, 3.0]
        xs = [2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0]
        strata = [("A", xs[:6], ys[:6], 3), ("B", xs, ys, 3), ("C", xs[:5], ys[:5], 2)]

        def peak(pop):
            exact_expectation(pop, lambda y, x: y * x)
            tracemalloc.start()
            try:
                exact_expectation(pop, lambda y, x: y * x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = make_population(*strata[:2]), make_population(*strata)
        assert peak(large) < peak(small) + 32 * 1024

    def test_space_limit_error_names_size(self, synthetic):
        with pytest.raises(EnumerationLimitError, match="700"):
            ExactDesignDistribution(synthetic, limit=699)
        with pytest.raises(EnumerationLimitError):
            exact_expectation(synthetic, lambda y, x: 1.0, limit=10)

    def test_space_past_numpy_index_range_is_refused(self):
        """20 strata of C(10, 5) = 252 combinations: 252**20 ~ 1.1e48 joint
        samples, within a limit of 1e60 but past what NumPy can index."""
        units = [float(u) for u in range(1, 11)]
        pop = make_population(*((f"S{h}", units, units, 5) for h in range(20)))
        with pytest.raises(EnumerationLimitError, match=f"^joint sample space has {252**20} "):
            ExactDesignDistribution(pop, limit=10**60)
        with pytest.raises(EnumerationLimitError, match="more than NumPy can index"):
            exact_expectation(pop, lambda y, x: 1.0, limit=10**60)


class TestExactBiasMse:
    def test_zero_exponent_unbiased(self, synthetic, synthetic_v):
        bias_e, mse_e = exact_bias_mse(synthetic, [t3s(0.0)])[0]
        assert bias_e == pytest.approx(0.0, abs=1e-13)
        expected = synthetic.grand_y_mean ** 2 * synthetic_v[(2, 0)]
        assert mse_e == pytest.approx(expected, rel=1e-11)

    def test_constant_x_neutralizes_every_estimator(self):
        pop = make_population(
            ("A", [5, 5, 5, 5, 5], [1, 4, 2, 8, 5], 2),
            ("B", [7, 7, 7, 7], [3, 1, 4, 1], 2),
        )
        v = v_table(pop)
        expected = pop.grand_y_mean ** 2 * v[(2, 0)]
        for spec in (t1s(), t2s(), t3s(2.5), t4s(0.3)):
            bias_e, mse_e = exact_bias_mse(pop, [spec])[0]
            assert bias_e == pytest.approx(0.0, abs=1e-13)
            assert mse_e == pytest.approx(expected, rel=1e-11)

    def test_degenerate_sample_aborts_with_description(self):
        """x = {-3, 1, 2, 4} has mean 1; the sample {-3, 1} hits the pole."""
        pop = make_population(("A", [-3, 1, 2, 4], [1, 2, 3, 4], 2))
        with pytest.raises(ComputationError) as info:
            exact_bias_mse(pop, [t1s()])
        assert str(info.value) == (
            "estimator t1s failed on sample with index sets ((0, 1),): "
            "degenerate auxiliary configuration: Xbar + xbar_st = 0"
        )

    @pytest.mark.parametrize("block", [1024, 4, 1])
    @pytest.mark.parametrize(
        "specs, named",
        [
            # t3s(1e6) overflows on the first sample, t3s(-1e6) only on the
            # seventh: the first failing sample is named, not the first spec.
            ([t3s(-1e6), t3s(1e6)], "t3s(alpha=1e+06) failed on sample with index sets ((0, 1),)"),
            ([t3s(-1e6)], "t3s(alpha=-1e+06) failed on sample with index sets ((1, 4),)"),
        ],
    )
    def test_failure_names_the_first_sample_then_the_first_estimator(
        self, monkeypatch, block, specs, named
    ):
        """x = y = 1..5, n = 2: samples with xbar_st < 3 overflow alpha = 1e6,
        those with xbar_st > 3 overflow alpha = -1e6."""
        monkeypatch.setattr(verify, "BLOCK", block)
        pop = make_population(("A", [1, 2, 3, 4, 5], [1, 2, 3, 4, 5], 2))
        with pytest.raises(ComputationError) as info:
            exact_bias_mse(pop, specs)
        assert str(info.value).startswith(f"estimator {named}: estimator ")

    def test_failure_past_the_first_block_names_its_index_sets(self, monkeypatch):
        """Two strata in blocks of 4 samples: xbar_st first exceeds Xbar = 16/7
        at position 5, the second sample of the second block, where
        t3s(alpha = -1e6) overflows and t1s does not."""
        monkeypatch.setattr(verify, "BLOCK", 4)
        pop = make_population(
            ("A", [1, 2, 3, 4], [1, 2, 3, 4], 2),
            ("B", [1, 2, 3], [1, 2, 3], 1),
        )
        samples = list(ExactDesignDistribution(pop))
        position = next(i for i, (_, _, x) in enumerate(samples) if x > pop.grand_x_mean)
        assert position == 5 and samples[position][0] == ((0, 2), (2,))
        with pytest.raises(ComputationError) as info:
            exact_bias_mse(pop, [t1s(), t3s(-1e6)])
        assert str(info.value).startswith(
            "estimator t3s(alpha=-1e+06) failed on sample with index sets "
            f"{samples[position][0]}: "
        )

    def test_second_estimator_failing_in_a_later_block_is_named(self):
        """12 740 samples in blocks of ``BLOCK`` = 1024: t3s(alpha = -1e6),
        second in ``specs``, first overflows at position 2819, inside the
        third block, after t1s has filled its row of that block."""
        assert verify.BLOCK == 1024
        xa = [1.0, 2.0, 3.0, 4.0, 20.0, 21.0, 22.0, 23.0]
        xb = [5 + u / 100 for u in range(15)]
        pop = make_population(("A", xa, xa, 2), ("B", xb, xb, 3))
        xbar = pop.grand_x_mean

        def fails(y, x):
            try:
                estimate(t3s(-1e6), y, x, xbar)
            except ComputationError:
                return True
            return False

        samples = list(ExactDesignDistribution(pop))
        position = next(i for i, (_, y, x) in enumerate(samples) if fails(y, x))
        assert position == 2819 and samples[position][0] == ((0, 7), (0, 12, 14))
        with pytest.raises(ComputationError) as info:
            exact_bias_mse(pop, [t1s(), t3s(-1e6)])
        assert str(info.value).startswith(
            "estimator t3s(alpha=-1e+06) failed on sample with index sets "
            "((0, 7), (0, 12, 14)): estimator t3s(alpha=-1e+06) overflows"
        )

    @pytest.mark.parametrize("block", [699, 700, 701, 64, 127, 128, 129, 255, 256, 257])
    def test_sums_have_the_bits_of_fsum_over_the_enumeration(self, synthetic, monkeypatch, block):
        """The 700 samples of the bundled population fill one block but one
        sample, exactly one block, one block and one sample, and 11 blocks;
        then blocks of one sample below, at and above
        ``exactsum.KERNEL_MIN_LENGTH`` (128) and 256, each with a shorter
        last block."""
        monkeypatch.setattr(verify, "BLOCK", block)
        specs = [t1s(), t2s(), t3s(-7.5), t4s(2.5), t3s(100.0)]
        ybar, xbar = synthetic.grand_y_mean, synthetic.grand_x_mean
        for spec, (bias_e, mse_e) in zip(specs, exact_bias_mse(synthetic, specs)):
            d = [estimate(spec, y, x, xbar) - ybar for _, y, x in reference_samples(synthetic)]
            assert bias_e.hex() == (math.fsum(d) / 700).hex(), spec
            assert mse_e.hex() == (math.fsum([v * v for v in d]) / 700).hex(), spec

    def test_rows_are_not_folded_once_per_block(self, synthetic, monkeypatch):
        """14 blocks of 50 samples go into one set of bucket sums: each of
        the eight rows is folded at most once per call, not once per block."""
        monkeypatch.setattr(verify, "BLOCK", 50)
        folded = []
        real = exactsum.fold

        def spy(values):
            folded.append(len(values))
            return real(values)

        monkeypatch.setattr(exactsum, "fold", spy)
        specs = [t1s(), t2s(), t3s(-7.5), t4s(2.5)]
        exact_bias_mse(synthetic, specs)
        assert len(folded) <= 2 * len(specs)

    def test_memory_does_not_grow_across_blocks(self, monkeypatch):
        """Ten times the samples, 14 blocks against 140: the peak stays where
        it is.  Keeping every deviation would take about 1 MB more."""
        monkeypatch.setattr(verify, "BLOCK", 50)
        ys = [1.0, 4.0, 2.0, 8.0, 5.0, 7.0, 3.0]
        xs = [2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0]
        strata = [("A", xs[:6], ys[:6], 3), ("B", xs, ys, 3), ("C", xs[:5], ys[:5], 2)]
        specs = [t1s(), t2s(), t3s(0.5), t4s(0.3)]

        def peak(pop):
            exact_bias_mse(pop, specs)
            tracemalloc.start()
            try:
                exact_bias_mse(pop, specs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = make_population(*strata[:2])
        large = make_population(*strata)
        assert ExactDesignDistribution(large).size == 10 * ExactDesignDistribution(small).size
        assert peak(large) < peak(small) + 32 * 1024

    @staticmethod
    def one_large_stratum():
        """One stratum, N = 30 and n = 5: 142 506 samples."""
        xs = [float(1 + 7 * u % 13) for u in range(30)]
        ys = [float(2 + u * u % 17) for u in range(30)]
        pop = make_population(("A", xs, ys, 5))
        assert ExactDesignDistribution(pop).size == 142506
        return pop

    def test_memory_near_one_large_stratum(self):
        """A Python tuple per combination took about 35 MB; two float arrays
        take 2.3 MB."""
        pop = self.one_large_stratum()
        tracemalloc.start()
        try:
            exact_bias_mse(pop, [t1s()])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 1024 * 1024

    def test_iteration_memory_near_one_large_stratum(self):
        """Walking every sample: ``itertools.product`` held each combination
        as a tuple, about 15 MB; the lazy walk holds the two float arrays
        and one block."""
        dist = ExactDesignDistribution(self.one_large_stratum())
        tracemalloc.start()
        try:
            count = sum(1 for _ in dist)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 142506
        assert peak < 4 * 1024 * 1024

    def test_unallocatable_combination_means(self, synthetic, monkeypatch):
        """A MemoryError from a stratum's arrays of combination means is a
        ComputationError naming the stratum and its combination count.  The
        refusal is simulated: a real one may instead page in."""
        def refuse(size, *args, **kwargs):
            raise MemoryError(f"Unable to allocate {8 * size} bytes")

        monkeypatch.setattr(verify.np, "empty", refuse)
        with pytest.raises(
            ComputationError,
            match=r"^stratum 'A': cannot allocate the means of its 20 combinations: Unable",
        ):
            exact_bias_mse(synthetic, [t1s()])

    def test_no_estimators(self, synthetic):
        assert exact_bias_mse(synthetic, []) == []

    def test_squared_deviation_overflow_names_the_estimator(self, synthetic):
        """alpha = 12000: every estimate is finite, but d * d overflows, so
        the folded sum of the squares is not finite."""
        with pytest.raises(ComputationError, match=r"t3s\(alpha=12000\) overflows"):
            exact_bias_mse(synthetic, [t1s(), t3s(12000.0)])


class TestMonteCarlo:
    def test_same_seed_bit_identical(self, synthetic):
        a = monte_carlo(synthetic, [t1s()], replicates=2000, seed=11)
        b = monte_carlo(synthetic, [t1s()], replicates=2000, seed=11)
        assert a == b

    def test_different_seed_differs(self, synthetic):
        a = monte_carlo(synthetic, [t1s()], replicates=2000, seed=11)
        b = monte_carlo(synthetic, [t1s()], replicates=2000, seed=12)
        assert a.mse[0].mean != b.mse[0].mean

    def test_worker_count_does_not_change_bits(self):
        """The worker count is only echoed in the report's config."""
        one = mc_report_without_workers("t2s", replicates=3000, seed=5, workers=1)
        four = mc_report_without_workers("t2s", replicates=3000, seed=5, workers=4)
        assert one == four

    def test_reduction_identity_shares_streams(self, synthetic):
        """The tunable estimator at unit exponent reproduces the ratio type
        replicate for replicate."""
        a = monte_carlo(synthetic, [t1s()], replicates=1500, seed=3)
        b = monte_carlo(synthetic, [t3s(1.0)], replicates=1500, seed=3)
        assert a.bias == b.bias
        assert a.mse == b.mse

    def test_estimates_consistent_with_enumeration(self, synthetic):
        bias_e, mse_e = exact_bias_mse(synthetic, [t1s()])[0]
        mc = monte_carlo(synthetic, [t1s()], replicates=30000, seed=2024)
        assert abs(mc.bias[0].mean - bias_e) <= 3.5 * mc.bias[0].standard_error
        assert abs(mc.mse[0].mean - mse_e) <= 3.5 * mc.mse[0].standard_error
        assert mc.skipped == 0

    def test_standard_error_definition(self, synthetic):
        mc = monte_carlo(synthetic, [t1s()], replicates=500, seed=1)
        assert mc.bias[0].standard_error == pytest.approx(
            math.sqrt(mc.bias[0].variance / mc.bias[0].replicates), rel=1e-15
        )

    def test_skipped_replicates_counted(self):
        """Samples hitting the exponent pole are skipped, not fatal."""
        pop = make_population(("A", [-3, 1, 2, 4], [1, 2, 3, 4], 2))
        mc = monte_carlo(pop, [t1s()], replicates=600, seed=9)
        assert mc.skipped > 0
        assert mc.bias[0].replicates == 600 - mc.skipped
        assert math.isfinite(mc.bias[0].mean)

    def test_sample_draw_is_valid_srswor(self, synthetic):
        for rep in range(50):
            index_sets, _, _ = draw_sample(synthetic, seed=77, rep=rep)
            for idx, stratum in zip(index_sets, synthetic.strata):
                assert len(set(idx)) == stratum.small_n
                assert all(0 <= i < stratum.capital_n for i in idx)

    def test_draws_cover_the_sample_space_uniformly_enough(self):
        """Cheap sanity check on the shuffle: each unit's inclusion
        frequency is near n/N."""
        pop = make_population(("A", [1, 2, 3, 4, 5], [1, 2, 3, 4, 5], 2))
        counts = [0] * 5
        reps = 8000
        for rep in range(reps):
            index_sets, _, _ = draw_sample(pop, seed=123, rep=rep)
            for i in index_sets[0]:
                counts[i] += 1
        for c in counts:
            assert c / reps == pytest.approx(0.4, abs=0.02)

    def test_summary_overflow_names_the_estimator(self, synthetic):
        """alpha = 8000: the variance of the squared deviations leaves the float range."""
        with pytest.raises(ComputationError, match=r"t3s\(alpha=8000\) overflows"):
            monte_carlo(synthetic, [t1s(), t3s(8000.0)], replicates=50, seed=0)

    @pytest.mark.parametrize(
        "population, replicates",
        [("synthetic", 300), ("synthetic", 40), ("degenerate", 600), ("three strata", 260)],
    )
    @pytest.mark.parametrize(
        "specs",
        [
            [t1s()],
            [t2s(), t4s(0.3)],
            [t3s(-2.5), t4s(1.7), t1s()],
            [t4s(0.6), t3s(0.5), t4s(0.6), t2s()],
        ],
        ids=["one", "two", "three", "repeated"],
    )
    def test_bits_of_the_per_replicate_loop(self, synthetic, population, replicates, specs):
        """Every field, and the skipped count, as the per-replicate loop
        written out gives them; 260 and more usable replicates take the
        row sums through the bucket kernel, 40 through ``math.fsum``."""
        pop = {
            "synthetic": synthetic,
            "degenerate": make_population(("A", [-3, 1, 2, 4], [1, 2, 3, 4], 2)),
            "three strata": make_population(
                ("A", [1.5, 2.0, 7.25, 3.0, 9.5], [2.0, 3.5, 8.0, 4.25, 11.0], 2),
                ("B", [4.0, 6.5, 5.0, 8.0], [1.0, 7.5, 4.0, 9.25], 3),
                ("C", [0.5, 1.25, 2.75, 3.5, 6.0, 9.0], [0.75, 2.0, 3.0, 5.5, 5.0, 12.0], 3),
            ),
        }[population]
        mc = monte_carlo(pop, specs, replicates=replicates, seed=31)
        bias, mse, skipped = reference_monte_carlo(pop, specs, replicates, seed=31)
        assert mc.skipped == skipped
        assert (skipped > 0) == (population == "degenerate")
        for got, want in zip(mc.bias + mc.mse, bias + mse, strict=True):
            assert got.replicates == want.replicates and got.seed == want.seed == 31
            for field in ("mean", "variance", "standard_error"):
                assert getattr(got, field).hex() == getattr(want, field).hex(), field

    def test_one_draw_per_replicate_and_no_estimate_on_a_skipped_one(self, monkeypatch):
        """Every replicate is drawn once; each estimator is called once on
        each usable replicate and never on a skipped one."""
        pop = make_population(("A", [-3, 1, 2, 4], [1, 2, 3, 4], 2))
        calls = {"draw_sample": 0, "estimate": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(verify, "draw_sample", counted("draw_sample", verify.draw_sample))
        monkeypatch.setattr(verify, "estimate", counted("estimate", verify.estimate))
        mc = monte_carlo(pop, [t1s(), t4s(0.5)], replicates=200, seed=4)
        assert mc.skipped > 0
        assert calls == {"draw_sample": 200, "estimate": 2 * (200 - mc.skipped)}

    def test_failure_names_the_first_replicate_then_the_first_estimator(self):
        """x = {-3, 1, 2, 4}, Xbar = 1: at seed 22, replicates 0 and 1 hit
        the pole and are skipped; replicate 2 has xbar_st = 1.5, where
        alpha = -2e6 and -1e6 overflow; alpha = 1e6, first in ``specs``,
        first overflows at replicate 4.  Replicate 2 is named, by its
        draw, with t3s(alpha=-2e+06)."""
        pop = make_population(("A", [-3, 1, 2, 4], [1, 2, 3, 4], 2))
        specs = [t3s(1e6), t3s(-2e6), t3s(-1e6)]
        xbar = pop.grand_x_mean
        failures = []
        for r in range(10):
            _, y, x = draw_sample(pop, 22, r)
            if xbar + x == 0.0:
                continue
            for spec in specs:
                try:
                    estimate(spec, y, x, xbar)
                except ComputationError as exc:
                    failures.append((r, spec, str(exc)))
        assert [(r, spec) for r, spec, _ in failures[:3]] == [
            (2, t3s(-2e6)), (2, t3s(-1e6)), (3, t3s(-2e6))
        ]
        assert min(r for r, spec, _ in failures if spec == t3s(1e6)) == 4
        r, spec, message = failures[0]
        with pytest.raises(ComputationError) as info:
            monte_carlo(pop, specs, replicates=10, seed=22)
        assert str(info.value) == (
            f"estimator t3s(alpha=-2e+06) failed on sample with index sets "
            f"{draw_sample(pop, 22, 2)[0]}: {message}"
        )

    def test_seed_must_fit_the_64_bit_key(self, synthetic):
        """2**64 would key Philox like seed 0; it is refused, 2**64 - 1 is not."""
        with pytest.raises(ValueError, match="seed"):
            monte_carlo(synthetic, [t1s()], replicates=2, seed=2**64)
        assert monte_carlo(synthetic, [t1s()], replicates=2, seed=2**64 - 1).skipped == 0

    def test_replicate_floor(self, synthetic):
        with pytest.raises(ValueError):
            monte_carlo(synthetic, [t1s()], replicates=1, seed=0)

    def test_variance_halves_when_replicates_double(self, synthetic):
        """Across 20 fixed seeds, the spread of the MC-MSE estimate shrinks
        by about half when replicates double.  The same seeds are used for
        both sizes, so the longer runs extend the shorter ones and the
        variance ratio concentrates near 2."""
        small = [
            monte_carlo(synthetic, [t1s()], replicates=400, seed=s).mse[0].mean
            for s in range(20)
        ]
        large = [
            monte_carlo(synthetic, [t1s()], replicates=800, seed=s).mse[0].mean
            for s in range(20)
        ]

        def spread(values):
            m = math.fsum(values) / len(values)
            return math.fsum((v - m) ** 2 for v in values) / (len(values) - 1)

        ratio = spread(small) / spread(large)
        assert 1.2 < ratio < 3.5


def dense_draw(pop, seed, rep):
    """The frozen draw rule written out densely: each stratum's full index
    list, partially shuffled by one Philox4x64 (seed, rep) word per step."""
    words = np.random.Philox(key=np.array([seed, rep], dtype=np.uint64)).random_raw(
        sum(s.small_n for s in pop.strata)
    ).tolist()
    cursor = 0
    index_sets = []
    for s in pop.strata:
        idx = list(range(s.capital_n))
        for i in range(s.small_n):
            j = i + words[cursor] % (s.capital_n - i)
            cursor += 1
            idx[i], idx[j] = idx[j], idx[i]
        index_sets.append(tuple(idx[: s.small_n]))
    return tuple(index_sets)


def step_targets(pop, seed, rep):
    """Each stratum's step targets i + word mod (N_h - i), in step order."""
    words = iter(np.random.Philox(key=np.array([seed, rep], dtype=np.uint64)).random_raw(
        sum(s.small_n for s in pop.strata)
    ).tolist())
    return [[i + next(words) % (s.capital_n - i) for i in range(s.small_n)] for s in pop.strata]


def designs():
    """Lists of (N_h, n_h) with 1 <= n_h < N_h."""
    return st.lists(
        st.integers(2, 60).flatmap(lambda cap: st.tuples(st.just(cap), st.integers(1, cap - 1))),
        min_size=1,
        max_size=6,
    )


def population_of(design):
    return make_population(*(
        (f"S{h}", [1.0 + (3 * u) % 7 for u in range(cap)], [2.0 + u * u % 11 for u in range(cap)], n)
        for h, (cap, n) in enumerate(design)
    ))


class TestDrawRule:
    @settings(max_examples=150, deadline=None)
    @given(
        design=designs(),
        seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        rep=st.one_of(st.integers(0, 1000), st.integers(0, 2**64 - 1)),
    )
    @example(design=[(4, 1)], seed=0, rep=0)
    @example(design=[(4, 3)], seed=2**64 - 1, rep=2**64 - 1)
    @example(design=[(4, 1), (4, 3), (5, 2), (60, 59)], seed=0, rep=2**63)
    # nearly every draw of these repeats a target, so the walk is replayed
    @example(design=[(4, 3), (5, 4), (6, 5)], seed=0, rep=0)
    @example(design=[(4, 3), (5, 4), (6, 5)], seed=601, rep=7)
    @example(design=[(2, 1), (3, 2), (60, 59), (4, 3)], seed=2**64 - 1, rep=1)
    def test_matches_the_dense_shuffle(self, design, seed, rep):
        pop = population_of(design)
        index_sets, ybar_st, xbar_st = draw_sample(pop, seed, rep)
        assert index_sets == dense_draw(pop, seed, rep)
        means = [stratum_means(s, idx) for s, idx in zip(pop.strata, index_sets)]
        assert ybar_st == math.fsum(w * yb for w, (yb, _) in zip(pop.weights, means))
        assert xbar_st == math.fsum(w * xb for w, (_, xb) in zip(pop.weights, means))

    def test_golden_index_sets(self, synthetic):
        """The frozen rule's samples of the committed population, literally."""
        assert draw_sample(synthetic, 2024, 0)[0] == ((5, 0, 3), (0, 6, 5))
        assert draw_sample(synthetic, 2024, 1)[0] == ((2, 0, 4), (2, 3, 6))
        assert draw_sample(synthetic, 2024, 2**64 - 1)[0] == ((5, 0, 4), (0, 4, 5))

    def test_memory_does_not_grow_with_stratum_size(self):
        """One draw of n_h = 5 from N_h = 10**6 units allocates O(n_h), not the
        ~40 MB a dense index list would.  Allocation sizes are deterministic."""
        cap = 10**6
        pop = make_population(("A", np.ones(cap), np.arange(cap, dtype=np.float64), 5))
        draw_sample(pop, 3, 0)
        tracemalloc.start()
        try:
            draw_sample(pop, 3, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_memory_does_not_grow_with_the_population_size(self):
        """A population's first draw builds its step table: four strata of
        N_h = 250 000 still allocate O(sum of n_h), not the ~8 MB an
        O(sum of N_h) table would."""
        cap = 250_000
        pop = make_population(*(
            (f"S{h}", np.ones(cap), np.arange(cap, dtype=np.float64), 5) for h in range(4)
        ))
        draw_sample(population_of([(10, 5)] * 4), 3, 0)  # NumPy's own first-use allocations
        tracemalloc.start()
        try:
            draw_sample(pop, 3, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "draw_steps" in vars(pop)
        assert peak < 64 * 1024

    @pytest.mark.parametrize("seed", [0, 601, 2**64 - 1])
    def test_many_large_strata(self, seed):
        """Eight strata of N_h = 1000 and n_h = 50."""
        pop = population_of([(1000, 50)] * 8)
        for rep in range(40):
            assert draw_sample(pop, seed, rep)[0] == dense_draw(pop, seed, rep)

    def test_only_some_strata_repeat_a_target(self):
        """Strata that repeat a target (replayed) and strata that do not
        (their targets taken as they are) in one draw."""
        design = [(1000, 3), (5, 4), (100_000, 2), (6, 5), (50, 2)]
        pop = population_of(design)
        mixed = 0
        for rep in range(200):
            repeats = [len(set(t)) < len(t) for t in step_targets(pop, 5, rep)]
            mixed += any(repeats) and not all(repeats)
            assert draw_sample(pop, 5, rep)[0] == dense_draw(pop, 5, rep)
        assert mixed >= 100

    def test_step_table_is_built_once_and_read_only(self, monkeypatch):
        pop = population_of([(7, 3), (1000, 50), (2, 1)])
        builds = []
        build = StratifiedPopulation.draw_steps.func
        monkeypatch.setattr(
            StratifiedPopulation.draw_steps, "func", lambda p: builds.append(p) or build(p)
        )
        first = [draw_sample(pop, 9, rep) for rep in range(5)]
        assert builds == [pop]
        steps = pop.draw_steps
        assert [draw_sample(pop, 9, rep) for rep in range(5)] == first
        assert pop.draw_steps is steps and builds == [pop]
        assert steps.divisors.tolist() == [7, 6, 5, *range(1000, 950, -1), 2]
        assert steps.offsets.tolist() == [0, 1, 2, *range(50), 0]
        assert steps.bases.tolist() == [0] * 3 + [7] * 50 + [1007]
        assert steps.stratum_bases.tolist() == [0, 7, 1007]
        assert steps.bounds == (0, 3, 53, 54)
        for a in (steps.divisors, steps.offsets, steps.bases, steps.stratum_bases):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1

    def test_threads_sharing_a_population_draw_the_serial_samples(self):
        """Each call keys its own generator, so four threads drawing from
        one population (and building its step table at once) draw what one
        thread would."""
        design = [(1000, 20), (6, 5), (3000, 40), (40, 30)]
        serial = [draw_sample(population_of(design), 17, rep) for rep in range(200)]
        pop = population_of(design)
        threads = 4
        barrier = threading.Barrier(threads)

        def draw_all(_):
            barrier.wait(timeout=60)
            return [draw_sample(pop, 17, rep) for rep in range(200)]

        # switch threads as often as the interpreter allows, so that a draw
        # sharing state across calls would interleave
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(threads) as pool:
                drawn = list(pool.map(draw_all, range(threads), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert drawn == [serial] * threads


    def test_two_threads_interleaving_replicates_draw_what_a_fresh_generator_does(self):
        """Each thread's generator is reset to a fresh ``Philox(key=[seed,
        rep])`` for every draw: two threads draw the even and the odd
        replicates at once, and every draw is the dense shuffle of a fresh
        generator, with its stratum means."""
        pop = population_of([(1000, 20), (6, 5), (3000, 40), (40, 30), (2, 1)])
        barrier = threading.Barrier(2)

        def draw_all(first):
            barrier.wait(timeout=60)
            return {rep: draw_sample(pop, 23, rep) for rep in range(first, 300, 2)}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                parts = list(pool.map(draw_all, (0, 1), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        drawn = {**parts[0], **parts[1]}
        assert sorted(drawn) == list(range(300))
        for rep, (index_sets, ybar_st, xbar_st) in drawn.items():
            assert index_sets == dense_draw(pop, 23, rep)
            means = [stratum_means(s, idx) for s, idx in zip(pop.strata, index_sets)]
            assert ybar_st == math.fsum(w * yb for w, (yb, _) in zip(pop.weights, means))
            assert xbar_st == math.fsum(w * xb for w, (_, xb) in zip(pop.weights, means))

    def test_the_generator_is_reset_to_a_fresh_ones_state(self):
        """After a draw of seven words, which leaves the generator part-way
        through a block of four, the reset state is a fresh generator's."""
        pop = population_of([(50, 7)])
        for seed, rep in [(0, 0), (5, 2**64 - 1), (2**64 - 1, 3)]:
            draw_sample(pop, 99, 1)
            want = np.random.Philox(key=np.array([seed, rep], dtype=np.uint64)).state
            assert repr(verify._philox(seed, rep).state) == repr(want)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_padded_means_are_each_stratums_means(self, monkeypatch, seed):
        """The one zero-padded (2, strata, max n_h) array of a draw gives,
        bit for bit, each stratum's left-to-right means: with n_h = 1,
        unequal n_h, and an all -0.0 y column in the widest stratum, which
        no padding follows and whose mean is 0.0."""
        pop = make_population(
            ("one", [1.5, 2.5, 3.5], [-1.25, 7.0, 0.1], 1),
            ("wide", [float(u) for u in range(20)], [-0.0] * 20, 9),
            ("mid", [0.3 * u for u in range(10)], [1e-3 * u - 0.004 for u in range(10)], 4),
        )
        padded = []
        real = verify._means

        def spy(values, n):
            means = real(values, n)
            padded.append(means.copy())
            return means

        monkeypatch.setattr(verify, "_means", spy)
        for rep in range(50):
            index_sets = draw_sample(pop, seed, rep)[0]
            (got,) = padded
            padded.clear()
            for s, idx, ybar, xbar in zip(pop.strata, index_sets, *got):
                ys, xs = s.y.tolist(), s.x.tolist()
                want_y = (reduce(operator.add, [ys[i] for i in idx]) + 0.0) / s.small_n
                want_x = (reduce(operator.add, [xs[i] for i in idx]) + 0.0) / s.small_n
                assert (ybar.hex(), xbar.hex()) == (want_y.hex(), want_x.hex())
            assert got[0][1].hex() == "0x0.0p+0"


class TestDrawKey:
    """seed and rep are the two 64-bit words of the Philox key."""

    @pytest.mark.parametrize("bad", [1.5, True, "1", None, np.float64(1.0)])
    def test_a_non_integer_is_a_type_error(self, synthetic, bad):
        with pytest.raises(TypeError, match="seed must be an integer"):
            draw_sample(synthetic, bad, 0)
        with pytest.raises(TypeError, match="rep must be an integer"):
            draw_sample(synthetic, 0, bad)
        with pytest.raises(TypeError, match="seed must be an integer"):
            monte_carlo(synthetic, [t1s()], replicates=2, seed=bad)

    @pytest.mark.parametrize("bad", [-1, 2**64, -(2**64)])
    def test_a_word_outside_64_bits_is_a_value_error(self, synthetic, bad):
        with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\*\*64\), got "):
            draw_sample(synthetic, bad, 0)
        with pytest.raises(ValueError, match=r"^rep must be in \[0, 2\*\*64\), got "):
            draw_sample(synthetic, 0, bad)
        with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\*\*64\), got "):
            monte_carlo(synthetic, [t1s()], replicates=2, seed=bad)

    def test_integer_types_key_as_their_value(self, synthetic):
        assert draw_sample(synthetic, np.uint64(2**64 - 1), np.int8(3)) == draw_sample(
            synthetic, 2**64 - 1, 3
        )
        mc = monte_carlo(synthetic, [t1s()], replicates=20, seed=np.int32(4))
        assert mc == monte_carlo(synthetic, [t1s()], replicates=20, seed=4)
        assert type(mc.bias[0].seed) is int
