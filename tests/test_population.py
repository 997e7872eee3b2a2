"""Population loading, validation, and per-stratum summaries."""

import io
import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratexp import exactsum
from stratexp.errors import ComputationError, DegenerateAuxiliaryError, PopulationError
from stratexp.estimators import EstimatorKind
from stratexp.moments import VTABLE_KEYS, summarize_stratum, v_table
from stratexp.optimize import optimize_spec
from stratexp.population import (
    StratifiedPopulation,
    StratumPopulation,
    load_population,
    load_population_file,
)

from helpers import make_population


PLAIN_CSV = "stratum,x,y\nA,1.5,2\nA,2.25,4\nA,3,6\nB,4,1\nB,5,2\nB,6,3.5\n"


def load_csv(text: str, design: dict[str, int]) -> StratifiedPopulation:
    return load_population(io.StringIO(text), design)


class TestLoadPopulation:
    def test_single_stratum_means(self):
        """Rows x={1,2,3}, y={2,4,6}, n=2: X̄=2, Ȳ=4, N=3."""
        pop = load_csv("stratum,x,y\nA,1,2\nA,2,4\nA,3,6\n", {"A": 2})
        (s,) = pop.strata
        assert s.capital_n == 3
        assert s.x_mean == pytest.approx(2.0)
        assert s.y_mean == pytest.approx(4.0)
        assert s.small_n == 2

    def test_equal_sizes_give_equal_weights(self):
        pop = load_csv(
            "stratum,x,y\nA,1,2\nA,2,4\nA,3,6\nB,4,1\nB,5,2\nB,6,3\n",
            {"A": 2, "B": 2},
        )
        assert pop.weights == (0.5, 0.5)

    def test_malformed_row_names_line(self):
        with pytest.raises(PopulationError, match="line 2"):
            load_csv("stratum,x,y\nA,1,abc\n", {"A": 1})

    def test_wrong_field_count_names_line(self):
        with pytest.raises(PopulationError, match="line 3"):
            load_csv("stratum,x,y\nA,1,2\nA,3\nA,4,5\n", {"A": 1})

    def test_row_error_names_the_physical_line(self):
        """A quoted label with an embedded newline spans lines 2-3, so the
        bad row that follows is on line 4."""
        with pytest.raises(PopulationError, match="^line 4: cannot parse x='zz'"):
            load_csv('stratum,x,y\n"A\nB",1,2\nA,zz,3\n', {"A": 1, "A\nB": 1})

    def test_empty_stream(self):
        with pytest.raises(PopulationError, match="empty"):
            load_csv("", {})

    def test_header_required(self):
        with pytest.raises(PopulationError, match="header"):
            load_csv("a,b,c\nA,1,2\n", {"A": 1})

    def test_no_data_rows(self):
        with pytest.raises(PopulationError, match="no data rows"):
            load_csv("stratum,x,y\n", {})

    def test_unknown_stratum_in_design(self):
        with pytest.raises(PopulationError, match="unknown strata.*'B'"):
            load_csv("stratum,x,y\nA,1,2\nA,2,3\n", {"A": 1, "B": 1})

    def test_missing_design_entry(self):
        with pytest.raises(PopulationError, match="missing sample sizes.*'A'"):
            load_csv("stratum,x,y\nA,1,2\nA,2,3\n", {})

    def test_sample_size_must_be_below_population_size(self):
        with pytest.raises(
            PopulationError, match="stratum 'A': sample size n=2 must satisfy 1 <= n < N=2"
        ):
            load_csv("stratum,x,y\nA,1,2\nA,2,3\n", {"A": 2})

    def test_unit_order_preserved(self):
        pop = load_csv("stratum,x,y\nA,9,1\nA,1,2\nA,5,3\nA,2,4\n", {"A": 2})
        assert tuple(pop.strata[0].x.tolist()) == (9.0, 1.0, 5.0, 2.0)

    def test_blank_lines_skipped(self):
        pop = load_csv("stratum,x,y\nA,1,2\n\nA,2,4\nA,3,6\n", {"A": 1})
        assert pop.strata[0].capital_n == 3

    @pytest.mark.parametrize(
        "data",
        [
            ("\ufeff" + PLAIN_CSV).encode("utf-8"),
            PLAIN_CSV.replace("\n", "\r\n").encode("utf-8"),
            PLAIN_CSV.replace("A,", '"A",').replace(",2.25,", ',"2.25",').encode("utf-8"),
        ],
        ids=["bom", "crlf", "quoted"],
    )
    def test_file_encodings_load_same_columns(self, tmp_path, data):
        design = {"A": 2, "B": 2}
        plain = tmp_path / "plain.csv"
        plain.write_bytes(PLAIN_CSV.encode("utf-8"))
        odd = tmp_path / "odd.csv"
        odd.write_bytes(data)

        def columns(path):
            pop = load_population_file(str(path), design)
            return [(s.id, s.x.tolist(), s.y.tolist(), s.small_n) for s in pop.strata]

        assert columns(odd) == columns(plain)

    def test_positive_auxiliary_guard(self):
        pop = load_csv("stratum,x,y\nA,1,2\nA,-2,4\nA,3,6\n", {"A": 1})
        with pytest.raises(PopulationError, match="x <= 0"):
            pop.require_positive_auxiliary()


class TestValidation:
    def test_stratum_needs_units(self):
        with pytest.raises(PopulationError):
            StratumPopulation(id="A", x=(), y=(), small_n=1)

    def test_sample_size_bounds(self):
        xs, ys = (1.0, 3.0), (2.0, 4.0)
        with pytest.raises(PopulationError):
            StratumPopulation(id="A", x=xs, y=ys, small_n=0)
        with pytest.raises(PopulationError):
            StratumPopulation(id="A", x=xs, y=ys, small_n=2)

    @pytest.mark.parametrize("small_n", [2.0, True, "2", np.float64(1.0)])
    def test_sample_size_must_be_an_integer(self, small_n):
        """A float, a bool or a string fails here, naming the stratum,
        instead of later as a TypeError in the oracles."""
        with pytest.raises(
            PopulationError, match="stratum 'A': sample size must be an integer, got"
        ):
            StratumPopulation(id="A", x=(1.0, 3.0, 5.0), y=(2.0, 4.0, 6.0), small_n=small_n)
        with pytest.raises(
            PopulationError, match="stratum 'A': sample size must be an integer, got"
        ):
            load_csv("stratum,x,y\nA,1,2\nA,3,4\nA,5,6\n", {"A": small_n})

    def test_integer_sample_size_is_stored_as_int(self):
        s = StratumPopulation(id="A", x=(1.0, 3.0, 5.0), y=(2.0, 4.0, 6.0), small_n=np.int64(2))
        assert type(s.small_n) is int and s.small_n == 2

    def test_duplicate_labels_rejected(self):
        s = StratumPopulation(id="A", x=(1.0, 3.0), y=(2.0, 4.0), small_n=1)
        with pytest.raises(PopulationError, match="duplicate"):
            StratifiedPopulation(strata=(s, s))

    def test_nonfinite_rejected(self):
        with pytest.raises(PopulationError):
            StratumPopulation(
                id="A", x=(1.0, 3.0), y=(math.inf, 4.0), small_n=1
            )

    def test_overflowing_deviation_read_directly_is_a_typed_error(self):
        """A stratum read outside a population raises, with no NumPy warning
        first (the test settings turn a RuntimeWarning into an error)."""
        s = StratumPopulation(
            "A", [1, 2, 3, 4, 5], [1.7e308, -1.7e308, 1.7e308, -1.7e308, 1.7e308], 2
        )
        with pytest.raises(
            ComputationError, match="stratum 'A': column y deviates from its mean beyond"
        ):
            s.y_mean

    @pytest.mark.parametrize("length", [3, 300])
    def test_a_deviation_in_range_past_the_magnitude_bound(self, length):
        """y = (M, 0, ..., 0), M the largest float: M + |mean| is past the
        float range, so the column's maximum and minimum are read, and the
        largest deviation, M - M / N, is in it.  Short and long columns."""
        top = sys.float_info.max
        s = StratumPopulation("A", range(length), [top] + [0.0] * (length - 1), 2)
        assert not math.isfinite(top + top / length)
        assert (s.y_mean, s.x_mean) == (top / length, (length - 1) / 2)


class TestSummaries:
    def test_variance_both_divisors(self):
        """y = {2,4,6,4}: C20 = 8/4 = 2 (divisor N), and V20 = gamma S² / Ȳ²
        with S² = 8/3 (divisor N-1), gamma = (1 - 2/4)/2 = 1/4 and Ȳ = 4."""
        pop = make_population(("A", [1, 2, 3, 4], [2, 4, 6, 4], 2))
        assert summarize_stratum(pop.strata[0])[(2, 0)] == pytest.approx(2.0, rel=1e-15)
        assert v_table(pop)[(2, 0)] == pytest.approx(1.0 / 24.0, rel=1e-15)

    def test_covariance_moment(self):
        """x={1,2,3}, y={2,4,6}: C11 = mean of dy*dx = (2*1+0+2*1)/3 = 4/3."""
        pop = make_population(("A", [1, 2, 3], [2, 4, 6], 2))
        c = summarize_stratum(pop.strata[0])
        assert c[(1, 1)] == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_returns_exactly_the_table_moments(self):
        """The ten C_ab the V-table reads, in its key order, and nothing else."""
        pop = make_population(("A", [1.5, 2.25, 7.0, 3.5], [2.0, 9.5, 4.0, 1.0], 2))
        c = summarize_stratum(pop.strata[0])
        assert type(c) is dict
        assert tuple(c) == VTABLE_KEYS

    def test_cauchy_schwarz(self):
        pop = make_population(("A", [1, 5, 2, 8, 3], [4, 1, 9, 2, 7], 2))
        c = summarize_stratum(pop.strata[0])
        assert c[(1, 1)] ** 2 <= c[(2, 0)] * c[(0, 2)] * (1 + 1e-12)

    def test_matches_exact_rational_moments(self):
        """Every C_ab against exact rational arithmetic on the same floats.

        The bound, 1e-12 of the mean of |dy|^a |dx|^b, is a few thousand
        float64 epsilons: room for ulp-level errors in the mean and in each
        product, none for a wrong term."""
        rng = np.random.default_rng(7)
        xs = rng.uniform(1.0, 10.0, 64).tolist()
        ys = [2.0 * x + e for x, e in zip(xs, rng.normal(0.0, 3.0, 64).tolist())]
        stratum = make_population(("A", xs, ys, 2)).strata[0]
        fx = [Fraction(x) for x in xs]
        fy = [Fraction(y) for y in ys]
        mx, my = sum(fx) / 64, sum(fy) / 64
        assert stratum.x_mean == pytest.approx(float(mx), rel=1e-15)
        assert stratum.y_mean == pytest.approx(float(my), rel=1e-15)
        for (a, b), value in summarize_stratum(stratum).items():
            exact = sum((y - my) ** a * (x - mx) ** b for x, y in zip(fx, fy)) / 64
            scale = sum(abs(y - my) ** a * abs(x - mx) ** b for x, y in zip(fx, fy)) / 64
            assert abs(value - float(exact)) <= 1e-12 * float(scale), (a, b)


    @pytest.mark.parametrize("size", [256, 3000])
    def test_bucket_kernel_and_fsum_give_the_same_bits(self, size):
        """A stratum long enough for the certified filter, and the bucket
        kernel behind it, has the means and moments that math.fsum of every
        column gives."""
        rng = np.random.default_rng(size)
        xs = rng.lognormal(1.0, 0.5, size)
        ys = 3.0 * xs + rng.normal(0.0, 1.0, size)
        stratum = make_population(("A", xs, ys, 2)).strata[0]
        with mock.patch.object(exactsum, "KERNEL_MIN_LENGTH", size + 1):
            by_fsum = make_population(("A", xs, ys, 2)).strata[0]
            fsum_moments = summarize_stratum(by_fsum)
            fsum_means = (by_fsum.x_mean, by_fsum.y_mean)
        assert (stratum.x_mean, stratum.y_mean) == fsum_means
        assert summarize_stratum(stratum) == fsum_moments


def exact_mean(values) -> Fraction:
    return sum(map(Fraction, values)) / len(values)


class TestMeans:
    """A stratum mean is the exact mean correctly rounded: the exact column
    sum as one integer over a power of two, divided by N with Python's
    correctly rounded ``int / int``."""

    def test_near_cancelling_column(self):
        """The exact mean of these five values is 1e-99.  Rounding each
        deviation ``y - m`` first gave 1.8e-99."""
        ys = [-30000.0, -30000.0, -30000.0, 90000.0, 5e-99]
        stratum = StratumPopulation("A", [1, 2, 3, 4, 5], ys, 2)
        assert stratum.y_mean == float(exact_mean(ys)) == 1e-99

    @pytest.mark.parametrize("size", [7, 40, 300])
    def test_seeded_columns_are_correctly_rounded(self, size):
        """On columns of one scale, cancelling columns and 6-decimal data,
        the mean is the exact mean correctly rounded, for the fsum path and
        the bucket kernel alike."""
        rng = np.random.default_rng(size)
        for trial in range(300):
            kind = trial % 3
            if kind == 0:
                ys = rng.normal(size=size) * 10.0 ** int(rng.integers(-30, 30))
            elif kind == 1:
                half = rng.normal(size=size // 2) * 1e4
                ys = np.concatenate((half, -half, rng.normal(size=size % 2 + 1) * 1e-99))
            else:
                ys = np.round(rng.uniform(0.0, 100.0, size), 6)
            stratum = StratumPopulation("A", np.ones(ys.size), ys, 1)
            assert stratum.y_mean == float(exact_mean(ys.tolist())), (kind, ys.tolist())

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=30),
        st.sampled_from([1, 10, 100]),
    )
    def test_within_one_ulp_of_the_exact_mean(self, ys, copies):
        """The exact mean correctly rounded (so within half an ulp) for any
        column, short or long enough for the bucket kernel."""
        ys = ys * copies
        stratum = StratumPopulation("A", np.ones(len(ys)), ys, 1)
        assert stratum.y_mean == float(exact_mean(ys))


class TestConstantColumns:
    """A constant column has exactly zero deviations, so nothing that
    involves it may come out as rounding noise."""

    def test_constant_x_is_exactly_degenerate(self):
        pop = make_population(
            ("A", [0.1] * 4, [1.0, 2.5, 4.0, 3.0], 2),
            ("B", [0.1] * 6, [2.0, 7.0, 1.5, 3.25, 9.0, 4.0], 2),
        )
        for s in pop.strata:
            assert s.x_mean == 0.1
            for (a, b), value in summarize_stratum(s).items():
                if b >= 1:
                    assert value == 0.0, (s.id, a, b)
        v = v_table(pop)
        assert v[(0, 2)] == 0.0
        assert v[(1, 1)] == 0.0
        assert v[(1, 2)] == 0.0
        with pytest.raises(DegenerateAuxiliaryError, match="V02 = 0"):
            optimize_spec(EstimatorKind.T3S, v, 1)

    def test_constant_x_scale_equivariance(self):
        """The scale-equivariance property, unchanged, at a constant column."""
        TestInvariants.test_scale_equivariance.hypothesis.inner_test(
            TestInvariants(), c=3.0, xs=[2.2] * 5
        )


class TestInvariants:
    def test_weighted_mean_reconstruction(self, synthetic):
        """Σ W_h Ȳ_h equals the pooled mean of y over all units."""
        pooled = math.fsum(
            y for s in synthetic.strata for y in s.y.tolist()
        ) / synthetic.total_n
        assert synthetic.grand_y_mean == pytest.approx(pooled, rel=1e-12)

    def test_weights_sum_to_one(self, synthetic):
        assert math.fsum(synthetic.weights) == pytest.approx(1.0, rel=1e-15)

    @given(
        c=st.floats(min_value=0.01, max_value=100.0),
        xs=st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_equivariance(self, c, xs):
        """Scaling x by c scales X̄_h by c and C_ab by c^b.

        The identity is exact in real arithmetic; in floats the error is
        bounded by ulps of the largest summand, so the tolerance scales
        with the deviation spread rather than the (possibly cancelled)
        result."""
        ys = [i * 1.0 for i in range(len(xs))]
        base = make_population(("A", xs, ys, 2))
        scaled = make_population(("A", [c * x for x in xs], ys, 2))
        s0, s1 = base.strata[0], scaled.strata[0]
        c1 = summarize_stratum(s1)
        assert s1.x_mean == pytest.approx(c * s0.x_mean, rel=1e-9, abs=1e-12)
        sx = max(abs(x - s0.x_mean) for x in xs)
        sy = max(abs(y - s0.y_mean) for y in ys)
        for (a, b), value in summarize_stratum(s0).items():
            term_scale = (sy**a) * (c * sx) ** b
            assert c1[(a, b)] == pytest.approx(
                value * c**b, rel=1e-9, abs=1e-9 * term_scale + 1e-15
            )

    @given(perm=st.permutations(range(5)))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, perm):
        xs = [2.0, 4.5, 1.0, 7.25, 3.0]
        ys = [1.0, 9.0, 2.5, 4.0, 6.5]
        base = make_population(("A", xs, ys, 2)).strata[0]
        shuf = make_population(
            ("A", [xs[i] for i in perm], [ys[i] for i in perm], 2)
        ).strata[0]
        assert shuf.x_mean == pytest.approx(base.x_mean, rel=1e-12)
        shuf_moments = summarize_stratum(shuf)
        for key, value in summarize_stratum(base).items():
            assert shuf_moments[key] == pytest.approx(
                value, rel=1e-9, abs=1e-12
            )
