"""The exact row-sum kernel gives the bits of ``math.fsum``."""

import math
import sys
from fractions import Fraction
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stratexp import exactsum
from stratexp.exactsum import (
    KERNEL_MIN_LENGTH,
    block_sums,
    exact_parts,
    fold,
    fsum,
    quotient,
    row_means,
    row_sums,
)

from helpers import sign_keeping_fsum


def exact_sum(values) -> Fraction:
    return sum(map(Fraction, values), Fraction(0))


_TOP = sys.float_info.max
# the least exact sum that rounds to inf: the largest float plus half an ulp
_ROUNDS_TO_INF = Fraction(2**1024 - 2**970)


def reference(row: np.ndarray) -> float:
    """``math.fsum`` of the row; ``inf`` for ``inf - inf``.  Where it
    overflows midway, the value of the non-finite entries if there are any,
    else the exact sum correctly rounded, or ``inf`` of its sign."""
    values = row.tolist()
    try:
        return math.fsum(values)
    except ValueError:
        return math.inf
    except OverflowError:
        pass
    special = [x for x in values if not math.isfinite(x)]
    if special:
        return reference(np.array(special))
    total = exact_sum(values)
    if abs(total) >= _ROUNDS_TO_INF:
        return math.inf if total > 0 else -math.inf
    return total.numerator / total.denominator


_fsum = math.fsum


def same_bits(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return got.hex() == want.hex()


def check(block: np.ndarray) -> None:
    got = row_sums(block)
    assert len(got) == len(block)
    for row, value in zip(block, got):
        assert same_bits(value, reference(row)), (value, reference(row))


# both sides of the cutoff; 255 is the shortest row whose filter sigma
# needs 2**9 >= n + 2
LENGTHS = [KERNEL_MIN_LENGTH - 1, KERNEL_MIN_LENGTH, KERNEL_MIN_LENGTH + 1, 255, 256, 257, 1000]

wide_floats = st.floats(allow_nan=False, allow_infinity=False)
any_floats = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def blocks(draw, elements, lengths=st.sampled_from(LENGTHS)):
    rows = draw(st.integers(1, 4))
    length = draw(lengths)
    return draw(arrays(np.float64, (rows, length), elements=elements, fill=elements))


class TestKernelMatchesFsum:
    @settings(max_examples=60, deadline=None)
    @given(blocks(wide_floats))
    def test_finite_rows_on_both_sides_of_the_cutoff(self, block):
        check(block)

    @settings(max_examples=60, deadline=None)
    @given(blocks(any_floats))
    def test_rows_with_inf_and_nan(self, block):
        check(block)

    @settings(max_examples=60, deadline=None)
    @given(
        blocks(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.0, -1.0]),
        )
    )
    def test_zeros_and_subnormals(self, block):
        check(block)

    @settings(max_examples=60, deadline=None)
    @given(blocks(st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 1.0, 2.0**960, -(2.0**959)])))
    def test_mixes_near_the_top_of_the_range(self, block):
        check(block)

    @settings(max_examples=100, deadline=None)
    @given(blocks(wide_floats, lengths=st.integers(1, 40)))
    def test_kernel_on_short_rows(self, block):
        """With the cutoff lowered, every row goes through the kernel."""
        with mock.patch.object(exactsum, "KERNEL_MIN_LENGTH", 1):
            check(block)

    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("value", [0.0, -0.0])
    def test_signed_zero_rows(self, length, value):
        """An all -0.0 row takes math.fsum's own sign rule, whatever the
        Python version."""
        block = np.full((2, length), value)
        block[1, ::2] = -value
        check(block)

    def test_zero_sums_follow_fsums_sign_rule(self):
        """Were math.fsum to keep the sign of an all -0.0 input, the kernel
        would follow it: a zero sum is read off the row, not the buckets."""
        block = np.full((2, 300), -0.0)
        block[1, 0] = 0.0
        with mock.patch.object(exactsum.math, "fsum", sign_keeping_fsum):
            assert [v.hex() for v in row_sums(block)] == ["-0x0.0p+0", "0x0.0p+0"]

    @pytest.mark.parametrize("length", LENGTHS)
    def test_cancelling_rows(self, length):
        rng = np.random.default_rng(length)
        half = rng.normal(size=length // 2) * 10.0 ** rng.integers(-200, 200, size=length // 2)
        row = np.concatenate((half, -half[::-1], [1e-300] * (length % 2)))
        check(np.stack((row, rng.permutation(row))))

    @pytest.mark.parametrize("length", LENGTHS)
    def test_random_scales(self, length):
        rng = np.random.default_rng(7 + length)
        block = rng.normal(size=(6, length)) * 10.0 ** rng.integers(-300, 300, size=(6, length))
        block[1] = np.round(block[1], 3)
        block[2, 5] = math.inf
        block[3, 7] = math.nan
        block[4, :3] = (1e308, 1e308, -1e308)
        check(block)


class TestExactParts:
    def test_parts_sum_exactly_to_the_row(self):
        rng = np.random.default_rng(3)
        block = rng.normal(size=(3, 700)) * 10.0 ** rng.integers(-20, 20, size=(3, 700))
        for row, parts in zip(block, exact_parts(block)):
            assert len(parts) < len(row)  # bucket values, not the row
            assert sum(map(Fraction, parts)) == sum(map(Fraction, row.tolist()))

    @pytest.mark.parametrize("mixed", [False, True])
    def test_zero_rows_come_back_as_their_entries(self, mixed):
        """A kernel row of zeros has all-zero bucket parts, which carry no
        -0.0; the row's own entries keep the sign for ``math.fsum``."""
        row = np.full(KERNEL_MIN_LENGTH, -0.0)
        if mixed:
            row[1::3] = 0.0
        (parts,) = exact_parts(row[None, :])
        assert [v.hex() for v in parts] == [v.hex() for v in row.tolist()]

    def test_sequence_of_columns(self):
        rng = np.random.default_rng(4)
        cols = [rng.normal(size=500), rng.normal(size=500)]
        assert row_sums(cols) == row_sums(np.stack(cols)) == [math.fsum(c) for c in cols]


@st.composite
def block_lists(draw, elements):
    """1-5 blocks of the same number of rows, each block of its own length
    on either side of ``KERNEL_MIN_LENGTH``; the rows are drawn, or all
    -0.0, or each block's row has a second half that negates its first, so
    its nonzero entries cancel to zero."""
    rows, count = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["drawn", "negative zeros", "cancelling"]))
    out = []
    for _ in range(count):
        shape = (rows, draw(st.sampled_from(LENGTHS)))
        if kind == "negative zeros":
            out.append(np.full(shape, -0.0))
            continue
        block = draw(arrays(np.float64, shape, elements=elements))
        if kind == "cancelling":
            half = shape[1] // 2
            block[:, shape[1] - half :] = -block[:, :half]
            block[:, half : shape[1] - half] = -0.0  # the middle entry of an odd row
        out.append(block)
    return out


@st.composite
def shifting_block_lists(draw):
    """2-6 blocks of four rows, each block of its own length.  Each block's
    drawn entries are scaled by its own power of two, so the exponents move
    up and down from block to block.  Row 2 gets an entry that is not
    finite, and row 3 one of 2**960 or more, each only in a later block."""
    count = draw(st.integers(2, 6))
    late = draw(st.integers(1, count - 1)), draw(st.integers(1, count - 1))
    entries = st.one_of(st.floats(-1e6, 1e6), st.integers(-(2**60), 2**60).map(float))
    out = []
    for b in range(count):
        length = draw(st.sampled_from(LENGTHS))
        block = draw(arrays(np.float64, (4, length), elements=entries, fill=entries))
        block *= 2.0 ** draw(st.integers(-900, 900))
        for row, specials in zip((2, 3), ([math.inf, -math.inf, math.nan], [2.0**960, -(2.0**1000), _TOP])):
            if b == late[row - 2]:
                block[row, draw(st.integers(0, length - 1))] = draw(st.sampled_from(specials))
        out.append(block)
    return out


class TestBlockSums:
    @pytest.mark.parametrize("keep_sign", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(block_lists(wide_floats))
    def test_bits_of_fsum_over_the_concatenated_rows(self, keep_sign, blocks):
        """Also with ``math.fsum`` patched to keep the sign of an all -0.0
        input, which ``reference`` then uses too."""
        with mock.patch.object(exactsum.math, "fsum", sign_keeping_fsum if keep_sign else _fsum):
            got = block_sums(iter(blocks))
            want = [reference(row) for row in np.concatenate(blocks, axis=1)]
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("keep_sign", [False, True])
    @pytest.mark.parametrize("limit", [2**26, 300])
    @settings(max_examples=60, deadline=None)
    @given(blocks=st.one_of(shifting_block_lists(), block_lists(wide_floats)))
    def test_a_moving_window_and_cleared_buckets(self, keep_sign, limit, blocks):
        """The exponent window grows both ways, rows turn non-finite or
        reach the top of the range in a later block, and with a term limit
        of 300 the buckets are cleared between blocks and a block of 1000
        is folded; every row keeps the bits of ``fsum``, and no bucket
        holds more terms than the limit."""
        add = exactsum._Buckets.add

        def add_within_the_limit(buckets, rows):
            add(buckets, rows)
            assert buckets.terms <= limit

        with (
            mock.patch.object(exactsum.math, "fsum", sign_keeping_fsum if keep_sign else _fsum),
            mock.patch.object(exactsum, "_KERNEL_MAX_LENGTH", limit),
            mock.patch.object(exactsum._Buckets, "add", add_within_the_limit),
        ):
            got = block_sums(iter(blocks))
            want = [reference(row) for row in np.concatenate(blocks, axis=1)]
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_no_blocks_and_no_rows(self):
        assert block_sums([]) == block_sums([np.empty((0, 300))]) == []

    @pytest.mark.parametrize("keep_sign", [False, True])
    def test_empty_rows_sum_to_fsum_of_nothing(self, keep_sign):
        """Rows with no entries have no -0.0 to keep: their sum is
        ``fsum([])``, +0.0, under either sign rule."""
        with mock.patch.object(exactsum.math, "fsum", sign_keeping_fsum if keep_sign else _fsum):
            got = block_sums([np.empty((2, 0)), np.empty((2, 0))])
        assert [v.hex() for v in got] == [(0.0).hex()] * 2


class TestFold:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300), max_size=60))
    def test_parts_sum_exactly_to_the_values(self, values):
        parts = fold(values)
        assert parts[-1] == 0.0
        assert exact_sum(parts) == exact_sum(values)
        assert math.fsum(parts).hex() == math.fsum(values).hex()

    def test_a_running_fold_stays_exact_and_short(self):
        rng = np.random.default_rng(5)
        values = (rng.normal(size=5000) * 10.0 ** rng.integers(-30, 30, 5000)).tolist()
        parts = []
        for start in range(0, len(values), 100):
            parts = fold(parts + values[start : start + 100])
            assert len(parts) <= 8
        assert exact_sum(parts) == exact_sum(values)

    @pytest.mark.parametrize("values", [[math.inf, 1.0], [1e308, 1e308], [math.inf, -math.inf]])
    def test_a_sum_past_the_float_range_ends_the_parts(self, values):
        """An infinite entry ends the parts at inf.  Finite values whose sum
        is past the range keep it exactly: the largest float, then the rest,
        which is in range."""
        want = [_TOP, 1e308 - (_TOP - 1e308), 0.0] if values == [1e308, 1e308] else [math.inf]
        assert fold(values) == want

    def test_a_running_fold_leaves_the_range_and_comes_back(self):
        """Fifty blocks of twenty largest floats, then fifty of their
        negations and the least subnormal: the running sum is past the
        range between the ends, and every fold keeps it exactly."""
        parts, total = [], Fraction(0)
        for block in [[_TOP] * 20] * 50 + [[-_TOP] * 20 + [5e-324]] * 50:
            parts = fold(parts + block)
            total += exact_sum(block)
            assert exact_sum(parts) == total
        assert fsum(parts) == 50 * 5e-324

    def test_nan_ends_the_parts(self):
        parts = fold([1.0, math.nan])
        assert len(parts) == 1 and math.isnan(parts[0])


class TestFsum:
    @pytest.mark.parametrize(
        "values, want",
        [
            ([1e308, 1e308, -1e308], 1e308),
            ([_TOP, _TOP, -_TOP, 2.0**970 - 2.0**918], _TOP),  # just below a rounding midpoint
            ([_TOP, _TOP, -_TOP, 2.0**970], math.inf),  # at it: rounds up, past the range
            ([-_TOP, -_TOP, 1e308, 1e308], -2 * (_TOP - 1e308)),
        ],
    )
    def test_no_order_of_the_values_moves_a_bit(self, values, want):
        """math.fsum overflows midway through some orders of these values
        and not through others; fsum gives the exactly rounded sum in all."""
        overflowing = 0
        for order in map(list, permutations(values)):
            assert fsum(order).hex() == want.hex(), order
            try:
                math.fsum(order)
            except OverflowError:
                overflowing += 1
        assert overflowing

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_sum_past_the_range_keeps_its_sign(self, sign):
        assert fsum([sign * 1e308, sign * 1e308]) == sign * math.inf
        assert fsum([sign * _TOP, 1e300, sign * _TOP, -1e300]) == sign * math.inf

    @pytest.mark.parametrize(
        "values, want",
        [
            ([math.inf, 1e308, 1e308], math.inf),
            ([-math.inf, 1e308, 1e308], -math.inf),
            ([math.inf, -math.inf, 1e308, 1e308], math.inf),
        ],
    )
    def test_an_infinite_entry_decides(self, values, want):
        assert fsum(values) == want

    def test_nan_passes_through(self):
        assert math.isnan(fsum([math.nan, 1e308, 1e308]))

    @pytest.mark.parametrize("length", LENGTHS)
    def test_row_and_block_sums_inherit_it(self, length):
        """Rows whose running sum leaves the range and comes back, also
        where it leaves it inside one block and comes back in the next."""
        row = np.zeros(length)
        row[:3] = (1e308, 1e308, -1e308)
        block = np.stack((row, row[::-1], -row))
        assert row_sums(block) == [1e308, 1e308, -1e308]
        assert block_sums([block[:, :2], block[:, 2:]]) == [1e308, 1e308, -1e308]


class TestQuotient:
    @pytest.mark.parametrize("n", [1, 3, 10, 7**20])
    def test_is_the_exact_quotient_correctly_rounded(self, n):
        """Folded parts of a sum past the float range, and of one in it."""
        top = sys.float_info.max
        for values in ([top] * 5 + [2.0**-1074], [1e308, 1e-300, -1e308, 3.0]):
            parts = fold(values)
            want = exact_sum(values) / n
            try:
                want = float(want)
            except OverflowError:
                want = math.inf if want > 0 else -math.inf
            assert quotient(parts, n) == want


class TestRowMeans:
    @pytest.mark.parametrize("length", [5, 301])
    def test_overflowing_deviation_gives_the_mean(self, length):
        """The sum of the largest float and its negation, alternating, is in
        range, and so is the mean; that the deviation of a negative entry
        from it is not is the caller's to check."""
        top = sys.float_info.max
        row = np.resize([top, -top], length)
        assert math.fsum(row.tolist()) == top
        assert row_means(np.stack((row, np.ones(length)))) == ([top / length, 1.0], [top, 1.0])

    @pytest.mark.parametrize("length", [5, 301])
    def test_large_entries_with_representable_deviations(self, length):
        row = np.resize([8e307, -8e307], length)
        assert row_means(np.stack((row, -row)))[0] == [8e307 / length, -8e307 / length]

    @pytest.mark.parametrize("keep_sign", [False, True])
    @pytest.mark.parametrize("length", [5, 301])
    def test_zero_sums_give_positive_zero(self, length, keep_sign):
        """Whether or not math.fsum keeps the sign of an all -0.0 input, a
        zero sum gives 0.0."""
        mixed = np.full(length, -0.0)
        mixed[::2] = 0.0
        cancelling = np.resize([-1e300, 1e300], length)
        cancelling[-1] = -0.0
        block = np.stack((np.full(length, -0.0), mixed, cancelling, -cancelling))
        with mock.patch.object(exactsum.math, "fsum", sign_keeping_fsum if keep_sign else _fsum):
            assert [v.hex() for v in row_means(block)[0]] == ["0x0.0p+0"] * 4

    @pytest.mark.parametrize("length", [5, 301])
    def test_sums_past_the_float_range_give_the_fsum_value(self, length):
        """inf, -inf and nan pass through; a sum past the range is inf of
        its sign, and inf - inf is inf, as in row_sums."""
        block = np.ones((6, length))
        block[0, 1] = math.inf
        block[1, 2] = -math.inf
        block[2, 3] = math.nan
        block[3, :2] = (math.inf, -math.inf)
        block[4, :2] = (1.7976931348623157e308, 1e308)
        block[5, :2] = (-1.7976931348623157e308, -1e308)
        got = row_means(block)[0]
        for row, mean in zip(block, got):
            assert same_bits(mean, reference(row)), (mean, reference(row))
        inf = math.inf
        assert [v for v in got if not math.isnan(v)] == [inf, -inf, inf, inf, -inf]

    def test_means_once_one_ulp_off_are_correctly_rounded(self):
        """In this stream, trials 180 and 1140 (among others) were one ulp
        off: the exact mean lay just below a rounding midpoint, and rounding
        the residual ``S - N * m`` before dividing pushed it across."""
        rng = np.random.default_rng(1)
        for trial in range(1141):
            row = rng.standard_normal(16) * 10.0 ** rng.integers(-100, 101, 16).astype(float)
            got = row_means(np.stack((row, -row)))[0]
            want = float(exact_sum(row.tolist()) / 16)
            assert got == [want, -want], trial
            if trial == 180:
                assert got[0].hex() == "0x1.6148f3cdbb135p+304"

    @pytest.mark.parametrize(
        "row, want",
        [
            ([1.0, 2.0**-53], 0.5),  # a tie: 0.5 is even
            ([1.0, 3 * 2.0**-53], 0.5 + 2.0**-52),  # a tie: the upper neighbour is even
            ([-1.0, -3 * 2.0**-53], -0.5 - 2.0**-52),
            ([1.0, 2.0**-53 + 2.0**-105], 0.5 + 2.0**-53),  # just past the midpoint
            ([1.0, 2.0**-53 - 2.0**-106], 0.5),  # just short of it
            ([1.5e-323, 0.0], 1e-323),  # 1.5 subnormal units: a tie, 2 is even
            ([5e-324, 0.0], 0.0),  # half a unit: a tie, 0 is even
            # barely normal or subnormal means
            ([-2.8713149446709293e-307, -3.83824277737e-313, 3.30467e-318,
              1.5279591964525557e-307, 2.095518505593e-311, -5.747914653547e-311],
             -2.239541376738166e-308),
            ([2.11351443903826e-310, -4.97829744963e-313, -4.78349e-318,
              2.010102952907674e-309, 1.2746736e-317, 1.6131293171153706e-307],
             2.725564804776114e-308),
            ([-6.353493061678613e-308, 6.6123709779374e-311, 1.619299232077181e-308,
              -4.895329279e-314, -2.67610556834e-313, -3.464986e-318],
             -7.879355192258262e-309),
            # ties on long rows, which the filter's bound straddles and the
            # bucket kernel takes: a mean of 1 + 2**-53, whose lower
            # neighbour is even, and of 1 + 3 * 2**-53, whose upper one is
            ([1.0] * (KERNEL_MIN_LENGTH - 1) + [1 + KERNEL_MIN_LENGTH * 2.0**-53], 1.0),
            ([1.0] * (KERNEL_MIN_LENGTH - 1) + [1 + 3 * KERNEL_MIN_LENGTH * 2.0**-53], 1 + 2.0**-51),
        ],
    )
    def test_near_and_at_a_midpoint(self, row, want):
        assert float(exact_sum(row) / len(row)) == want
        assert row_means(np.array([row]))[0] == [want]


# Rows of the certified filter's shortest length.  A row whose largest
# magnitude is 1.0 has sigma = 2**(M + 1), and the floats in [sigma, 2 sigma)
# are G apart: an entry below G / 2 keeps nothing of itself in q.
N = KERNEL_MIN_LENGTH
M = math.ceil(math.log2(N + 2))  # the least M with 2**M >= N + 2
G = 2.0 ** (M + 1) * 2.0**-52


def padded(*entries: float) -> np.ndarray:
    row = np.zeros(N)
    row[: len(entries)] = entries
    return row


def sums_and_fallbacks(block: np.ndarray) -> tuple[list[float], list[int]]:
    """``row_sums(block)``, and the indices of the rows the filter refused:
    those that ``row_sums`` handed to ``exact_parts``."""
    handed = []
    real = exactsum.exact_parts

    def spy(rows):
        handed.extend(row.tobytes() for row in np.asarray(rows))
        return real(rows)

    with mock.patch.object(exactsum, "exact_parts", spy):
        sums = row_sums(block)
    return sums, [i for i, row in enumerate(block) if row.tobytes() in handed]


def filter_blocks(elements):
    """1-4 rows on either side of ``KERNEL_MIN_LENGTH``, drawn, or drawn and
    then made to cancel: a second half that negates the first, plus one
    drawn entry scaled far down."""

    @st.composite
    def build(draw):
        block = draw(blocks(elements, lengths=st.sampled_from(LENGTHS)))
        if draw(st.booleans()):
            half = block.shape[1] // 2
            block[:, half : 2 * half] = -block[:, :half]
            block[:, -1] *= 2.0 ** -draw(st.integers(0, 80))
        return block

    return build()


# (row, whether the filter takes it): rows built against a weaker certificate
CONSTRUCTED = [
    # the error of p crosses r's midpoint after the cancellation of
    # 1 - 1: p = fl(3G/8 + (3G/8 + G 2**-54) + tiny) rounds down to 3G/4
    # by a tie, and the exact sum is past 3G/4's upper midpoint
    (padded(1.0, -1.0, 3 * G / 8, 3 * G / 8 + G * 2.0**-54, G * 2.0**-80), False),
    # the same at a power of two: r = G/2
    (padded(1.0, -1.0, G / 4, G / 4 + G * 2.0**-54, G * 2.0**-80), False),
    # r = 1.0 by a tie to even, the exact sum just below that tie:
    # within half the gap above 1.0, not within the quarter below it
    (padded(1.0, -(2.0**-54), -(2.0**-200)), False),
    # and well inside the quarter gap below 1.0
    (padded(1.0, -(2.0**-56)), True),
    # exact ties, at and off a power of two
    (padded(1.0, 2.0**-53), False),
    (padded(1.5, 2.0**-53), False),
    (padded(1.5, 2.0**-55), True),
    # t = -G/2 and p = G/2 cancel to r = 0; the exact sum is G 2**-100
    (padded(1.0, -1.0, -G / 2, G / 4, G / 4, G * 2.0**-100), False),
    # zero sums, for math.fsum's sign rule
    (padded(1.0, -1.0), False),
    (np.full(N, -0.0), False),
    # mu at the edges of its guard, 2**-900 < mu < 2**(1000 - M)
    (np.full(N, 2.0**-900), False),
    (np.full(N, 2.0**-900 * (1 + 2.0**-52)), True),
    (np.full(N, 2.0 ** (1000 - M)), False),
    (np.full(N, 2.0 ** (1000 - M) * (1 - 2.0**-53)), True),
    # subnormals, and a few below a unit of q
    (np.full(N, 5e-324), False),
    (padded(1.0, 5e-324, -1e-310, 2.0**-1022), True),
    # entries that are not finite
    (padded(1.0, math.inf), False),
    (padded(math.inf, -math.inf), False),
    (padded(1.0, math.nan), False),
]


class TestCertifiedFilter:
    """Long rows are summed by the certified filter first; a row it cannot
    certify goes to ``exact_parts``.  Every row has the bits of
    ``math.fsum``, and the rows built to defeat a weaker certificate are
    shown to take the fallback."""

    @settings(max_examples=150, deadline=None)
    @given(
        filter_blocks(
            st.one_of(
                st.floats(-1e3, 1e3),
                st.integers(-(2**60), 2**60).map(float),
                st.floats(-1e-300, 1e-300),
                st.sampled_from([0.0, -0.0, 5e-324, 1.0, 2.0**-53, 1 + 2.0**-52]),
            )
        )
    )
    def test_differential_against_fsum(self, block):
        got, _ = sums_and_fallbacks(block)
        assert [v.hex() for v in got] == [math.fsum(row).hex() for row in block.tolist()]

    def test_typical_rows_take_the_filter(self):
        rng = np.random.default_rng(11)
        for length in (N, 1000):
            y = rng.uniform(1.0, 100.0, length).round(4)
            x = rng.uniform(1.0, 50.0, length).round(4)
            dy, dx = y - y.mean(), x - x.mean()
            block = np.stack((y, x, dy * dy, dy * dx, dy**3, dx**4))
            got, refused = sums_and_fallbacks(block)
            assert refused == []
            assert got == [math.fsum(row) for row in block.tolist()]

    @pytest.mark.parametrize("row, takes_the_filter", CONSTRUCTED)
    def test_constructed_rows(self, row, takes_the_filter):
        got, refused = sums_and_fallbacks(np.stack((row, -row)))
        want = [reference(row), reference(-row)]
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert refused == ([] if takes_the_filter else [0, 1])

    def test_a_zero_sum_follows_fsums_sign_rule(self):
        """Were math.fsum to keep the sign of an all -0.0 input, a long row
        would too: the filter takes no zero sum."""
        block = np.stack((np.full(N, -0.0), padded(1.0, -1.0)))
        with mock.patch.object(exactsum.math, "fsum", sign_keeping_fsum):
            assert [v.hex() for v in row_sums(block)] == ["-0x0.0p+0", "0x0.0p+0"]


class TestRowMeansFilter:
    @settings(max_examples=150, deadline=None)
    @given(filter_blocks(st.one_of(st.floats(-1e6, 1e6), st.floats(-1e300, 1e300))))
    def test_means_and_magnitudes_against_the_exact_mean(self, block):
        means, mu = row_means(block)
        for row, mean, top in zip(block.tolist(), means, mu):
            assert mean.hex() == float(exact_sum(row) / len(row)).hex()
            assert top == max(map(abs, row))

    @pytest.mark.parametrize(
        "last, want", [(1 + N * 2.0**-53, 1.0), (1 + 3 * N * 2.0**-53, 1 + 2.0**-51)]
    )
    def test_a_tie_takes_the_parts(self, last, want):
        """The exact mean of ``row`` is a tie, so t + p less and plus the
        bound round to its two neighbours, and the mean comes from the
        row's parts; the filter gives the mean of an evenly spaced row."""
        row = np.ones(N)
        row[-1] = last
        spaced = np.linspace(1.0, 2.0, N)
        handed = []
        real = exactsum.exact_parts

        def spy(rows):
            handed.extend(np.asarray(rows).tolist())
            return real(rows)

        with mock.patch.object(exactsum, "exact_parts", spy):
            means, _ = row_means(np.stack((row, spaced)))
        assert means == [want, float(exact_sum(spaced.tolist()) / N)]
        assert handed == [row.tolist()]

    @pytest.mark.parametrize("row, takes_the_filter", CONSTRUCTED)
    def test_constructed_rows(self, row, takes_the_filter):
        means, mu = row_means(np.stack((row, -row)))
        if all(map(math.isfinite, row)):
            want = float(exact_sum(row.tolist()) / N)
            assert [v.hex() for v in means] == [want.hex(), (-want + 0.0).hex()]
        else:
            assert [v.hex() for v in means] == [v.hex() for v in (reference(row), reference(-row))]
        assert mu == [max(map(abs, row.tolist()))] * 2 or math.isnan(mu[0])
