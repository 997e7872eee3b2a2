"""The SRSWOR moment rule and the exact moment table, checked by enumeration.

The enumeration helpers here work in exact rational arithmetic straight
from the raw unit values, independently of the package's own oracle
module, so they can arbitrate the rule's stratum weights themselves.
"""

import math
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratexp import moments
from stratexp.errors import ComputationError, MomentNormalizationError
from stratexp.exactsum import fsum
from stratexp.moments import VTABLE_KEYS, v_table
from stratexp.verify import exact_expectation

from helpers import make_population, replace_entries

# ---------------------------------------------------------------------------
# exact-rational enumeration helpers (self-contained)


def central(values, order):
    n = len(values)
    m = F(sum(values), n)
    return sum((F(v) - m) ** order for v in values) / n


def enum_mean_moment(values, n, power):
    """Exact E[(sample mean - population mean)^power] under SRSWOR."""
    cap = len(values)
    m = F(sum(values), cap)
    total = F(0)
    count = 0
    for idx in combinations(range(cap), n):
        xbar = F(sum(values[i] for i in idx), n)
        total += (xbar - m) ** power
        count += 1
    return total / count


def enum_joint_moment(strata, a, b):
    """Exact E[e0^a e1^b] for a list of (ys, xs, n) strata, exact rationals."""
    sizes = [len(s[0]) for s in strata]
    total_n = sum(sizes)
    weights = [F(sz, total_n) for sz in sizes]
    ybar = sum(w * F(sum(ys), len(ys)) for w, (ys, xs, n) in zip(weights, strata))
    xbar = sum(w * F(sum(xs), len(xs)) for w, (ys, xs, n) in zip(weights, strata))
    per_stratum = []
    for ys, xs, n in strata:
        combos = []
        for idx in combinations(range(len(ys)), n):
            combos.append(
                (F(sum(ys[i] for i in idx), n), F(sum(xs[i] for i in idx), n))
            )
        per_stratum.append(combos)
    total = F(0)
    count = 0
    for picks in product(*per_stratum):
        yst = sum(w * yb for w, (yb, _) in zip(weights, picks))
        xst = sum(w * xb for w, (_, xb) in zip(weights, picks))
        total += ((yst - ybar) / ybar) ** a * ((xst - xbar) / xbar) ** b
        count += 1
    return total / count


def enum_stratum_moment(ys, xs, n, a, b):
    """Exact E[(ybar - Ybar)^a (xbar - Xbar)^b] of one stratum under SRSWOR."""
    cap = len(xs)
    my, mx = F(sum(ys), cap), F(sum(xs), cap)
    draws = list(combinations(range(cap), n))
    return sum(
        (F(sum(ys[i] for i in idx), n) - my) ** a * (F(sum(xs[i] for i in idx), n) - mx) ** b
        for idx in draws
    ) / len(draws)


# ---------------------------------------------------------------------------
# the rule, in exact rationals, and the closed forms it replaces


def rule_weights(cap, n):
    """The rule's stratum weights as exact fractions, keyed by block sizes."""
    return {
        sizes: F(num, den)
        for sizes, (num, den) in zip(moments._SHAPES, moments._stratum_weights(cap, n))
    }


def rule_stratum_moment(ys, xs, n, a, b):
    """E[(ybar - Ybar)^a (xbar - Xbar)^b] by the rule: the sum over the
    partitions of the (a, b) positions of the weight times the exact central
    moments of the blocks."""
    cap = len(xs)
    my, mx = F(sum(ys), cap), F(sum(xs), cap)
    c = [sum((F(y) - my) ** p * (F(x) - mx) ** q for y, x in zip(ys, xs)) / cap for p, q in VTABLE_KEYS]
    weights = rule_weights(cap, n)
    return sum(
        weights[sizes] * math.prod(c[i] for i in keys)
        for sizes, keys in moments._PLANS[VTABLE_KEYS.index((a, b))]
    )


def gamma_closed(cap, n):
    return F(cap - n, n * cap)  # (1 - f) / n


def k1_closed(cap, n):
    return F((cap - n) * (cap - 2 * n), n * n * (cap - 1) * (cap - 2))


def k2_closed(cap, n):
    den = n**3 * (cap - 1) * (cap - 2) * (cap - 3)
    return F((cap - n) * (cap * (cap + 1) - 6 * n * (cap - n)), den)


def k3_closed(cap, n):
    den = n**3 * (cap - 1) * (cap - 2) * (cap - 3)
    return F(cap * (cap - n) * (cap - n - 1) * (n - 1), den)


# ---------------------------------------------------------------------------


class TestDesignCoefficients:
    """The rule's weights for the block sizes {2}, {3}, {4} and {2, 2}."""

    def test_f_and_gamma(self):
        """N=10, n=2: f = 0.2, gamma = (1-f)/n = 0.4, {2} weight gamma*N/(N-1)."""
        assert rule_weights(10, 2)[(2,)] == F(2, 5) * F(10, 9)

    def test_k1_value(self):
        """N=10, n=2: k1 = (8*6)/(4*9*8) = 1/6, rounded once."""
        assert rule_weights(10, 2)[(3,)] == F(1, 6)
        num, den = moments._stratum_weights(10, 2)[moments._SHAPES.index((3,))]
        assert num / den == 1.0 / 6.0

    def test_k1_sign_follows_n_minus_2n(self):
        """k1 < 0 exactly when n_h > N_h/2 (its sign carries (N-2n)), and
        k1 = 0 exactly at N = 2n >= 4 (at N = 2 the closed form is 0/0 and
        the rule gives 1, the weight of one draw; C_03 is zero there)."""
        assert rule_weights(7, 4)[(3,)] < 0
        assert rule_weights(2, 1)[(3,)] == 1
        for n in range(2, 16):
            num, _ = moments._stratum_weights(2 * n, n)[moments._SHAPES.index((3,))]
            assert num == 0, n

    def test_gamma_strictly_decreasing_in_n(self):
        """Census limit: the {2} weight shrinks strictly as n grows with N fixed."""
        weights = [rule_weights(8, n)[(2,)] for n in range(1, 8)]
        assert all(a > b for a, b in zip(weights, weights[1:]))
        assert all(w > 0 for w in weights)

    def test_weights_are_the_closed_forms(self):
        """gamma*N/(N-1), k1, k2 and k3 as exact fractions, 4 <= N <= 30."""
        for cap in range(4, 31):
            for n in range(1, cap):
                assert rule_weights(cap, n) == {
                    (2,): gamma_closed(cap, n) * F(cap, cap - 1),
                    (3,): k1_closed(cap, n),
                    (4,): k2_closed(cap, n),
                    (2, 2): k3_closed(cap, n),
                }, (cap, n)

    @pytest.mark.parametrize("n_cap", [2, 3])
    def test_two_and_three_unit_strata_match_enumeration(self, n_cap):
        """Below four units the closed forms for k2/k3 divide by zero; the
        rule's table is still every enumerated expectation."""
        for n in range(1, n_cap):
            strata = [(list(range(4, n_cap + 4)), [1, 5, 2][:n_cap], n)]
            v = v_table(make_population(("A", strata[0][1], strata[0][0], n)))
            for a, b in VTABLE_KEYS:
                exact = float(enum_joint_moment(strata, a, b))
                assert v[(a, b)] == pytest.approx(exact, rel=1e-12, abs=1e-15), (n, a, b)


class TestKCoefficientAdjudication:
    """Re-run the enumeration adjudication of the stratum moments.

    For each (N, n) pair the rule's third and fourth moments of the sample
    mean, and its mixed moments of every table key, must equal exact
    enumeration; the candidate grouping of k2's numerator that reads the
    subtraction as top-level, (N-n)(N+1)N - 6n(N-n), must fail on every
    pair of four or more units.
    """

    DATASETS = {
        (5, 2): [1, 4, 9, 16, 25],
        (6, 2): [2, 3, 5, 7, 11, 13],
        (6, 3): [2, 3, 5, 4, 6, 8],
        (7, 3): [1, 2, 4, 8, 16, 32, 64],
    }
    SMALL = {
        (2, 1): [3, 7],
        (3, 1): [1, 2, 6],
        (3, 2): [2, 5, 11],
        (4, 3): [1, 3, 4, 9],
    }
    ALL = {**DATASETS, **SMALL}

    @pytest.mark.parametrize("shape", sorted(ALL))
    def test_third_moment_identity(self, shape):
        cap, n = shape
        values = self.ALL[shape]
        assert enum_mean_moment(values, n, 3) == rule_stratum_moment(values, values, n, 0, 3)

    @pytest.mark.parametrize("shape", sorted(ALL))
    def test_fourth_moment_identity(self, shape):
        cap, n = shape
        values = self.ALL[shape]
        assert enum_mean_moment(values, n, 4) == rule_stratum_moment(values, values, n, 0, 4)

    @pytest.mark.parametrize("shape", sorted(ALL))
    def test_mixed_moment_identities(self, shape):
        cap, n = shape
        xs = self.ALL[shape]
        ys = [(3 * x * x) % 11 - x for x in reversed(xs)]
        for a, b in VTABLE_KEYS:
            assert enum_stratum_moment(ys, xs, n, a, b) == rule_stratum_moment(ys, xs, n, a, b), (a, b)

    @pytest.mark.parametrize("shape", sorted(DATASETS))
    def test_flat_grouping_fails(self, shape):
        cap, n = shape
        values = self.DATASETS[shape]
        den = n**3 * (cap - 1) * (cap - 2) * (cap - 3)
        k2_flat = F((cap - n) * (cap + 1) * cap - 6 * n * (cap - n), den)
        k3 = F(cap * (cap - n) * (cap - n - 1) * (n - 1), den)
        wrong = k2_flat * central(values, 4) + 3 * k3 * central(values, 2) ** 2
        assert enum_mean_moment(values, n, 4) != wrong


@st.composite
def small_populations(draw):
    """1-3 strata of integer data, N_h from 2 to 7, 1 <= n_h < N_h."""
    strata = []
    for h in range(draw(st.integers(1, 3))):
        cap = draw(st.integers(2, 7))
        xs = draw(st.lists(st.integers(1, 60), min_size=cap, max_size=cap))
        ys = draw(st.lists(st.integers(1, 60), min_size=cap, max_size=cap))
        strata.append((f"S{h}", xs, ys, draw(st.integers(1, cap - 1))))
    return make_population(*strata)


class TestVTableProperty:
    @settings(max_examples=100, deadline=None)
    @given(pop=small_populations())
    def test_every_entry_is_the_enumerated_expectation(self, pop):
        """Within 1e-12 of V20^(a/2) V02^(b/2), both enumerated."""
        ybar, xbar = pop.grand_y_mean, pop.grand_x_mean
        v = v_table(pop)
        exact = {
            (a, b): exact_expectation(
                pop, lambda y, x, a=a, b=b: ((y - ybar) / ybar) ** a * ((x - xbar) / xbar) ** b
            )
            for a, b in VTABLE_KEYS
        }
        for a, b in VTABLE_KEYS:
            norm = exact[(2, 0)] ** (a / 2) * exact[(0, 2)] ** (b / 2)
            assert abs(v[(a, b)] - exact[(a, b)]) <= 1e-12 * norm, (a, b)


class TestVTableExactness:
    def test_single_stratum_matches_enumeration(self, desk, desk_v):
        """Every entry equals E[e0^a e1^b] over all 20 samples, 1e-9 relative."""
        strata = [([2, 3, 5, 4, 6, 8], [1, 2, 3, 4, 5, 6], 3)]
        for a, b in VTABLE_KEYS:
            exact = float(enum_joint_moment(strata, a, b))
            got = desk_v[(a, b)]
            if abs(exact) > 1e-12:
                assert got == pytest.approx(exact, rel=1e-9), (a, b)
            else:
                assert abs(got) < 1e-12, (a, b)

    def test_two_strata_match_enumeration(self, synthetic, synthetic_v):
        """Cross-stratum products make the order-4 entries exact too."""
        strata = [
            ([int(y) for y in s.y.tolist()], [int(x) for x in s.x.tolist()], s.small_n)
            for s in synthetic.strata
        ]
        for a, b in VTABLE_KEYS:
            exact = float(enum_joint_moment(strata, a, b))
            assert synthetic_v[(a, b)] == pytest.approx(exact, rel=1e-9), (a, b)

    def test_constant_x_zeroes_auxiliary_entries(self):
        pop = make_population(
            ("A", [5, 5, 5, 5, 5], [1, 4, 2, 8, 5], 2),
            ("B", [7, 7, 7, 7], [3, 1, 4, 1], 2),
        )
        v = v_table(pop)
        for a, b in VTABLE_KEYS:
            if b >= 1:
                assert v[(a, b)] == 0.0, (a, b)
        assert v[(2, 0)] > 0

    def test_proportional_y_makes_errors_identical(self):
        """y = 3x in a single stratum forces e0 = e1, so V20 = V02 = V11."""
        xs = [1, 2, 3, 4, 6, 8]
        pop = make_population(("A", xs, [3 * x for x in xs], 3))
        v = v_table(pop)
        assert v[(2, 0)] == pytest.approx(v[(0, 2)], rel=1e-12)
        assert v[(1, 1)] == pytest.approx(v[(0, 2)], rel=1e-12)

    def test_moment_inequalities(self, synthetic_v):
        assert synthetic_v[(2, 0)] >= 0
        assert synthetic_v[(0, 2)] >= 0
        assert synthetic_v[(0, 4)] >= 0
        assert (
            synthetic_v[(1, 1)] ** 2
            <= synthetic_v[(2, 0)] * synthetic_v[(0, 2)] * (1 + 1e-12)
        )

    def test_zero_mean_rejected(self):
        pop = make_population(("A", [1, 2, 3, 4, 5, 6], [-1, 1, -2, 2, -3, 3], 2))
        with pytest.raises(MomentNormalizationError):
            v_table(pop)

    def test_small_strata_match_enumeration(self):
        """Strata of two and three units, alone and beside a larger one."""
        strata_data = [([2, 4, 6], [1, 2, 3], 2), ([5, 1], [3, 7], 1), ([9, 4, 8, 2], [2, 6, 3, 5], 3)]
        pop = make_population(*((h, xs, ys, n) for h, (ys, xs, n) in zip("ABC", strata_data)))
        v = v_table(pop)
        for a, b in VTABLE_KEYS:
            exact = float(enum_joint_moment(strata_data, a, b))
            assert v[(a, b)] == pytest.approx(exact, rel=1e-12, abs=1e-15), (a, b)


class TestVTableInvariances:
    def test_scaling_y_leaves_table_unchanged(self, synthetic, synthetic_v):
        scaled = make_population(
            *(
                (s.id, s.x.tolist(), [7.5 * y for y in s.y.tolist()], s.small_n)
                for s in synthetic.strata
            )
        )
        v2 = v_table(scaled)
        for key in VTABLE_KEYS:
            assert v2[key] == pytest.approx(synthetic_v[key], rel=1e-12, abs=1e-18)

    def test_shifting_y_still_matches_enumeration(self):
        """A location shift changes entries only via the normalization;
        the recomputed table must still equal exact enumeration."""
        shift = 25
        strata_data = [
            ([y + shift for y in (2, 3, 5, 4, 6, 8)], [1, 2, 3, 4, 5, 6], 3)
        ]
        pop = make_population(("A", strata_data[0][1], strata_data[0][0], 3))
        v = v_table(pop)
        for a, b in VTABLE_KEYS:
            exact = float(enum_joint_moment(strata_data, a, b))
            if abs(exact) > 1e-12:
                assert v[(a, b)] == pytest.approx(exact, rel=1e-9), (a, b)
            else:
                assert abs(v[(a, b)]) < 1e-12, (a, b)

    def test_exactness_on_an_unequal_design(self):
        """A rougher population: N=(5,8), n=(2,5), negative correlation."""
        strata_data = [
            ([12, 9, 7, 4, 1], [1, 3, 6, 8, 11], 2),
            ([30, 25, 22, 18, 15, 11, 8, 2], [2, 5, 7, 10, 13, 17, 20, 24], 5),
        ]
        pop = make_population(
            ("low", strata_data[0][1], strata_data[0][0], 2),
            ("high", strata_data[1][1], strata_data[1][0], 5),
        )
        v = v_table(pop)
        for a, b in VTABLE_KEYS:
            exact = float(enum_joint_moment(strata_data, a, b))
            if abs(exact) > 1e-12:
                assert v[(a, b)] == pytest.approx(exact, rel=1e-9), (a, b)
            else:
                assert abs(v[(a, b)]) < 1e-12, (a, b)
        assert v[(1, 1)] < 0


class TestExtremeScales:
    """Scaling x or y leaves the table unchanged, or is a typed error.

    A central moment or a normalizing power ybar^a * xbar^b that is
    infinite, or nonzero below the smallest normal float, would give a
    silently wrong entry (or a bare ZeroDivisionError / ValueError).
    """

    XS = {"A": [2.0, 3.5, 1.25, 4.0, 2.75], "B": [5.0, 6.5, 4.25, 7.0, 3.0]}
    YS = {"A": [3.0, 4.5, 2.0, 6.25, 3.5], "B": [8.0, 9.5, 7.25, 11.0, 5.5]}

    def scaled(self, x_scale: float, y_scale: float):
        return make_population(*(
            (h, [x * x_scale for x in self.XS[h]], [y * y_scale for y in self.YS[h]], 2)
            for h in self.XS
        ))

    @pytest.mark.parametrize(
        "x_scale, y_scale, error, message",
        [
            (1e-81, 1.0, MomentNormalizationError, r"V04: normalizing power ybar\^0 \* xbar\^4"),
            (1e-79, 1.0, MomentNormalizationError, r"V04: normalizing power ybar\^0 \* xbar\^4"),
            (1e-200, 1.0, MomentNormalizationError, r"V02: .* xbar\^2 = 0\.0 is not a normal"),
            (1.0, 1e150, MomentNormalizationError, r"V30: .* ybar\^3 \* xbar\^0 = inf is not"),
            (1e-77, 1.0, ComputationError, r"stratum 'A': central moment C04 = "),
        ],
        ids=["x1e-81", "x1e-79", "x1e-200", "y1e150", "x1e-77"],
    )
    def test_out_of_range_is_a_typed_error(self, x_scale, y_scale, error, message):
        with pytest.raises(error, match=message):
            v_table(self.scaled(x_scale, y_scale))

    @pytest.mark.parametrize(
        "strata, entry",
        [
            # C30 is a normal float, but C30 / ybar^3 is not
            ((("A", [1, 2, 3, 4, 5], [-3e4, -3e4, -3e4, 9e4, 5e-99], 2),), "V30"),
            # each stratum's share of V20 is finite; their sum is not
            (
                tuple(
                    (h, [1, 2, 3, 4, 5], [-7e78, -7e78, 7e78, 7e78, 5e-76], 2)
                    for h in "AB"
                ),
                "V20",
            ),
        ],
        ids=["V30-ratio", "V20-sum"],
    )
    def test_entry_outside_the_float_range_is_a_typed_error(self, strata, entry):
        with pytest.raises(ComputationError) as excinfo:
            v_table(make_population(*strata))
        assert excinfo.type is ComputationError
        assert str(excinfo.value) == (
            f"{entry} = inf is outside the float range; rescale x or y"
        )

    def test_moment_in_range_whose_sum_is_not(self):
        """Ten of 100 units at y = -5.53e102: the sum of (y - y_mean)^3 leaves
        the float range, but C30 is the exact mean of those products,
        correctly rounded."""
        pop = make_population(("A", list(range(1, 101)), [-5.53e102] * 10 + [0.0] * 90, 10))
        stratum = pop.strata[0]
        dy = stratum.y - stratum.y_mean
        cubes = (dy * dy * dy).tolist()
        assert fsum(cubes) == -math.inf
        want = float(sum(map(F, cubes)) / 100)
        assert moments.summarize_stratum(stratum)[(3, 0)] == want
        assert math.isfinite(v_table(pop)[(3, 0)])

    @pytest.mark.parametrize(
        "x_scale, y_scale", [(1e-70, 1.0), (1e70, 1.0), (1.0, 1e-70), (1.0, 1e70)]
    )
    def test_in_range_scales_leave_the_table_unchanged(self, x_scale, y_scale):
        base = v_table(self.scaled(1.0, 1.0))
        v = v_table(self.scaled(x_scale, y_scale))
        for key in VTABLE_KEYS:
            assert v[key] == pytest.approx(base[key], rel=1e-12), key

    def test_constant_column_zeros_stay_valid(self):
        """Exact zeros are not underflows: x = 1e-60 everywhere is a valid table."""
        v = v_table(make_population(
            *((h, [1e-60] * 5, self.YS[h], 2) for h in self.YS)
        ))
        assert all(v[(a, b)] == 0.0 for a, b in VTABLE_KEYS if b >= 1)
        assert v[(2, 0)] > 0


class TestVTableShape:
    def test_key_set(self, synthetic_v):
        assert set(synthetic_v.entries) == set(VTABLE_KEYS)

    def test_each_moment_is_the_mean_of_its_own_product(self):
        """C_ab is the mean of (y - y_mean)^a (x - x_mean)^b for each key.
        The columns have mean 0 and small integer deviations, so every
        product and sum is exact and the ten moments all differ: two
        products swapped, or a power mislaid, changes a value."""
        x, y = [3, -1, 0, 2, -4], [1, -2, 5, 0, -4]
        stratum = make_population(("A", x, y, 2)).strata[0]
        want = {
            (a, b): float(F(sum(dy**a * dx**b for dx, dy in zip(x, y)), len(x)))
            for a, b in VTABLE_KEYS
        }
        assert len(set(want.values())) == len(VTABLE_KEYS)
        assert moments.summarize_stratum(stratum) == want

    def test_json_names(self, synthetic_v):
        d = synthetic_v.as_json_dict()
        assert list(d) == [
            "V20", "V02", "V11", "V30", "V21", "V12", "V03", "V22", "V13", "V04",
        ]

    def test_replace_entries(self, synthetic_v):
        v2 = replace_entries(synthetic_v, V21=0.0, V04=1.0)
        assert v2[(2, 1)] == 0.0
        assert v2[(0, 4)] == 1.0
        assert v2[(2, 0)] == synthetic_v[(2, 0)]
        assert v2.ybar == synthetic_v.ybar
        assert synthetic_v[(0, 4)] != 1.0  # a copy: the original keeps its entries
