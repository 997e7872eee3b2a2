"""Exact SRSWOR design moments of the stratified relative errors.

With e0 = (ybar_st - Ybar)/Ybar and e1 = (xbar_st - Xbar)/Xbar, the table
entry V_ab is the exact design expectation E[e0^a e1^b] up to total order
four, for any design with 1 <= n_h < N_h.  Every entry comes from one rule,
the inclusion-probability expansion over set partitions (the polykay idea
of Tukey, "Some sampling simplified", JASA 1950).  Within a stratum of N
units sampled n at a time,

    E[(ybar_h - Ybar_h)^a (xbar_h - Xbar_h)^b]
        = sum over sigma of w(sigma) * prod over blocks S of C_S,

sigma running over the set partitions of the k = a + b factor positions
with no singleton block, C_S the stratum's central moment of block S's y
and x positions, and w(sigma) = n^-k N^|sigma| sum_j r_j(sigma) pi_j.
Here pi_j = n^(j) / N^(j) (falling factorials, 0 for j > n) is the chance
that j given units are all drawn, and r_j(sigma), the sum of the Moebius
values mu(beta, sigma) over the refinements beta of sigma with j blocks,
depends only on sigma's block sizes.  Each weight is one correctly rounded
int / int; where their denominators do not vanish, they are

    {2}:     gamma_h * N/(N-1) = (N-n) / [n (N-1)],  gamma_h = (1 - f_h)/n_h
    {3}:     k1 = (N-n)(N-2n) / [n^2 (N-1)(N-2)]
    {4}:     k2 = (N-n)[N(N+1) - 6n(N-n)] / [n^3 (N-1)(N-2)(N-3)]
    {2, 2}:  k3 = N(N-n)(N-n-1)(n-1) / [n^3 (N-1)(N-2)(N-3)]

Strata are sampled independently, so the joint cumulants of the weighted
stratum-mean deviations add over strata.  Each stratum's moments become
cumulants (at order four, less the products over its pairings), are
scaled by W_h^k / (Ybar^a Xbar^b) and summed exactly; each V_ab is then
the sum over the same partitions of the products of the summed cumulants.

The table reads ten central moments of each stratum, C_ab for the keys
of ``VTABLE_KEYS``: the mean over the stratum of
(y - y_mean)^a (x - x_mean)^b, divisor N_h.  They are the whole interface
between a population and the analysis; the S-quantities (divisor N_h - 1)
are C_20, C_02 and C_11 times N_h / (N_h - 1).  The ten products of the
deviation columns are written into the rows of one (10, N_h) array, and
one :func:`stratexp.exactsum.row_reduce` call per stratum gives each row's
moment by ``_moment``: its sum, exactly rounded with the bits of
``math.fsum``, over N_h.  Where a sum of finite products leaves the float
range, the moment is the exact sum over N_h, correctly rounded
(:func:`stratexp.exactsum.quotient`), so a moment in range is kept.  A
product that overflows gives an infinity, which ``v_table`` reports, as it
does an entry of the table that leaves the range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import product
from math import factorial, perm, prod
from operator import itemgetter, mul
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ComputationError, MomentNormalizationError
from .exactsum import fsum as _fsum, quotient, row_reduce
from .population import StratifiedPopulation, StratumPopulation

# (a, b) = (power of e0, power of e1), every entry the table carries
VTABLE_KEYS: tuple[tuple[int, int], ...] = (
    (2, 0), (0, 2), (1, 1),
    (3, 0), (2, 1), (1, 2), (0, 3),
    (2, 2), (1, 3), (0, 4),
)


def vkey_name(key: tuple[int, int]) -> str:
    return f"V{key[0]}{key[1]}"


# the highest power of the y and of the x deviations that a key needs
_TOPS = tuple(map(max, zip(*VTABLE_KEYS)))


def summarize_stratum(stratum: StratumPopulation) -> dict[tuple[int, int], float]:
    """The central moments C_ab of one stratum, keyed (a, b) in ``VTABLE_KEYS`` order."""
    n = stratum.capital_n
    # (y - y_mean)^a (x - x_mean)^b for (a, b) in VTABLE_KEYS order, each
    # written once into its row of one array
    rows = np.empty((len(VTABLE_KEYS), n))
    row = dict(zip(VTABLE_KEYS, rows))
    with np.errstate(over="ignore"):  # v_table reports a moment that overflows
        # each column's powers d^k = d^(k - k//2) * d^(k//2): d^3 = d^2 * d,
        # written into the row of key (k, 0) or (0, k), or a new array if
        # the table has no such key
        dy, dx = {1: stratum.y - stratum.y_mean}, {1: stratum.x - stratum.x_mean}
        for d, top, (i, j) in zip((dy, dx), _TOPS, ((1, 0), (0, 1))):
            for k in range(2, top + 1):
                d[k] = np.multiply(d[k - k // 2], d[k // 2], out=row.get((i * k, j * k)))
        for (a, b), out in row.items():
            if a and b:
                np.multiply(dy[a], dx[b], out=out)
    return dict(zip(VTABLE_KEYS, row_reduce(rows, _moment(n))[0]))


def _moment(n: int) -> Callable[[Sequence[float]], float]:
    """The rule of the module docstring for C_ab of ``n`` units, from
    floats whose exact sum is that of its products."""

    def moment(parts: Sequence[float]) -> float:
        s = _fsum(parts)
        if math.isinf(s) and all(map(math.isfinite, parts)):
            return quotient(parts, n)
        return s / n

    return moment


def _partitions(items: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every set partition of ``items``, each a tuple of blocks."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        yield ((first,), *part)
        for i, block in enumerate(part):
            yield (*part[:i], (first, *block), *part[i + 1 :])


def _mobius_sums(sizes: tuple[int, ...]) -> tuple[int, ...]:
    """(r_0, ..., r_k) for a partition sigma with blocks of ``sizes``: r_j
    sums mu(beta, sigma) over the refinements beta with j blocks.  A block
    of s positions is cut into m blocks in S(s, m) ways (a Stirling number
    of the second kind), each contributing (-1)^(m-1) (m-1)!."""
    r = [0] * (sum(sizes) + 1)
    for cuts in product(*(list(_partitions(tuple(range(s)))) for s in sizes)):
        blocks = [len(cut) for cut in cuts]
        r[sum(blocks)] += prod((-1) ** (m - 1) * factorial(m - 1) for m in blocks)
    return tuple(r)


def _plan(a: int, b: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The partitions of E[e0^a e1^b]'s positions, a y then b x, with no
    singleton block, each as (block sizes, the ``VTABLE_KEYS`` index of each
    block's (a, b)), the single block first."""
    plan = []
    for part in _partitions(tuple(range(a + b))):
        if min(map(len, part)) > 1:
            keys = [(sum(i < a for i in block), sum(i >= a for i in block)) for block in part]
            plan.append((tuple(sorted(map(len, part))), tuple(map(VTABLE_KEYS.index, keys))))
    return tuple(sorted(plan, key=lambda term: len(term[1])))


_PLANS = tuple(_plan(a, b) for a, b in VTABLE_KEYS)
# every block-size multiset of the plans: {2}, {3}, {4} and {2, 2}
_SHAPES = sorted({sizes for plan in _PLANS for sizes, _ in plan})
_MOBIUS = [_mobius_sums(sizes) for sizes in _SHAPES]
_ORDERS = tuple(map(sum, VTABLE_KEYS))
_DEGREE = max(_ORDERS)
# for each entry, the _SHAPES index of its one-block partition, and its
# other partitions as (_SHAPES index, a getter of their blocks' entries)
_WHOLE = tuple(_SHAPES.index(plan[0][0]) for plan in _PLANS)
_SPLITS = tuple(
    tuple((_SHAPES.index(sizes), itemgetter(*keys)) for sizes, keys in plan[1:]) for plan in _PLANS
)


def _stratum_weights(n_cap: int, n: int) -> list[tuple[int, int]]:
    """w(sigma) = n^-k N^|sigma| sum_j r_j pi_j for each of ``_SHAPES``, as
    an exact (numerator, denominator): each pi_j is written over the common
    denominator N^(t), t = min(_DEGREE, n), as n^(j) (N-j)^(t-j), and
    pi_j = 0 for j > n."""
    top = min(_DEGREE, n)
    den = perm(n_cap, top)
    scaled_pi = [perm(n, j) * perm(n_cap - j, top - j) for j in range(top + 1)]
    return [
        (n_cap ** len(sizes) * sum(map(mul, r, scaled_pi)), n ** (len(r) - 1) * den)
        for sizes, r in zip(_SHAPES, _MOBIUS)
    ]


@dataclass(frozen=True)
class VTable:
    """Normalized design moments E[e0^a e1^b] plus the normalizing means."""

    entries: Mapping[tuple[int, int], float]
    ybar: float
    xbar: float

    def __getitem__(self, key: tuple[int, int]) -> float:
        return self.entries[key]

    def as_json_dict(self) -> dict[str, float]:
        return {vkey_name(k): self.entries[k] for k in VTABLE_KEYS}


def v_table(pop: StratifiedPopulation) -> VTable:
    """Assemble the full exact moment table for a population, by the rule
    of the module docstring.

    Raises :class:`MomentNormalizationError` when a grand mean is zero or a
    normalizing power ybar^a * xbar^b is not a normal float, and
    :class:`ComputationError` naming the stratum when a central moment C_ab
    of the table is infinite, nan or nonzero below ``sys.float_info.min``,
    and naming the entry when a V_ab built from normal floats still leaves
    the float range.
    """
    ybar = pop.grand_y_mean
    xbar = pop.grand_x_mean
    if ybar == 0.0 or xbar == 0.0:
        raise MomentNormalizationError(
            f"relative moments undefined: grand means ybar={ybar}, xbar={xbar}"
        )
    # the normalizing power of each entry; an underflow to zero or to a
    # subnormal, or an overflow, would make the entry silently wrong
    scales: list[float] = []
    for a, b in VTABLE_KEYS:
        try:
            scale = ybar**a * xbar**b
        except OverflowError:
            scale = math.inf
        if not sys.float_info.min <= abs(scale) < math.inf:
            raise MomentNormalizationError(
                f"V{a}{b}: normalizing power ybar^{a} * xbar^{b} = {scale!r} is not "
                f"a normal float (ybar={ybar!r}, xbar={xbar!r}); rescale x or y"
            )
        scales.append(scale)
    moments = [summarize_stratum(s) for s in pop.strata]
    for s, c in zip(pop.strata, moments):
        for (a, b), value in c.items():
            if value and not sys.float_info.min <= abs(value) < math.inf:  # an exact zero is valid
                raise ComputationError(
                    f"stratum {s.id!r}: central moment C{a}{b} = {value!r} is not a "
                    "normal float; rescale x or y"
                )

    # each stratum's cumulants of (ybar_h - Ybar_h, xbar_h - Xbar_h), scaled
    # by W_h^k / (ybar^a xbar^b), in VTABLE_KEYS order
    scaled: list[list[float]] = []
    for s, w, c in zip(pop.strata, pop.weights, moments):
        # one correctly rounded int / int each
        weights = [num / den for num, den in _stratum_weights(s.capital_n, s.small_n)]
        c = list(c.values())
        kappa: list[float] = []
        for i, (whole, splits) in enumerate(zip(_WHOLE, _SPLITS)):
            value = weights[whole] * c[i]
            if splits:  # the moment less the products of its blocks' cumulants
                parts = [value]
                for shape, blocks in splits:
                    parts += (weights[shape] * prod(blocks(c)), -prod(blocks(kappa)))
                value = _fsum(parts)
            kappa.append(value)
        scaled.append([w**k * v / scale for k, v, scale in zip(_ORDERS, kappa, scales)])
    cumulants = [_fsum(column) for column in zip(*scaled)]
    entries = {
        key: _fsum([k, *(prod(blocks(cumulants)) for _, blocks in splits)])
        for key, k, splits in zip(VTABLE_KEYS, cumulants, _SPLITS)
    }
    # at order four from V04 down: an x spread wide enough to leave the
    # range is named by its highest power of e1
    for a, b in (*VTABLE_KEYS[:7], *VTABLE_KEYS[:6:-1]):
        value = entries[(a, b)]
        if not math.isfinite(value):
            raise ComputationError(
                f"V{a}{b} = {value!r} is outside the float range; rescale x or y"
            )
    return VTable(entries=entries, ybar=ybar, xbar=xbar)
