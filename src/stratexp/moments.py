"""Exact SRSWOR design moments of the stratified relative errors.

With e0 = (ybar_st - Ybar)/Ybar and e1 = (xbar_st - Xbar)/Xbar, the table
entry V_ab is the exact design expectation E[e0^a e1^b] up to total order
four.  Within a stratum the moments of the sample mean under sampling
without replacement are

    E[(xbar_h - Xbar_h)^2] = gamma_h * S_xh^2
    E[(xbar_h - Xbar_h)^3] = k1_h * C_03(h)
    E[(xbar_h - Xbar_h)^4] = k2_h * C_04(h) + 3 * k3_h * C_02(h)^2

and their mixed (y, x) counterparts follow by polarization: a fourth-order
mixed moment is k2 times the matching mixed central moment plus k3 times
the sum over pairings of products of second central moments.

The coefficients, exact for any 1 <= n_h < N_h (k1 needs N_h >= 3, k2 and
k3 need N_h >= 4, so the table needs N_h >= 4), are

    gamma_h = (1 - f_h) / n_h,            f_h = n_h / N_h
    k1_h = (N-n)(N-2n) / [n^2 (N-1)(N-2)]
    k2_h = (N-n)[N(N+1) - 6n(N-n)] / [n^3 (N-1)(N-2)(N-3)]
    k3_h = N(N-n)(N-n-1)(n-1) / [n^3 (N-1)(N-2)(N-3)]

(k2's numerator grouping was fixed by exhaustively enumerating all samples
for (N, n) in {(5,2), (6,2), (6,3), (7,3)} and solving for the grouping
that reproduces the exact fourth moment; the test suite repeats that
adjudication.)

Because strata are sampled independently, total-order-four entries also
pick up cross-stratum products of second-moment contributions; those terms
are included here so every entry is exact, not merely first-termwise.

The table reads ten central moments of each stratum, C_ab for the keys
of ``VTABLE_KEYS``: the mean over the stratum of
(y - y_mean)^a (x - x_mean)^b, divisor N_h.  They are the whole interface
between a population and the analysis; the S-quantities (divisor N_h - 1)
are C_20, C_02 and C_11 times N_h / (N_h - 1).  Each moment is formed from
the deviation columns with NumPy and reduced by
:func:`stratexp.exactsum.row_sums`, an exactly rounded sum with the bits of
``math.fsum``, all ten in one call per stratum; a sum that leaves the float
range gives ``inf``, which ``v_table`` reports, as it does an entry of the
table that leaves it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ComputationError, InsufficientStratumError, MomentNormalizationError
from .exactsum import fsum as _fsum, row_sums
from .population import StratifiedPopulation, StratumPopulation

# (a, b) = (power of e0, power of e1), every entry the table carries
VTABLE_KEYS: tuple[tuple[int, int], ...] = (
    (2, 0), (0, 2), (1, 1),
    (3, 0), (2, 1), (1, 2), (0, 3),
    (2, 2), (1, 3), (0, 4),
)


def vkey_name(key: tuple[int, int]) -> str:
    return f"V{key[0]}{key[1]}"


def summarize_stratum(stratum: StratumPopulation) -> dict[tuple[int, int], float]:
    """The central moments C_ab of one stratum, keyed (a, b) in ``VTABLE_KEYS`` order."""
    with np.errstate(over="ignore"):  # v_table reports a moment that overflows
        dy = stratum.y - stratum.y_mean
        dx = stratum.x - stratum.x_mean
        dy2, dx2 = dy * dy, dx * dx
        dy3, dx3 = dy2 * dy, dx2 * dx
        # (y - y_mean)^a (x - x_mean)^b for (a, b) in VTABLE_KEYS order
        sums = row_sums(
            (dy2, dx2, dy * dx, dy3, dy2 * dx, dy * dx2, dx3, dy2 * dx2, dy * dx3, dx2 * dx2)
        )
    n = stratum.capital_n
    return {key: s / n for key, s in zip(VTABLE_KEYS, sums)}


@dataclass(frozen=True)
class DesignCoefficients:
    """Per-stratum SRSWOR moment coefficients, in population stratum order."""

    gamma: tuple[float, ...]
    k1: tuple[float, ...]
    k2: tuple[float, ...]
    k3: tuple[float, ...]


def _k1(n_cap: int, n: int) -> float:
    return ((n_cap - n) * (n_cap - 2 * n)) / (n * n * (n_cap - 1) * (n_cap - 2))


def _k2(n_cap: int, n: int) -> float:
    num = (n_cap - n) * (n_cap * (n_cap + 1) - 6 * n * (n_cap - n))
    return num / (n**3 * (n_cap - 1) * (n_cap - 2) * (n_cap - 3))


def _k3(n_cap: int, n: int) -> float:
    num = n_cap * (n_cap - n) * (n_cap - n - 1) * (n - 1)
    return num / (n**3 * (n_cap - 1) * (n_cap - 2) * (n_cap - 3))


def design_coefficients(pop: StratifiedPopulation) -> DesignCoefficients:
    """Compute gamma and k1-k3 for every stratum.

    Raises :class:`InsufficientStratumError` when a stratum has fewer than
    four units, where k2 and k3 are undefined.
    """
    gammas, k1s, k2s, k3s = [], [], [], []
    for s in pop.strata:
        n_cap, n = s.capital_n, s.small_n
        if n_cap < 4:
            raise InsufficientStratumError(
                f"stratum {s.id!r}: insufficient stratum size for k2/k3 "
                f"(N={n_cap} < 4)"
            )
        gammas.append((1.0 - n / n_cap) / n)
        k1s.append(_k1(n_cap, n))
        k2s.append(_k2(n_cap, n))
        k3s.append(_k3(n_cap, n))
    return DesignCoefficients(
        gamma=tuple(gammas), k1=tuple(k1s), k2=tuple(k2s), k3=tuple(k3s)
    )


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

    def replace_entries(self, **named: float) -> "VTable":
        """Return a copy with entries overridden by name ('V21', ...)."""
        by_name = {vkey_name(k): k for k in VTABLE_KEYS}
        new = dict(self.entries)
        for name, value in named.items():
            new[by_name[name]] = value
        return VTable(entries=new, ybar=self.ybar, xbar=self.xbar)


def v_table(pop: StratifiedPopulation) -> VTable:
    """Assemble the full exact moment table for a population.

    Per-stratum terms are accumulated with exact (fsum) summation; the
    order-four entries include the cross-stratum pairing products required
    for E[e0^a e1^b] to be exact when there is more than one stratum.

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
    scales: dict[tuple[int, int], float] = {}
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
        scales[(a, b)] = scale
    coeffs = design_coefficients(pop)
    moments = [summarize_stratum(s) for s in pop.strata]
    for s, c in zip(pop.strata, moments):
        for (a, b), value in c.items():
            if value and not sys.float_info.min <= abs(value) < math.inf:  # an exact zero is valid
                raise ComputationError(
                    f"stratum {s.id!r}: central moment C{a}{b} = {value!r} is not a "
                    "normal float; rescale x or y"
                )
    weights = pop.weights

    # per-stratum second-moment contributions (the building blocks of the
    # order-2 entries and of all cross-stratum products); S^2 = C * bessel
    ty: list[float] = []   # -> V20
    tx: list[float] = []   # -> V02
    txy: list[float] = []  # -> V11
    for w, g, s, c in zip(weights, coeffs.gamma, pop.strata, moments):
        bessel = s.capital_n / (s.capital_n - 1)
        ty.append(w * w * g * (c[(2, 0)] * bessel) / (ybar * ybar))
        tx.append(w * w * g * (c[(0, 2)] * bessel) / (xbar * xbar))
        txy.append(w * w * g * (c[(1, 1)] * bessel) / (xbar * ybar))

    def order3(a: int, b: int) -> float:
        scale = scales[(a, b)]
        return _fsum(
            w**3 * k1 * c[(a, b)] / scale
            for w, k1, c in zip(weights, coeffs.k1, moments)
        )

    def within4(a: int, b: int) -> float:
        """Within-stratum fourth moment of (e0^a e1^b), a + b = 4."""
        scale = scales[(a, b)]
        terms = []
        for w, k2, k3, c in zip(weights, coeffs.k2, coeffs.k3, moments):
            if (a, b) == (0, 4):
                pair = 3.0 * c[(0, 2)] ** 2
            elif (a, b) == (1, 3):
                pair = 3.0 * c[(1, 1)] * c[(0, 2)]
            else:  # (2, 2)
                pair = c[(2, 0)] * c[(0, 2)] + 2.0 * c[(1, 1)] ** 2
            terms.append(w**4 * (k2 * c[(a, b)] + k3 * pair) / scale)
        return _fsum(terms)

    def cross(u: list[float], v: list[float]) -> float:
        """sum over h != g of u_h * v_g, via totals minus the diagonal."""
        return _fsum(u) * _fsum(v) - _fsum(a * b for a, b in zip(u, v))

    entries: dict[tuple[int, int], float] = {
        (2, 0): _fsum(ty),
        (0, 2): _fsum(tx),
        (1, 1): _fsum(txy),
        (3, 0): order3(3, 0),
        (2, 1): order3(2, 1),
        (1, 2): order3(1, 2),
        (0, 3): order3(0, 3),
        (0, 4): within4(0, 4) + 3.0 * cross(tx, tx),
        (1, 3): within4(1, 3) + 3.0 * cross(txy, tx),
        (2, 2): within4(2, 2) + cross(ty, tx) + 2.0 * cross(txy, txy),
    }
    for (a, b), value in entries.items():
        if not math.isfinite(value):
            raise ComputationError(
                f"V{a}{b} = {value!r} is outside the float range; rescale x or y"
            )
    return VTable(entries=entries, ybar=ybar, xbar=xbar)
