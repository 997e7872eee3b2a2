"""Exactly rounded row sums with the bits of ``math.fsum``.

``row_sums(rows)`` returns, for each row of equal-length float64 columns,
the correctly rounded value of its exact sum, which is what ``math.fsum``
returns, so the two agree bit for bit.  Short rows go to ``math.fsum``
directly.  Long rows go first through a certified filter, the error-free
extraction of Rump, Ogita and Oishi ("Accurate floating-point summation
part I", SIAM J. Sci. Comput. 31(1), 2008), one array pass per step:

* mu = max|row| and sigma = 2**(m + e), where 2**m >= n + 2 and
  mu < 2**e;
* q = (sigma + row) - sigma and row - q are exact, and t = sum(q) is
  exact in any order: every q is a multiple of 2**-53 * sigma, and every
  partial sum is below sigma;
* p = fl(sum(row - q)) is within bound = 8 n 2**-53 fl(sum|row - q|) of
  the exact sum of row - q (the 8 covers the rounding of the bound itself);
* r = fl(t + p), whose exact error d TwoSum gives.

The exact sum lies within |d| + bound of r.  Where that is strictly below
half the gap from r to its neighbours (a quarter of ``spacing(|r|)`` at a
power of two, whose lower neighbour is half as far), r is the correctly
rounded sum.  r is taken only then, only when r != 0 (a zero sum follows
``math.fsum``'s sign rule), and only when 2**-900 < mu < 2**(1000 - m), so
that sigma, t and r stay far inside the float range and no step
underflows.  Every other row goes through a vectorized bucket kernel:

* ``np.frexp`` writes each entry as ``m * 2**e`` with ``0.5 <= |m| < 1``,
  so ``M = m * 2**53`` is an integer below ``2**53`` in magnitude;
* ``M`` is cut into a high part ``floor(M / 2**26)`` and a low part
  ``M mod 2**26``, integers of at most 27 and 26 bits, with
  ``x = hi * 2**(e - 27) + lo * 2**(e - 53)``;
* ``np.bincount`` sums the high and the low parts per (row, e).  Every
  partial sum is an integer below ``2**53``, so it is exact, and so is its
  scaling by ``np.ldexp``;
* ``math.fsum`` of a row's few bucket values is then its exact sum,
  correctly rounded.

``exact_parts(rows)`` gives those bucket values.  A row they cannot stand
for comes back as its own entries, so ``fsum`` behaves as on the row: a
row with an entry that is not finite or is near the top of the float
range, and a row whose parts are all zero, since bucket parts are never
-0.0 and a zero sum follows ``math.fsum``'s own rule for signed zeros.

``block_sums(blocks)`` folds each block's parts into exact running sums.
``quotient(parts, n)`` writes finite parts as one integer over a power of
two, which Python's ``int / int`` divides by n correctly rounded, ties to
even.  ``row_means(rows)`` gives each row's mean that way: of t + p less
and plus the filter's bound, where both round to the same mean, else of
the row's parts, folded.  ``fold``
keeps an exact running sum in a few floats, and ``fsum`` is ``math.fsum``
that does not raise: order-independent where ``math.fsum`` overflows
midway, and ``inf`` for ``inf - inf``.

``fsum_columns(cols)`` sums the other way: each column of a short (K, m)
array, with the bits of ``fsum``, by an error-free TwoSum filter that
hands ``fsum`` only a column it cannot certify.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence

import numpy as np

# Rows at least this long go through the certified filter, and a row it
# refuses through the bucket kernel; shorter ones to math.fsum as lists.  By
# timeit (Python 3.11.7, NumPy 2.4.6, best of 30 interleaved runs), the
# filter's fixed cost is about 35 us: ten moment rows of 96 units took 34 us
# as lists and 40 us by the filter, of 128 units 45 and 41 us; two columns'
# means of 128 units 32 and 34 us, of 160 units 38 and 36 us.
KERNEL_MIN_LENGTH = 128
# Each bucket holds at most this many terms of below 2**27 each, so its sum
# stays an exact integer below 2**53.
_KERNEL_MAX_LENGTH = 2**26
# A bucket sums at most 2**26 terms of magnitude below 2**960, so its scaled
# value and every partial sum of a row stay far inside the float range.
_KERNEL_MAX_EXP = 960
_FLOAT_MAX = Fraction(sys.float_info.max)


def fsum(values: Sequence[float]) -> float:
    """``math.fsum(values)``, or ``inf`` for ``inf - inf``.

    Where ``math.fsum`` overflows midway, which depends on the order of the
    values, the result is that of the non-finite values if there are any,
    else the exact sum correctly rounded, or ``inf`` of its sign past the
    float range.
    """
    try:
        return math.fsum(values)
    except ValueError:
        return math.inf
    except OverflowError:
        pass
    special = [x for x in values if not math.isfinite(x)]
    if special:
        return fsum(special)
    exact = sum(map(Fraction, values))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def fold(values: list[float]) -> list[float]:
    """A few floats whose exact sum is that of ``values``, each the exactly
    rounded rest, ending at a zero or non-finite one; so
    ``parts = fold(parts + block)`` keeps an exact running sum.  Finite
    values whose sum S is past the float range give |k| copies of the
    largest float M, of the sign of k = floor(S / M), and then the rest,
    which is in [0, M)."""
    parts = [fsum(values)]
    if math.isinf(parts[0]) and all(map(math.isfinite, values)):
        whole, rest = divmod(sum(map(Fraction, values)), _FLOAT_MAX)
        parts = [math.copysign(sys.float_info.max, whole)] * abs(whole)
        while rest:
            parts.append(float(rest))
            rest -= Fraction(parts[-1])
        return parts + [0.0]
    while parts[-1] and math.isfinite(parts[-1]):
        parts.append(fsum(values + [-p for p in parts]))
    return parts


def exact_parts(rows: Sequence[np.ndarray]) -> list[list[float]]:
    """For each row, a list of floats whose exact sum is the row's exact sum.

    ``rows`` is a 2-D float64 array or a sequence of equal-length float64
    columns.  A row that the kernel does not take, or whose parts are all
    zero, is returned as its own entries, and no rows give no parts.
    """
    if not len(rows) or not KERNEL_MIN_LENGTH <= len(rows[0]) <= _KERNEL_MAX_LENGTH:
        return [row.tolist() for row in rows]
    block = np.array(rows, dtype=np.float64)  # a fresh copy, split in place
    exps = np.frexp(block, out=(block, np.empty(block.shape, np.intc)))[1]
    top = exps.max(axis=1)
    low = int(exps.min())
    span = int(top.max()) - low + 1
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite rows
        block *= 2.0**27
        hi = np.floor(block)
        block -= hi
        block *= 2.0**26  # now the low part, an integer below 2**26
        bins = exps.astype(np.intp)
        bins += (span * np.arange(len(block), dtype=np.intp) - low)[:, None]
        bins = bins.ravel()
        size = len(block) * span
        scale = np.arange(low, low + span, dtype=np.intp)
        buckets = np.concatenate(
            (
                np.ldexp(np.bincount(bins, hi.ravel(), size).reshape(-1, span), scale - 27),
                np.ldexp(np.bincount(bins, block.ravel(), size).reshape(-1, span), scale - 53),
            ),
            axis=1,
        )
        # all-zero parts would lose a zero sum's sign, which the row keeps
        exact = (top <= _KERNEL_MAX_EXP) & np.isfinite(buckets).all(axis=1) & buckets.any(axis=1)
    return [
        parts if ok else row.tolist()
        for parts, ok, row in zip(buckets.tolist(), exact.tolist(), rows)
    ]


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth's TwoSum),
    elementwise; exact for all finite a, b whose sum stays in range."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _extract(block: np.ndarray) -> tuple[np.ndarray, ...]:
    """(mu, t, p, bound, inside) for each row of the 2-D float64 ``block``,
    by the extraction of the module docstring: mu = max|row| (nan for a row
    holding nan), and for a row ``inside`` the guard on mu, the exact sum is
    within ``bound`` of t + p.  One scratch array of the block's size holds
    q, then row - q, then its magnitudes."""
    n = block.shape[1]
    m = (n + 1).bit_length()  # the least m with 2**m >= n + 2
    with np.errstate(over="ignore", invalid="ignore"):  # rows outside the guard
        mu = np.maximum(block.max(axis=1), -block.min(axis=1))
        inside = (mu > 2.0**-900) & (mu < 2.0 ** (1000 - m))
        # mu < 2**e for e = frexp(mu)[1]; sigma is 0 outside the guard
        sigma = np.ldexp(inside.astype(np.float64), np.frexp(mu)[1] + m)[:, None]
        scratch = np.add(block, sigma)
        scratch -= sigma
        t = scratch.sum(axis=1)
        np.subtract(block, scratch, out=scratch)
        p = scratch.sum(axis=1)
        np.abs(scratch, out=scratch)
        bound = scratch.sum(axis=1) * (8 * n * 2.0**-53)
    return mu, t, p, bound, inside


def _certified(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r, ok) for each row of the 2-D float64 ``block``: where ``ok``, r
    has the bits of ``fsum(row)``; see the module docstring."""
    _, t, p, bound, inside = _extract(block)
    with np.errstate(over="ignore", invalid="ignore"):  # rows outside the guard
        r, d = _two_sum(t, p)
        size = np.abs(r)
        # half the gap to r's neighbours: at a power of two, the one below
        # is half as far as the one above
        half_gap = np.spacing(size) * np.where(np.frexp(size)[0] == 0.5, 0.25, 0.5)
        ok = inside & (r != 0) & (np.abs(d) + bound < half_gap)
    return r, ok


def row_sums(rows: Sequence[np.ndarray]) -> list[float]:
    """``fsum(row)`` for each of the equal-length float64 rows, with the
    same bits: the certified filter's r where it holds, else the ``fsum``
    of the row's ``exact_parts``; see the module docstring."""
    block = np.asarray(rows, dtype=np.float64)
    if not block.size or block.shape[1] < KERNEL_MIN_LENGTH:
        return [fsum(row) for row in block.tolist()]
    r, ok = _certified(block)
    sums = r.tolist()
    refused = np.flatnonzero(~ok).tolist()
    if refused:
        for i, parts in zip(refused, exact_parts(block[refused])):
            sums[i] = fsum(parts)
    return sums


def block_sums(blocks: Iterable[Sequence[np.ndarray]]) -> list[float]:
    """For each row k, ``fsum`` of row k of every block concatenated, with
    the same bits.  Each block goes through one ``exact_parts`` call and is
    folded into exact running sums, so one block is held at a time."""
    sums: list[list[float]] = []
    for rows in blocks:
        sums = [fold(s + p) for s, p in zip_longest(sums, exact_parts(rows), fillvalue=[])]
    return [fsum(s) for s in sums]


def quotient(parts: Iterable[float], n: int) -> float:
    """The exact sum of the finite ``parts`` divided by ``n`` >= 1,
    correctly rounded, ties to even, or ``inf`` of its sign past the float
    range.  The parts are written as one integer over their common
    power-of-two denominator D, and Python's ``int / int`` divides it by
    ``D * n``; a zero sum gives 0.0."""
    numerator, denominator = 0, 1
    for a, b in map(float.as_integer_ratio, parts):
        # powers of two: the larger denominator is a multiple of the other
        if b > denominator:
            numerator, denominator = numerator * (b // denominator), b
        numerator += a * (denominator // b)
    try:
        return numerator / (denominator * n)
    except OverflowError:
        return math.inf if numerator > 0 else -math.inf


def row_means(rows: Sequence[np.ndarray]) -> tuple[list[float], list[float]]:
    """(means, mu): the correctly rounded mean of each of the equal-length
    float64 rows, ties to even, and the largest magnitude of its entries.

    For a long row inside the filter's guard, the exact sum lies within
    the bound of t + p, so where t + p less and plus the bound, divided by
    N by ``quotient``, round to the same nonzero mean, that is the mean.
    Every other row's ``exact_parts``, folded to a few floats, go to
    ``quotient`` with N.  No deviation ``row - m`` is rounded before it is
    summed, and a zero sum gives 0.0.

    A mean is ``inf``, ``-inf`` or ``nan`` where the row sum leaves the
    float range.
    """
    block = np.asarray(rows, dtype=np.float64)
    n = block.shape[1]
    if n < KERNEL_MIN_LENGTH:
        mu = np.abs(block).max(axis=1).tolist()
        return [_mean(parts, n) for parts in block.tolist()], mu
    mu, t, p, bound, inside = (a.tolist() for a in _extract(block))
    means = []
    for row, ok, ti, pi, b in zip(block, inside, t, p, bound):
        # 0.0 outside the guard, which takes the row's parts as a zero mean does
        mean = quotient((ti, pi, -b), n) if ok else 0.0
        if not mean or mean != quotient((ti, pi, b), n):
            mean = _mean(exact_parts(row[None, :])[0], n)
        means.append(mean)
    return means, mu


def _mean(parts: list[float], n: int) -> float:
    """The exact sum of ``parts`` over ``n``, correctly rounded, by
    ``quotient`` of the parts folded; the sum's own value where that is
    not finite."""
    folded = fold(parts)
    total = fsum(folded)  # the exactly rounded sum, or an infinity or nan
    return quotient(folded, n) if math.isfinite(total) else total


def fsum_columns(cols: np.ndarray) -> list[float]:
    """``fsum(cols[:, i])`` for each column i of the (K, m) float64
    array, K >= 1, with the same bits, as one list.

    The error-free filter of Ogita, Rump and Oishi ("Accurate sum and dot
    product", SIAM J. Sci. Comput., 2005): one TwoSum cascade adds the K
    rows into s and leaves K - 1 exact errors, and a second adds those
    errors into s2.  Where every error of the second cascade is zero,
    s + s2 is the exact sum, and ``s + s2`` rounds it once, ties to even,
    as ``math.fsum`` does.  Every other column is summed by ``fsum``, which
    looks ``math.fsum`` up at call time:

    * a nonzero second-level error;
    * a zero sum, for ``math.fsum``'s sign rule;
    * an entry that is not finite, or absolute values that add up to
      2**1023 or more.  No running sum then leaves the float range in
      either routine, so s and s2 are finite and ``math.fsum`` raises no
      intermediate overflow that the filter would miss.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        redo = ~(np.abs(cols).sum(axis=0) < 2.0**1023)  # nan is not below it
        s, errors = cols[0], []
        for col in cols[1:]:
            s, e = _two_sum(s, col)
            errors.append(e)
        s2 = errors[0] if errors else 0.0
        for e in errors[1:]:
            s2, f = _two_sum(s2, e)
            redo |= f != 0
        total = s + s2
        redo |= total == 0
    sums = total.tolist()
    for i in np.flatnonzero(redo).tolist():
        sums[i] = fsum(cols[:, i].tolist())
    return sums
