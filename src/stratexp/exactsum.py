"""Exactly rounded row sums with the bits of ``math.fsum``.

``row_sums(rows)`` returns, for each row of equal-length float64 columns,
the correctly rounded value of its exact sum, which is what ``math.fsum``
returns, so the two agree bit for bit.  Short rows go to ``math.fsum``
directly.  Long rows go through a vectorized bucket kernel:

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

Rows where the kernel cannot be exact take ``math.fsum`` of the row itself,
so ``inf`` and ``nan`` behave as they do there (``inf`` where ``math.fsum``
raises): a row with a non-finite entry or an entry near the top of the
float range, and a row whose exact sum is zero, whose sign is
``math.fsum``'s own rule for signed zeros.

``row_means(rows)`` takes each row's correctly rounded mean from the same
exact parts: folded to a few floats, they are one integer over a power of
two, and Python's ``int / int`` rounds that over N correctly, ties to
even.  ``fold(values)`` keeps an exact running sum in a few floats, and
``fsum`` is ``math.fsum`` with ``inf`` where it raises.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# Below this row length math.fsum of the row is as fast as the kernel, whose
# fixed cost is about 50 us.
KERNEL_MIN_LENGTH = 256
# Each bucket holds at most this many terms of below 2**27 each, so its sum
# stays an exact integer below 2**53.
_KERNEL_MAX_LENGTH = 2**26
# A bucket sums at most 2**26 terms of magnitude below 2**960, so its scaled
# value and every partial sum of a row stay far inside the float range.
_KERNEL_MAX_EXP = 960


def _takes_kernel(length: int) -> bool:
    return KERNEL_MIN_LENGTH <= length <= _KERNEL_MAX_LENGTH


def fsum(values) -> float:
    """``math.fsum(values)``, or ``inf`` where it raises (a sum past the
    float range, or ``inf - inf``)."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.inf


def fold(values: list[float]) -> list[float]:
    """A few floats whose exact sum is that of ``values``, each the exactly
    rounded rest, ending at a zero or non-finite one; so
    ``parts = fold(parts + block)`` keeps an exact running sum."""
    parts = [fsum(values)]
    while parts[-1] and math.isfinite(parts[-1]):
        parts.append(fsum(values + [-p for p in parts]))
    return parts


def exact_parts(rows: Sequence[np.ndarray]) -> list[list[float]]:
    """For each row, a list of floats whose exact sum is the row's exact sum.

    ``rows`` is a 2-D float64 array or a sequence of equal-length float64
    columns.  A row that the kernel does not take is returned as its own
    entries, and no rows give no parts.
    """
    if not len(rows) or not _takes_kernel(len(rows[0])):
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
        exact = (top <= _KERNEL_MAX_EXP) & np.isfinite(buckets).all(axis=1)
    return [
        parts if ok else row.tolist()
        for parts, ok, row in zip(buckets.tolist(), exact.tolist(), rows)
    ]


def _parts_sum(parts: list[float], row: np.ndarray) -> float:
    """The exactly rounded sum of ``row``, given its ``exact_parts``.

    A zero sum is taken from the row itself: ``math.fsum`` gives the sign
    of a zero sum by its own rule, which the parts do not carry.
    """
    total = fsum(parts)
    return total if total else fsum(row.tolist())


def row_sums(rows: Sequence[np.ndarray]) -> list[float]:
    """``fsum(row)`` for each of the equal-length float64 rows, with the
    same bits; see the module docstring."""
    if not _takes_kernel(len(rows[0])):
        return [fsum(row.tolist()) for row in rows]
    return [_parts_sum(p, row) for p, row in zip(exact_parts(rows), rows)]


def row_means(rows: Sequence[np.ndarray]) -> list[float]:
    """The correctly rounded mean of each row, ties to even.

    The row's ``exact_parts``, folded to a few floats, are written as one
    integer over their common power-of-two denominator D, and Python's
    ``int / int`` divides it by ``D * N``, correctly rounded.  No deviation
    ``row - m`` is rounded before it is summed, and a zero sum gives 0.0.

    A mean is ``inf`` or ``nan`` where the row sum leaves the float range,
    and ``inf`` where a deviation ``row - m`` would.
    """
    n = len(rows[0])
    means = []
    for parts in exact_parts(rows):
        folded = fold(parts)
        m = folded[0]  # the exactly rounded sum: inf or nan if not finite
        if math.isfinite(m):
            numerator, denominator = 0, 1
            for a, b in map(float.as_integer_ratio, folded):
                # powers of two: the larger denominator is a multiple of the other
                if b > denominator:
                    numerator, denominator = numerator * (b // denominator), b
                numerator += a * (denominator // b)
            m = numerator / (denominator * n)
            # the parts are the row itself, or the buckets of a row whose
            # entries, and so its deviations, are far inside the float range
            if not (math.isfinite(max(parts) - m) and math.isfinite(min(parts) - m)):
                m = math.inf
        means.append(m)
    return means
