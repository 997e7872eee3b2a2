"""Exact counts of the oracles' work, kept only while a caller asks.

The counters live in one context variable, which holds a
``collections.Counter`` or None.  ``counting()`` sets a fresh counter for
the duration of its block and yields it; outside such a block ``count``
returns at once and counts nothing.  A block nested in another counts
apart from it, and a thread or task counts into its own context's
counter only.

Each oracle counts once per call, never once per sample:

- ``exact_samples`` and ``exact_evaluations``: the joint samples that
  ``verify.exact_bias_mse`` enumerated, and the (sample, estimator)
  evaluations on them;
- ``mc_replicates``, ``mc_skipped`` and ``mc_evaluations``: the
  replicates that ``verify.monte_carlo`` drew (not the draw that names a
  failing replicate), those it skipped, and the (replicate, estimator)
  evaluations on the rest.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

_counts: ContextVar[Counter | None] = ContextVar("stratexp_counts", default=None)


@contextmanager
def counting() -> Iterator[Counter]:
    """Count the oracles' work done inside the block into the yielded counter."""
    counts: Counter = Counter()
    token = _counts.set(counts)
    try:
        yield counts
    finally:
        _counts.reset(token)


def count(**amounts: int) -> None:
    """Add ``amounts`` to the counters, if a ``counting()`` block is open."""
    counts = _counts.get()
    if counts is not None:
        counts.update(amounts)
