"""Spans around the calls into each stratexp layer, recorded from outside.

``Tracer.installed()`` replaces the public functions named in ``TARGETS``
inside the module namespaces that call them (``cli``, ``report``,
``optimize``, ``verify``, ``moments``) with timing wrappers and restores
the originals on exit; nothing under ``src/`` changes.  A span is
``(id, name, start, end, parent, request)``.  Spans are kept in memory and
written out by the caller at the end of the run.

``estimate`` and ``draw_sample`` run once per enumerated sample or drawn
replicate, so recording each call would need memory in proportion to the
sample space.  They are aggregated instead: one record per (name, parent
span, thread) with the call count and the summed duration.

Worker threads started inside ``monte_carlo`` have no open span of their
own; their calls are parented to the innermost span open on the thread
that installed the tracer.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter

# (module whose namespace is patched, attribute, span name, aggregated)
TARGETS = (
    ("stratexp.cli", "build_config", "cli.build_config", False),
    ("stratexp.cli", "run", "report.run", False),
    ("stratexp.cli", "emit", "report.emit", False),
    ("stratexp.report", "load_population_file", "population.load_population_file", False),
    ("stratexp.report", "v_table", "moments.v_table", False),
    ("stratexp.moments", "summarize_stratum", "population.summarize_stratum", False),
    ("stratexp.report", "bias", "expansion.bias", False),
    ("stratexp.report", "mse", "expansion.mse", False),
    ("stratexp.report", "printed_second_order", "expansion.printed_second_order", False),
    ("stratexp.optimize", "mse", "expansion.mse", False),
    ("stratexp.optimize", "mse_parameter_polynomial", "expansion.mse_parameter_polynomial", False),
    ("stratexp.report", "optimize_spec", "optimize.optimize_spec", False),
    ("stratexp.report", "exact_bias_mse", "verify.exact_bias_mse", False),
    ("stratexp.report", "monte_carlo", "verify.monte_carlo", False),
    ("stratexp.verify", "draw_sample", "verify.draw_sample", True),
    ("stratexp.verify", "estimate", "estimators.estimate", True),
)

# return-value facts recorded per span: name -> (key, extractor)
RESULT_FACTS = {
    "optimize.optimize_spec": ("iterations", lambda out: out.iterations),
    "verify.monte_carlo": ("skipped", lambda out: out.skipped),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.facts: dict[int, dict[str, int]] = {}
        self.request: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._aggregates: list[dict] = []  # one dict per thread
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        return self._owner_stack[-1] if self._owner_stack else None

    def _thread_aggregate(self) -> dict:
        agg = getattr(self._local, "agg", None)
        if agg is None:
            agg = self._local.agg = {}
            with self._lock:
                self._aggregates.append(agg)
        return agg

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its id."""
        stack = self._stack()
        sid = next(self._ids)
        parent = self._parent(stack)
        stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.request))

    def _wrap(self, name: str, fn, aggregated: bool):
        fact = RESULT_FACTS.get(name)
        if aggregated:
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    key = (name, self._parent(self._stack()), self.request)
                    agg = self._thread_aggregate()
                    slot = agg.get(key)
                    if slot is None:
                        agg[key] = [1, elapsed]
                    else:
                        slot[0] += 1
                        slot[1] += elapsed
        else:
            def wrapper(*args, **kwargs):
                with self.span(name) as sid:
                    out = fn(*args, **kwargs)
                    if fact is not None:
                        self.facts[sid] = {fact[0]: fact[1](out)}
                    return out
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        self._owner_stack = self._stack()
        try:
            for module_name, attr, name, aggregated in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, aggregated))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- reading -----------------------------------------------------------

    def aggregates(self) -> list[tuple[str, int | None, int | None, int, float]]:
        """(name, parent, request, calls, seconds), merged over threads."""
        merged: dict[tuple, list] = {}
        for agg in self._aggregates:
            for key, (calls, seconds) in agg.items():
                slot = merged.setdefault(key, [0, 0.0])
                slot[0] += calls
                slot[1] += seconds
        return [(*key, calls, seconds) for key, (calls, seconds) in merged.items()]

    def write(self, path: str) -> None:
        """One JSON object per line: spans, then aggregated leaf calls."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, request in self.spans:
                rec = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "request": request}
                if sid in self.facts:
                    rec["facts"] = self.facts[sid]
                fh.write(json.dumps(rec) + "\n")
            for name, parent, request, calls, seconds in self.aggregates():
                fh.write(json.dumps({"name": name, "parent": parent, "request": request,
                                     "calls": calls, "seconds": seconds}) + "\n")


def self_times(spans, aggregates=()) -> dict[int, float]:
    """Span duration minus the part of it covered by its children.

    Aggregated children carry no interval; their summed duration counts as
    covered (they run one at a time on each thread, but several threads can
    overlap, so the subtraction stops at zero).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    aggregated: dict[int, float] = {}
    for _, parent, _, _, seconds in aggregates:
        if parent is not None:
            aggregated[parent] = aggregated.get(parent, 0.0) + seconds
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        duration = end - start
        out[sid] = max(0.0, duration - covered - aggregated.get(sid, 0.0))
    return out
