"""Calling the program, calibrating the machine, and the statistics of a run.

The machines this runs on are shared: the same work takes up to twice as
long for a second or more at a time when neighbours are busy.  Every run
therefore times a fixed calibration kernel between reports and reports
times at a nominal machine speed, at which the kernel takes
CALIBRATION_NOMINAL_S.  Each report's wall time is divided by its
slowdown: the first kernel time taken after the report ended, over the
nominal one.  The kernel runs in a helper interpreter of its own
(``python3 measure.py --kernel``) on the CPU the benchmark last ran on, so
it meets the same neighbours as the report before it, while the program's
heap, allocator state and threads do not change its cost.  In 160-second
traces of census and sweep on a shared 2-CPU machine, cut into 20-second
windows, this pairing spread the windows' p50 by 0.03 (IQR over median),
against 0.05-0.10 when a whole run is divided by its median kernel time.
Raw wall times are recorded next to the scaled ones.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import io
import math
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile
CALIBRATION_NOMINAL_S = 0.015  # kernel time at the nominal speed
CALIBRATION_INTERVAL_S = 0.25  # at most one kernel run per interval of reports


@dataclass
class Record:
    """One report: which request, how it ended, how long it took."""

    request: int
    code: int
    seconds: float
    traced: bool = False
    output_ok: bool = True  # cleared when the output fails its checks
    end: float = 0.0  # perf_counter() when the report returned


def invoke(argv) -> tuple[int, str, str, float]:
    """Run ``stratexp.cli.main(argv)`` in process: (exit code, stdout, stderr, seconds).

    An exception escaping ``main`` is a failed report (code -1), not a
    benchmark crash; ``SystemExit`` (argument errors) keeps its code.

    A full collection runs first, outside the timed region.  The collector
    otherwise enters each report in a state left by the reports before it,
    and on census that alone moved the same report's time by up to 1.9x
    from pass to pass.
    """
    from stratexp import cli

    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed report, counted below
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = -1
    seconds = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def calibration_kernel() -> float:
    """Run a fixed allocation-and-arithmetic workload; return its wall time.

    It allocates and walks tuples of floats, sums exactly and updates a
    dict, like the program's population and moment code.  The cyclic
    garbage collector is off while it runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        rows = [(i * 0.5, i * 0.25 + 1.0) for i in range(30_000)]
        mean = math.fsum(x for x, _ in rows) / len(rows)
        math.fsum((x - mean) ** 2 * y for x, y in rows)
        table = {}
        for i, (x, y) in enumerate(rows):
            table[i & 1023] = x + y
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Kernel timings from the helper interpreter, at most one per interval.

    Use as a context manager: the helper is started on entry and stopped
    (and waited for) on exit.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (taken at, kernel seconds)
        self._helper: subprocess.Popen | None = None

    def __enter__(self) -> "Calibrator":
        self._helper = subprocess.Popen(
            [sys.executable, __file__, "--kernel"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        return self

    def __exit__(self, *exc) -> None:
        helper, self._helper = self._helper, None
        helper.stdin.close()
        try:
            helper.wait(timeout=10)
        except subprocess.TimeoutExpired:
            helper.kill()
            helper.wait()
        helper.stdout.close()

    def time_kernel(self) -> float:
        """One kernel run in the helper, on this process's CPU; this process waits for it."""
        self._helper.stdin.write(f"{current_cpu()}\n")
        line = self._helper.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        return float(line)

    def sample(self) -> None:
        at = perf_counter()
        self.samples.append((at, self.time_kernel()))

    def maybe(self) -> None:
        if not self.samples or perf_counter() - self.samples[-1][0] >= CALIBRATION_INTERVAL_S:
            self.sample()

    def slowdowns(self, records) -> list[float]:
        """Each report's slowdown: the first kernel time taken after it ended, over the nominal one."""
        if not self.samples or self.samples[-1][0] < max((rec.end for rec in records), default=0.0):
            self.sample()
        times = [at for at, _ in self.samples]
        return [self.samples[bisect.bisect_left(times, rec.end)][1] / CALIBRATION_NOMINAL_S for rec in records]

    def slowdown(self) -> float:
        """Median kernel time over the nominal one: > 1 on a slower machine."""
        if not self.samples:
            self.sample()
        return statistics.median(k for _, k in self.samples) / CALIBRATION_NOMINAL_S


def tail_percentile(values) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with TAIL_BEYOND samples above it.

    With n sorted samples the k-th smallest, k = n - TAIL_BEYOND, is the
    100*k/n percentile and has exactly TAIL_BEYOND samples beyond it.  With
    TAIL_BEYOND samples or fewer no percentile qualifies; the maximum is
    returned as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    k = n - TAIL_BEYOND
    if k < 1:
        return 100.0, ordered[-1]
    return 100.0 * k / n, ordered[k - 1]


def request_medians(records, values) -> list[float]:
    """Each report's value replaced by the median over the run of its request's values.

    On a shared machine a burst of load slows a few consecutive reports
    two- or threefold, a few times a minute; among ~1700 sweep reports the
    tenth-slowest lies inside such a burst, so a tail taken over raw times
    follows the neighbours, not the program.  A request's median over its
    passes keeps its steady cost, and the slowest requests still set the
    tail.
    """
    by_request: dict[int, list[float]] = {}
    for rec, value in zip(records, values):
        by_request.setdefault(rec.request, []).append(value)
    medians = {request: statistics.median(v) for request, v in by_request.items()}
    return [medians[rec.request] for rec in records]


def tally(records) -> tuple[int, int]:
    """(attempted, failed): a report fails on a non-zero exit or a failed check."""
    attempted = len(records)
    failed = sum(1 for r in records if r.code != 0 or not r.output_ok)
    return attempted, failed


def median(values) -> float:
    return statistics.median(values) if values else math.nan


def current_cpu() -> int:
    """The CPU this process last ran on, or -1 where that cannot be read."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return -1


def _kernel_helper() -> None:
    """Time the kernel once per line read from stdin, until stdin closes.

    Each line names the CPU the caller last ran on; the kernel runs there,
    so it meets the same neighbours as the program it calibrates.
    """
    allowed = os.sched_getaffinity(0)
    for line in sys.stdin:
        cpu = int(line)
        if cpu in allowed:
            os.sched_setaffinity(0, {cpu})
        print(repr(calibration_kernel()), flush=True)


if __name__ == "__main__" and sys.argv[1:] == ["--kernel"]:
    _kernel_helper()
