"""stratexp benchmark: one workload, one closed loop, one caller.

    python3 perfbench/run.py --workload {sweep,exact,mc,census} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Each request is an in-process call of ``stratexp.cli.main(argv)``
with ``--format json`` and stdout captured.  Requests cycle through the
seeded workload (see workloads.py); the next starts when the previous one
returned.  Every report is checked (oracles.py) after the timed loop.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes over the workload and
reports the per-layer metrics (tracer.py) plus the tracing overhead.
Times and rates are given at a nominal machine speed, measured by a
calibration kernel that runs between reports (measure.py).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it give each metric with its unit and sample
count, failed_frac, and the run environment.  Spans of a traced run and
the full result record are written under perfbench/_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median
LOOP_CAP_S = 120.0  # the loop stops here even if a pass is unfinished

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

EXPANSION_SPANS = (
    "expansion.bias",
    "expansion.mse",
    "expansion.mse_parameter_polynomial",
    "expansion.printed_second_order",
)


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git not available)"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


class Session:
    """The requests of one run, their reports and their checks."""

    def __init__(self, workload: str, requests: list, probe_argv: tuple[str, ...] = ()):
        self.workload = workload
        self.requests = requests
        self.probe_argv = probe_argv  # the set-up probe's request
        self.records: list[measure.Record] = []
        self.canonical: dict[int, str] = {}  # first output of each request
        self.stderr: dict[int, str] = {}

    def call(self, index: int, traced: bool = False) -> measure.Record:
        code, out, err, seconds = measure.invoke(self.requests[index].argv)
        rec = measure.Record(index, code, seconds, traced, end=perf_counter())
        if code != 0:
            self.stderr.setdefault(index, err)
        elif self.canonical.setdefault(index, out) != out:
            rec.output_ok = False  # JSON reports are byte-deterministic
        self.records.append(rec)
        return rec

    def check(self, reference_for=None) -> dict[int, list[str]]:
        """Run the oracles on each request's first output; mark failures."""
        problems: dict[int, list[str]] = {}
        tables: dict[str, dict] = {}
        for index, text in sorted(self.canonical.items()):
            request = self.requests[index]
            try:
                report = json.loads(text)
                if request.csv_path not in tables:
                    tables[request.csv_path] = oracles.read_units(request.csv_path)
                truth = oracles.PopulationTruth(request, tables[request.csv_path])
                reference = reference_for(index) if reference_for else None
                found = oracles.check(self.workload, request, report, truth, reference)
            except Exception as exc:  # a report the checks cannot read is a failed report
                found = [f"unreadable report: {type(exc).__name__}: {exc}"]
            if found:
                problems[index] = found
        for index, err in self.stderr.items():
            problems.setdefault(index, []).append(f"non-zero exit: {err.strip()[-300:]}")
        for rec in self.records:
            if rec.request in problems:
                rec.output_ok = False
        return problems


def closed_loop(
    session: Session, seconds: float, passes: int, calibrator: measure.Calibrator,
    tracer: Tracer | None = None,
) -> float:
    """Cycle through the requests in whole passes until ``seconds`` and ``passes`` are reached.

    Whole passes keep every request equally often in the statistics.  The
    calibration kernel runs between reports.  With a tracer, odd passes run
    traced.  Returns the loop's wall time.
    """
    n = len(session.requests)
    start = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - start
        if (i % n == 0 and elapsed >= seconds and i >= passes * n) or elapsed >= LOOP_CAP_S:
            return elapsed
        index = i % n
        if tracer is not None and (i // n) % 2 == 1:
            tracer.request = i
            with tracer.installed(), tracer.span("request"):
                session.call(index, traced=True)
        else:
            session.call(index)
        calibrator.maybe()
        i += 1


def mc_references(session: Session, tracer: Tracer | None = None) -> dict[int, dict]:
    """Each mc request's report at --workers 1, keyed by request index."""
    refs = {}
    for index, request in enumerate(session.requests):
        argv = list(request.argv)
        argv[argv.index("--workers") + 1] = "1"
        if tracer is not None:
            tracer.request = -(index + 1)  # negative ids mark reference reports
            with tracer.installed(), tracer.span("request"):
                code, out, err, _ = measure.invoke(argv)
        else:
            code, out, err, _ = measure.invoke(argv)
        refs[index] = json.loads(out) if code == 0 else None
    return refs


def setup_seconds(argv, calibrator: measure.Calibrator) -> tuple[float, list[dict]]:
    """Median over fresh interpreters of import time + (first report - steady report).

    ``argv`` is the workload's probe request (workloads.probe_argv); the
    steady time is the median of its later reports in the same probe.
    Each probe runs on the CPU this process last ran on and is scaled by
    the median of four kernel timings there, two just before it and two
    just after.
    """
    probes = []
    for _ in range(SETUP_PROBES):
        kernel_s = [calibrator.time_kernel() for _ in range(2)]
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"), json.dumps(argv),
             str(measure.current_cpu())],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if any(probe["codes"]):
            raise RuntimeError(f"setup probe reports exited {probe['codes']}")
        probe["kernel_s"] = kernel_s + [calibrator.time_kernel() for _ in range(2)]
        probes.append(probe)
    values = [
        (p["import_s"] + p["report_s"][0] - measure.median(p["report_s"][1:]))
        * measure.CALIBRATION_NOMINAL_S / measure.median(p["kernel_s"])
        for p in probes
    ]
    return measure.median(values), probes


def end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    session.call(0)  # warm-up: lazy imports and first-call costs stay out of the loop
    session.records.clear()
    records = session.records
    with measure.Calibrator() as calibrator:
        wall = closed_loop(session, seconds, passes=1, calibrator=calibrator)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw_ms = [r.seconds * 1e3 for r in records]
        ms = [t / f for t, f in zip(raw_ms, calibrator.slowdowns(records))]
        slowdown = calibrator.slowdown()
        setup_s, probes = setup_seconds(session.probe_argv, calibrator)
    refs = mc_references(session) if session.workload == "mc" else None
    problems = session.check(refs.get if refs else None)
    ok = [r for r in records if r.code == 0 and r.output_ok]
    busy_s = sum(ms) / 1e3
    pct, tail_ms = measure.tail_percentile(measure.request_medians(records, ms))
    metrics = {
        "reports_per_s": len(ok) / busy_s,
        "report_ms_p50": measure.median(ms),
        "report_ms_tail": tail_ms,
        "items_per_s": sum(session.requests[r.request].items for r in ok) / busy_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "samples": len(records),
        "loop_s": wall,
        "slowdown": slowdown,
        "calibrations": len(calibrator.samples),
        "raw": {
            "reports_per_s": len(ok) / sum(raw_ms) * 1e3,
            "report_ms_p50": measure.median(raw_ms),
            "report_ms_tail": measure.tail_percentile(measure.request_medians(records, raw_ms))[1],
        },
        "tail_percentile": pct,
        "setup_probes": probes,
        "problems": problems,
    }
    return metrics, detail


def _pass_representatives(records) -> dict[int, int]:
    """First traced request id (loop position) of each distinct request."""
    first: dict[int, int] = {}
    for position, rec in enumerate(records):
        if rec.traced:
            first.setdefault(rec.request, position)
    return first


def per_layer(session: Session, seconds: float, tracer: Tracer) -> tuple[dict, dict]:
    session.call(0)
    session.records.clear()
    with measure.Calibrator() as calibrator:
        closed_loop(session, seconds, passes=2, calibrator=calibrator, tracer=tracer)
        slowdown = calibrator.slowdown()
    refs = mc_references(session, tracer) if session.workload == "mc" else None
    problems = session.check(refs.get if refs else None)

    records = session.records
    traced_ids = [i for i, r in enumerate(records) if r.traced]
    reps = set(_pass_representatives(records).values())
    n_traced = max(1, len(traced_ids))

    names = {sid: name for sid, name, *_ in tracer.spans}
    dur = defaultdict(float)  # (request id, name) -> seconds
    calls = defaultdict(int)
    own = defaultdict(float)
    facts = defaultdict(int)  # (request id, fact) -> total
    aggregates = tracer.aggregates()
    self_s = self_times(tracer.spans, aggregates)
    for sid, name, start, end, _, req in tracer.spans:
        dur[req, name] += end - start
        calls[req, name] += 1
        own[req, name] += self_s[sid]
        for key, value in tracer.facts.get(sid, {}).items():
            facts[req, key] += value
    leaf_calls = defaultdict(int)  # (request id, leaf name, parent span name)
    leaf_s = defaultdict(float)
    for name, parent, req, n, s in aggregates:
        leaf_calls[req, name, names.get(parent)] += n
        leaf_s[req, name, names.get(parent)] += s

    def mean_ms(table, *names_):
        return 1e3 * sum(table[r, n] for r in traced_ids for n in names_) / n_traced

    def pass_total(table, *keys):
        return sum(table[r, k] for r in reps for k in keys)

    def leaf_total(ids, name, parent, table):
        return sum(table[r, name, parent] for r in ids)

    units = sum(session.requests[records[r].request].units for r in traced_ids)
    population_s = sum(dur[r, n] for r in traced_ids for n in ("population.load_population_file", "population.summarize_stratum"))
    exact_s = sum(dur[r, "verify.exact_bias_mse"] for r in traced_ids)
    exact_n = leaf_total(traced_ids, "estimators.estimate", "verify.exact_bias_mse", leaf_calls)

    def mc_rate(ids):
        draws = leaf_total(ids, "verify.draw_sample", "verify.monte_carlo", leaf_calls)
        busy = sum(dur[r, "verify.monte_carlo"] for r in ids)
        return draws / busy if busy else 0.0

    ref_ids = [-(i + 1) for i in range(len(session.requests))] if refs else []
    rate_1 = mc_rate(ref_ids)

    untraced = defaultdict(list)
    traced = defaultdict(list)
    for rec in records:
        (traced if rec.traced else untraced)[rec.request].append(rec.seconds)
    both = [i for i in untraced if i in traced]
    overhead = (
        sum(measure.median(traced[i]) for i in both) / sum(measure.median(untraced[i]) for i in both) - 1.0
    )

    metrics = {
        "cli.config_ms": mean_ms(dur, "cli.build_config"),
        "population.load_ms": mean_ms(dur, "population.load_population_file"),
        "population.summarize_ms": mean_ms(dur, "population.summarize_stratum"),
        "population.units_per_s": units / population_s if population_s else 0.0,
        "moments.vtable_self_ms": mean_ms(own, "moments.v_table"),
        "expansion.calls": pass_total(calls, *EXPANSION_SPANS),
        "expansion.busy_ms": mean_ms(dur, *EXPANSION_SPANS),
        "optimize.calls": pass_total(calls, "optimize.optimize_spec"),
        "optimize.self_ms": mean_ms(own, "optimize.optimize_spec"),
        "optimize.golden_iterations": pass_total(facts, "iterations"),
        "verify.exact_ms": mean_ms(dur, "verify.exact_bias_mse"),
        "verify.exact_samples": leaf_total(reps, "estimators.estimate", "verify.exact_bias_mse", leaf_calls),
        "verify.exact_samples_per_s": exact_n / exact_s if exact_s else 0.0,
        "verify.mc_ms": mean_ms(dur, "verify.monte_carlo"),
        "verify.mc_replicates": leaf_total(reps, "verify.draw_sample", "verify.monte_carlo", leaf_calls),
        "verify.mc_skipped": pass_total(facts, "skipped"),
        "verify.draw_ms": 1e3 * leaf_total(traced_ids, "verify.draw_sample", "verify.monte_carlo", leaf_s) / n_traced,
        "verify.mc_speedup": mc_rate(traced_ids) / rate_1 if rate_1 else 0.0,
        "estimators.estimate_calls": sum(
            leaf_total(reps, "estimators.estimate", p, leaf_calls)
            for p in ("verify.exact_bias_mse", "verify.monte_carlo")
        ),
        "estimators.estimate_ms": 1e3 * sum(
            leaf_total(traced_ids, "estimators.estimate", p, leaf_s)
            for p in ("verify.exact_bias_mse", "verify.monte_carlo")
        ) / n_traced,
        "report.run_self_ms": mean_ms(own, "report.run"),
        "report.emit_ms": mean_ms(dur, "report.emit"),
        "report.output_bytes": sum(len(t.encode()) for t in session.canonical.values()) / max(1, len(session.canonical)),
        "trace.overhead_frac": overhead,
    }
    for name, unit in LAYER_UNITS.items():  # to the nominal machine speed
        if unit == "ms":
            metrics[name] /= slowdown
        elif unit == "1/s":
            metrics[name] *= slowdown
    detail = {
        "samples": len(records),
        "slowdown": slowdown,
        "calibrations": len(calibrator.samples),
        "traced_reports": len(traced_ids),
        "spans": len(tracer.spans),
        "problems": problems,
    }
    return metrics, detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "stratexp" / "__init__.py").is_file():
        print(f"perfbench: no stratexp sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import stratexp

    if Path(stratexp.__file__).resolve().parent != (src / "stratexp").resolve():
        print(f"perfbench: imported stratexp from {stratexp.__file__}, not {src}", file=sys.stderr)
        return 2

    work = HERE / "_work"
    data_dir = work / f"data-{args.workload}-{args.seed}-{os.getpid()}"
    nproc = os.cpu_count() or 1
    try:
        requests = workloads.build(args.workload, args.seed, str(data_dir), workers=nproc)
        probe = workloads.probe_argv(args.workload, args.seed, str(data_dir), workers=nproc)
        session = Session(args.workload, requests, probe)
        if args.trace:
            tracer = Tracer()
            metrics, detail = per_layer(session, args.seconds, tracer)
            units = LAYER_UNITS
            tracer.write(str(work / f"trace-{args.workload}-seed{args.seed}.jsonl"))
        else:
            metrics, detail = end_to_end(session, args.seconds)
            units = E2E_UNITS
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")

    attempted, failed = measure.tally(session.records)
    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller",
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": detail,
    }
    with open(work / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} loop closed, one caller, "
          f"{detail['samples']} reports; times at nominal speed, median "
          f"slowdown {detail['slowdown']:.4f} from {detail['calibrations']} calibrations")
    for name, value in metrics.items():
        extra = f" at p{detail['tail_percentile']:.1f} of per-request medians" if name == "report_ms_tail" else ""
        if name in detail.get("raw", {}):
            extra += f" (raw {detail['raw'][name]:.6g})"
        print(f"  {name:28s} {value:14.6g} {units[name]:6s} n={detail['samples']}{extra}")
    print(f"  {'failed_frac':28s} {failed / attempted:14.6g} {'frac':6s} ({failed} of {attempted})")
    for index, found in sorted(detail["problems"].items()):
        print(f"  request {index} failed: {'; '.join(found[:3])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
