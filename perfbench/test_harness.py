"""Tests of the benchmark harness itself, at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import measure  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so that a report takes milliseconds."""
    monkeypatch.setattr(workloads, "SWEEP_STRATA", (2, 3))
    monkeypatch.setattr(workloads, "SWEEP_DESIGNS_PER_POPULATION", 1)
    monkeypatch.setattr(workloads, "EXACT_DESIGNS", (((6, 2), (5, 2)), ((7, 3), (4, 2), (5, 2))))
    monkeypatch.setattr(workloads, "MC_POPULATIONS", 1)
    monkeypatch.setattr(workloads, "MC_SIZES", (40, 50, 60))
    monkeypatch.setattr(workloads, "MC_SMALL_SIZES", (5, 6, 8))
    monkeypatch.setattr(workloads, "MC_REPLICATES", 400)
    monkeypatch.setattr(workloads, "CENSUS_UNITS", (800,))
    monkeypatch.setattr(workloads, "CENSUS_STRATA", 4)


def _files(requests, workdir: Path) -> tuple:
    argv = tuple(tuple(a.replace(str(workdir), "<dir>") for a in r.argv) for r in requests)
    csv = tuple(sorted((p.name, p.read_bytes()) for p in workdir.iterdir()))
    return argv, csv


def _generate(workload, seed, workdir: Path) -> tuple:
    requests = workloads.build(workload, seed, str(workdir), workers=2)
    probe = workloads.Request(workloads.probe_argv(workload, seed, str(workdir), workers=2), "", (), (), "", 0)
    return _files([*requests, probe], workdir)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(tiny, tmp_path, workload):
    a = _generate(workload, 7, tmp_path / "a")
    b = _generate(workload, 7, tmp_path / "b")
    c = _generate(workload, 8, tmp_path / "c")
    assert a == b
    assert a[1] != c[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_probe_request_succeeds(tmp_path, workload):
    code, _, err, _ = measure.invoke(workloads.probe_argv(workload, 1, str(tmp_path), workers=2))
    assert code == 0, err


def _report(argv) -> dict:
    code, out, err, _ = measure.invoke(argv)
    assert code == 0, err
    return json.loads(out)


def _checked(workload, tmp_path):
    """(request, report, truth, reference) for each request of a tiny workload."""
    out = []
    for req in workloads.build(workload, 3, str(tmp_path), workers=2):
        report = _report(req.argv)
        reference = None
        if workload == "mc":
            argv = list(req.argv)
            argv[argv.index("--workers") + 1] = "1"
            reference = _report(argv)
        truth = oracles.PopulationTruth(req)
        assert oracles.check(workload, req, report, truth, reference) == []
        out.append((req, report, truth, reference))
    return out


def _row(report, label):
    return next(r for r in report["estimators"] if r["estimator"] == label)


def _shift_moment(report, truth, name):
    """A copy of ``report`` with one moment entry moved well past its tolerance."""
    bad = copy.deepcopy(report)
    bad["moments"][name] += 1e3 * truth.moment_tolerance(name) + 1e-6 * abs(bad["moments"][name])
    return bad


def test_sweep_oracles_reject_perturbed_values(tiny, tmp_path):
    cases = _checked("sweep", tmp_path)
    seen = set()
    for req, report, truth, _ in cases:
        for name in ("V11", "V21", "V13"):  # one entry of each degree
            assert any(p.startswith(f"{name}:") for p in oracles.check("sweep", req, _shift_moment(report, truth, name), truth))
        bad = copy.deepcopy(report)
        bad["population"]["ybar"] *= 1 + 1e-6
        assert oracles.check("sweep", req, bad, truth)
        for index, row in enumerate(report["estimators"]):
            for order in (1, 2):
                if row[f"bias{order}"] is None:
                    continue
                bad = copy.deepcopy(report)
                bad["estimators"][index][f"bias{order}"] += 1e-6 * math.sqrt(abs(row[f"mse{order}"]))
                assert any(f"bias{order}" in p for p in oracles.check("sweep", req, bad, truth))
                seen.add(f"bias{order}")
            if "printed_mse2" in row:
                bad = copy.deepcopy(report)
                bad["estimators"][index]["printed_mse2"] *= 1 + 1e-6
                assert any("printed_mse2" in p for p in oracles.check("sweep", req, bad, truth))
                seen.add("printed")
        for label in ("t3s:optimize", "t4s:optimize"):
            if label not in req.estimators:
                continue
            if req.order != "2":
                bad = copy.deepcopy(report)
                _row(bad, label)["mse1"] *= 1 + 1e-6
                assert any("mse1" in p for p in oracles.check("sweep", req, bad, truth))
                seen.add("identity")
            if req.order != "1":
                # a parameter off the optimum, with its own objective value
                bad = copy.deepcopy(report)
                row = _row(bad, label)
                moved = row["parameter_order2"] + 0.05
                row["parameter_order2"] = bad["optimizer"][label]["order2"]["parameter"] = moved
                assert any("scan minimum" in p for p in oracles.check("sweep", req, bad, truth))
                seen.add("scan")
    assert seen == {"bias1", "bias2", "printed", "identity", "scan"}


def test_exact_oracle_rejects_perturbed_values(tiny, tmp_path):
    for req, report, truth, _ in _checked("exact", tmp_path):
        for field in ("mse_exact", "bias_exact"):
            bad = copy.deepcopy(report)
            bad["estimators"][2][field] *= 1 + 1e-6
            assert any(field in p for p in oracles.check("exact", req, bad, truth))
        # the enumeration check alone, with the CSV-side entries taken as reported
        for name in ("V30", "V22"):
            bad = _shift_moment(report, truth, name)
            problems = oracles.check_exact(req, bad, truth)
            assert any(p.startswith(f"{name}:") and "enumerated" in p for p in problems)


def test_mc_oracle_rejects_perturbed_values(tiny, tmp_path):
    for req, report, truth, reference in _checked("mc", tmp_path):
        bad = copy.deepcopy(report)
        row = bad["estimators"][0]
        row["mc_mse"] += abs(row["mc_mse"]) * 2**-50  # a few ulps
        assert any("--workers 1" in p for p in oracles.check("mc", req, bad, truth, reference))
        for field in oracles.MC_FIELDS[:4]:
            bad, ref = copy.deepcopy(report), copy.deepcopy(reference)
            for r in (bad, ref):
                r["estimators"][2][field] += 1e-6 * abs(r["estimators"][2]["mc_mse_se"])
            assert any(f"{field} " in p and "replayed" in p for p in oracles.check("mc", req, bad, truth, ref))
        bad, ref = copy.deepcopy(report), copy.deepcopy(reference)
        for r in (bad, ref):
            row = r["estimators"][1]
            row["mse2"] = row["mc_mse"] + (oracles.MC_SIGMAS + 1) * row["mc_mse_se"]
        assert any("SE from mse2" in p for p in oracles.check("mc", req, bad, truth, ref))


def test_census_oracle_rejects_perturbed_values(tiny, tmp_path):
    for req, report, truth, _ in _checked("census", tmp_path):
        for name in oracles.VKEYS:
            bad = _shift_moment(report, truth, name)
            assert any(p.startswith(f"{name}:") for p in oracles.check("census", req, bad, truth))


def test_design_moments_match_enumeration(tiny, tmp_path):
    """The partition-and-cumulant entries against brute force on tiny designs."""
    for req in workloads.build("exact", 5, str(tmp_path), workers=1):
        truth = oracles.PopulationTruth(req)
        ys, xs = truth.joint_means()
        e0, e1 = ys / truth.ybar - 1.0, xs / truth.xbar - 1.0
        for name, value in truth.v.items():
            a, b = int(name[1]), int(name[2])
            assert value == pytest.approx(float((e0**a * e1**b).mean()), rel=1e-9, abs=truth.moment_tolerance(name))


@pytest.mark.parametrize("n", [1, 5, 10, 11, 12, 20, 57, 100, 1000])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    values = [((i * 7919) % 1009) / 7.0 for i in range(n)]
    pct, value = measure.tail_percentile(values)
    beyond = sum(1 for v in values if v > value)
    if n > measure.TAIL_BEYOND:
        assert beyond == measure.TAIL_BEYOND
        assert pct == pytest.approx(100.0 * (n - measure.TAIL_BEYOND) / n)
    else:
        assert (pct, value) == (100.0, max(values))


def test_request_medians_drop_a_burst():
    records = [measure.Record(i % 2, 0, 0.0) for i in range(6)]
    values = [1.0, 5.0, 1.1, 5.2, 9.0, 5.1]  # request 0 hit by one slow report
    assert measure.request_medians(records, values) == [1.1, 5.1, 1.1, 5.1, 1.1, 5.1]


def test_each_report_takes_the_next_kernel_time():
    nominal = measure.CALIBRATION_NOMINAL_S
    cal = measure.Calibrator()
    cal.samples = [(1.0, nominal), (2.0, 2 * nominal), (3.0, 3 * nominal)]
    records = [measure.Record(0, 0, 0.1, end=end) for end in (0.5, 1.0, 1.5, 2.9)]
    assert cal.slowdowns(records) == pytest.approx([1.0, 1.0, 2.0, 3.0])


def test_calibration_helper_runs_and_stops():
    with measure.Calibrator() as cal:
        helper = cal._helper
        assert cal.time_kernel() > 0
    assert helper.returncode == 0


def test_failed_frac_counts_non_zero_exit(tiny, tmp_path):
    good = workloads.build("sweep", 1, str(tmp_path), workers=1)[0]
    missing = workloads.Request(
        argv=tuple(a if a != good.csv_path else str(tmp_path / "absent.csv") for a in good.argv),
        csv_path=str(tmp_path / "absent.csv"),
        strata=good.strata,
        estimators=good.estimators,
        order=good.order,
        items=good.items,
    )
    session = run.Session("sweep", [good, missing])
    assert session.call(0).code == 0
    assert session.call(1).code == 1
    session.check()
    assert measure.tally(session.records) == (2, 1)


def test_tracer_self_time_subtracts_child_coverage():
    spans = [
        (1, "parent", 0.0, 10.0, None, 0),
        (2, "child", 1.0, 4.0, 1, 0),
        (3, "child", 3.0, 5.0, 1, 0),  # overlaps the first child
        (4, "child", 9.0, 12.0, 1, 0),  # runs past the parent's end
    ]
    out = self_times(spans, [("leaf", 1, 0, 100, 0.5)])
    assert out[1] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert out[2] == pytest.approx(3.0)


def test_tracer_restores_the_program(tiny, tmp_path):
    from stratexp import cli, report

    before = (cli.run, report.v_table)
    req = workloads.build("exact", 1, str(tmp_path), workers=1)[0]
    tracer = Tracer()
    tracer.request = 0
    with tracer.installed():
        code, _, _, _ = measure.invoke(req.argv)
    assert code == 0
    assert (cli.run, report.v_table) == before
    names = {name for _, name, *_ in tracer.spans}
    assert {"report.run", "moments.v_table", "verify.exact_bias_mse"} <= names
    calls = sum(n for name, _, _, n, _ in tracer.aggregates() if name == "estimators.estimate")
    assert calls == 4 * 15 * 10  # estimators * C(6,2) * C(5,2)


def test_layer_map_names_a_layer_for_every_per_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    assert {m["name"].split(".")[0] for m in spec["per_layer"]} == set(layers)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
