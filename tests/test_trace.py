"""The program's own counters of the oracles' work, and the benchmark
tracer's counts from outside, on the exact and mc workloads at seeds 1,
601 and 701: the workloads' shapes are fixed, so the counts are the same
at every seed."""

import contextlib
import io
import sys
from collections import Counter
from pathlib import Path

import pytest

from stratexp import cli, trace, verify
from stratexp.estimators import t1s, t3s
from stratexp.errors import ComputationError
from stratexp.verify import exact_bias_mse, monte_carlo

from helpers import make_population

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


SEEDS = [1, 601, 701]


def traced_workload(name, seed, workdir):
    """Run every request of a workload once through ``cli.main``, under
    the external tracer and ``trace.counting()`` at once: (the program's
    counts, the tracer's leaf calls by name, the tracer's skipped
    replicates)."""
    requests = workloads.build(name, seed, str(workdir), workers=1)
    tracer = Tracer()
    with trace.counting() as counts, tracer.installed():
        for index, request in enumerate(requests):
            tracer.request = index
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(list(request.argv)) == 0
    calls = Counter()
    for leaf, _, _, n, _ in tracer.aggregates():
        calls[leaf] += n
    skipped = sum(facts.get("skipped", 0) for facts in tracer.facts.values())
    return counts, calls, skipped


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_counts_equal_the_tracers(seed, tmp_path):
    counts, calls, _ = traced_workload("exact", seed, tmp_path)
    assert counts == {"exact_samples": 132_884, "exact_evaluations": 531_536}
    assert calls["estimators.estimate"] == counts["exact_evaluations"]


@pytest.mark.parametrize("seed", SEEDS)
def test_mc_counts_equal_the_tracers(seed, tmp_path, monkeypatch):
    """Replicates are drawn in blocks, so the tracer sees no ``draw_sample``
    call; each replicate's one Philox reset is counted instead."""
    resets = []
    philox = verify._philox
    monkeypatch.setattr(verify, "_philox", lambda seed, rep: resets.append(rep) or philox(seed, rep))
    counts, calls, skipped = traced_workload("mc", seed, tmp_path)
    assert counts == {"mc_replicates": 600, "mc_skipped": 0, "mc_evaluations": 2_400}
    assert calls["verify.draw_sample"] == 0
    assert len(resets) == counts["mc_replicates"]
    assert skipped == counts["mc_skipped"]
    assert calls["estimators.estimate"] == counts["mc_evaluations"]


def test_nothing_is_counted_outside_a_block(synthetic):
    exact_bias_mse(synthetic, [t1s()])
    with trace.counting() as counts:
        pass
    trace.count(exact_samples=1)
    assert counts == {}


def test_a_nested_block_counts_apart(synthetic):
    with trace.counting() as outer:
        monte_carlo(synthetic, [t1s()], replicates=10, seed=3)
        with trace.counting() as inner:
            exact_bias_mse(synthetic, [t1s()])
    # C(6, 3) * C(7, 3) joint samples
    assert inner == {"exact_samples": 700, "exact_evaluations": 700}
    assert outer == {"mc_replicates": 10, "mc_skipped": 0, "mc_evaluations": 10}


def test_skipped_replicates_are_counted():
    """x = (-3, 1, 2, 4), n = 2: Xbar = 1, and the sample of -3 and 1
    has xbar = -1, where Xbar + xbar is zero: it is skipped."""
    pop = make_population(("A", [-3, 1, 2, 4], [1, 2, 3, 4], 2))
    with trace.counting() as counts:
        mc = monte_carlo(pop, [t1s(), t1s()], replicates=600, seed=9)
    assert mc.skipped > 0
    assert counts == {
        "mc_replicates": 600,
        "mc_skipped": mc.skipped,
        "mc_evaluations": 2 * (600 - mc.skipped),
    }


def test_a_failing_run_counts_its_draws_but_no_evaluations():
    """t3s(alpha=1e6) overflows on some replicate: the draws were made, the
    evaluations did not all finish, and the draw that names the failing
    replicate is not counted."""
    pop = make_population(("A", [1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0], 2))
    with trace.counting() as counts:
        with pytest.raises(ComputationError, match="t3s"):
            monte_carlo(pop, [t3s(1e6)], replicates=10, seed=9)
    assert counts == {"mc_replicates": 10, "mc_skipped": 0}
