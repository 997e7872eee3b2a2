"""Seeded workload generators.

A workload is a list of requests.  Each request is the argv of one
``stratexp`` call (always ``--format json``) plus the facts the oracles
and the work counter need.  The program sees only the CSV files written
here and the argv; everything is derived from ``numpy.random.Generator``
seeded with the benchmark's ``--seed``, so one seed always gives the same
files and the same argv.

Shapes (stratum counts, the multiset of stratum sizes or the population
total, replicate counts, estimator lists) are fixed per workload, so that
the cost of a run depends on the code, not on which seed the run was
given.  The seed chooses the values, the order of strata and requests, the
sample sizes where they do not drive the cost, and the split of each
census total over its strata.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("sweep", "exact", "mc", "census")

ALL_ESTIMATORS = ("t1s", "t2s", "t3s:optimize", "t4s:optimize")

# sweep: (order, estimators, printed mode); each (population, design) pair
# gets two of these, so every template appears equally often
SWEEP_TEMPLATES = (
    ("both", ALL_ESTIMATORS, False),
    ("1", ("t3s:optimize", "t4s:optimize", "t3s:0.5", "t4s:0.25"), False),
    ("2", ALL_ESTIMATORS, True),
    ("both", ("t1s", "t3s:-0.5", "t4s:0.75", "t3s:optimize"), True),
    ("2", ("t3s:optimize", "t4s:optimize"), False),
    ("both", ("t2s", "t4s:optimize", "t3s:1.5"), False),
)
SWEEP_STRATA = (2, 3, 4, 5, 6, 7, 8, 4)  # one population per entry
SWEEP_DESIGNS_PER_POPULATION = 3
SWEEP_N_RANGE = (8, 60)  # stratum sizes are spread evenly over it, in a seeded order

# exact: per-stratum (N_h, n_h); joint sample spaces of 1.0e4 to 1.3e4, each
# design on EXACT_POPULATIONS independently generated populations
EXACT_POPULATIONS = 2
EXACT_DESIGNS = (
    ((10, 3), (9, 3)),                  # 120 * 84 = 10 080
    ((12, 2), (11, 3)),                 # 66 * 165 = 10 890
    ((9, 2), (7, 2), (6, 2)),           # 36 * 21 * 15 = 11 340
    ((4, 2), (4, 2), (6, 2), (7, 2)),   # 6 * 6 * 15 * 21 = 11 340
    ((14, 3), (8, 2)),                  # 364 * 28 = 10 192
    ((16, 2), (15, 2)),                 # 120 * 105 = 12 600
)

# mc: every population has these stratum sizes, and each of its MC_DESIGNS
# designs these sample sizes, in seeded orders
MC_POPULATIONS = 3
MC_DESIGNS = 2
MC_SIZES = (1000, 1500, 2000, 2500, 2500, 3000, 3500, 4000)
MC_SMALL_SIZES = (20, 25, 30, 35, 35, 40, 45, 50)
MC_REPLICATES = 100

CENSUS_UNITS = (40_000, 70_000, 100_000)  # one population per entry
CENSUS_STRATA = 20
CENSUS_DESIGNS = 4  # designs per population
CENSUS_SMALL_N_RANGE = (5, 50)

# set-up probe: (N_h, n_h) per stratum; exact keeps its joint space at 28 * 21 = 588
PROBE_DESIGN = ((40, 4), (50, 5), (60, 5), (70, 6))
PROBE_EXACT_DESIGN = ((8, 2), (7, 2))


@dataclass(frozen=True)
class Stratum:
    label: str
    capital_n: int
    small_n: int


@dataclass(frozen=True)
class Request:
    """One report request and what its checks need to know."""

    argv: tuple[str, ...]
    csv_path: str
    strata: tuple[Stratum, ...]
    estimators: tuple[str, ...]
    order: str
    items: int  # units of work, as counted by the workload's items_per_s
    replicates: int | None = None

    @property
    def units(self) -> int:
        return sum(s.capital_n for s in self.strata)


def _stratum_values(
    rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Positive x and a y that is positively correlated with it."""
    scale = rng.uniform(2.0, 20.0)
    x = scale * rng.lognormal(0.0, 0.35, size)
    slope = rng.uniform(0.5, 2.0)
    y = slope * x + rng.normal(0.0, 0.3 * scale * slope, size)
    y = np.abs(y) + 0.1 * scale
    return np.round(x, 6), np.round(y, 6)


def _write_csv(path: str, labels: list[str], sizes: list[int], rng: np.random.Generator) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("stratum,x,y\n")
        for label, size in zip(labels, sizes):
            x, y = _stratum_values(rng, size)
            fh.write("".join(f"{label},{a:.6f},{b:.6f}\n" for a, b in zip(x.tolist(), y.tolist())))


def _argv(csv_path: str, strata: tuple[Stratum, ...], estimators, order: str, *extra: str) -> tuple[str, ...]:
    argv = ["--population", csv_path]
    for s in strata:
        argv += ["--n", f"{s.label}={s.small_n}"]
    for e in estimators:
        argv += ["--estimator", e]
    argv += ["--order", order, "--format", "json", *extra]
    return tuple(argv)


def _sweep(rng: np.random.Generator, workdir: str) -> list[Request]:
    requests = []
    pair = 0
    for p, n_strata in enumerate(SWEEP_STRATA):
        labels = [f"s{h}" for h in range(n_strata)]
        even = np.linspace(SWEEP_N_RANGE[0], SWEEP_N_RANGE[1], n_strata).round().astype(int)
        sizes = [int(v) for v in rng.permutation(even)]
        path = os.path.join(workdir, f"sweep-{p}.csv")
        _write_csv(path, labels, sizes, rng)
        for _ in range(SWEEP_DESIGNS_PER_POPULATION):
            strata = tuple(
                Stratum(label, size, int(rng.integers(2, size // 3 + 1)))
                for label, size in zip(labels, sizes)
            )
            for j in range(2):
                order, estimators, printed = SWEEP_TEMPLATES[(2 * pair + j) % len(SWEEP_TEMPLATES)]
                extra = ("--verify", "none") + (("--printed-mode",) if printed else ())
                requests.append(
                    Request(
                        argv=_argv(path, strata, estimators, order, *extra),
                        csv_path=path,
                        strata=strata,
                        estimators=estimators,
                        order=order,
                        items=len(estimators),
                    )
                )
            pair += 1
    return requests


def _exact(rng: np.random.Generator, workdir: str) -> list[Request]:
    requests = []
    for d, design in enumerate(EXACT_DESIGNS):
        labels = [f"e{h}" for h in range(len(design))]
        strata = tuple(Stratum(l, n_cap, n) for l, (n_cap, n) in zip(labels, design))
        space = math.prod(math.comb(n_cap, n) for n_cap, n in design)
        for p in range(EXACT_POPULATIONS):
            path = os.path.join(workdir, f"exact-{d}-{p}.csv")
            _write_csv(path, labels, [n_cap for n_cap, _ in design], rng)
            requests.append(
                Request(
                    argv=_argv(path, strata, ALL_ESTIMATORS, "both", "--verify", "exact"),
                    csv_path=path,
                    strata=strata,
                    estimators=ALL_ESTIMATORS,
                    order="both",
                    items=space * len(ALL_ESTIMATORS),
                )
            )
    return requests


def _mc(rng: np.random.Generator, workdir: str, workers: int) -> list[Request]:
    requests = []
    for p in range(MC_POPULATIONS):
        labels = [f"m{h}" for h in range(len(MC_SIZES))]
        sizes = [int(v) for v in rng.permutation(MC_SIZES)]
        path = os.path.join(workdir, f"mc-{p}.csv")
        _write_csv(path, labels, sizes, rng)
        for _ in range(MC_DESIGNS):
            strata = tuple(
                Stratum(l, size, int(n))
                for l, size, n in zip(labels, sizes, rng.permutation(MC_SMALL_SIZES))
            )
            mc_seed = int(rng.integers(0, 2**31))
            requests.append(
                Request(
                    argv=_argv(
                        path, strata, ALL_ESTIMATORS, "both",
                        "--verify", "mc", "--replicates", str(MC_REPLICATES),
                        "--seed", str(mc_seed), "--workers", str(workers),
                    ),
                    csv_path=path,
                    strata=strata,
                    estimators=ALL_ESTIMATORS,
                    order="both",
                    items=MC_REPLICATES * len(ALL_ESTIMATORS),
                    replicates=MC_REPLICATES,
                )
            )
    return requests


def _census(rng: np.random.Generator, workdir: str) -> list[Request]:
    requests = []
    for p, units in enumerate(CENSUS_UNITS):
        labels = [f"c{h:02d}" for h in range(CENSUS_STRATA)]
        # stratum sizes: a seeded split of a fixed total, each at least 1/4 of the even share
        share = rng.dirichlet(np.full(CENSUS_STRATA, 8.0))
        floor = units // (4 * CENSUS_STRATA)
        sizes = [floor + int(v) for v in np.floor(share * (units - floor * CENSUS_STRATA))]
        sizes[0] += units - sum(sizes)
        path = os.path.join(workdir, f"census-{p}.csv")
        _write_csv(path, labels, sizes, rng)
        for _ in range(CENSUS_DESIGNS):
            small = rng.integers(CENSUS_SMALL_N_RANGE[0], CENSUS_SMALL_N_RANGE[1] + 1, CENSUS_STRATA)
            strata = tuple(Stratum(l, size, int(n)) for l, size, n in zip(labels, sizes, small))
            requests.append(
                Request(
                    argv=_argv(path, strata, ALL_ESTIMATORS, "both", "--verify", "none"),
                    csv_path=path,
                    strata=strata,
                    estimators=ALL_ESTIMATORS,
                    order="both",
                    items=units,
                )
            )
    return requests


def build(workload: str, seed: int, workdir: str, workers: int = 1) -> list[Request]:
    """Write the workload's CSV files under ``workdir`` and return its requests.

    The request order is a seeded shuffle; the benchmark cycles through it.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "sweep":
        requests = _sweep(rng, workdir)
    elif workload == "exact":
        requests = _exact(rng, workdir)
    elif workload == "mc":
        requests = _mc(rng, workdir, workers)
    else:
        requests = _census(rng, workdir)
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


def probe_argv(workload: str, seed: int, workdir: str, workers: int = 1) -> tuple[str, ...]:
    """A small request of the workload's kind, for the set-up probe.

    It passes the same flags as the workload's requests (``--printed-mode``
    too on sweep) on a population of a few hundred units, so the excess of
    a first report over the steady time stands out of the noise of one
    report.  Its CSV file is written under ``workdir``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), 1])
    design = PROBE_EXACT_DESIGN if workload == "exact" else PROBE_DESIGN
    strata = tuple(Stratum(f"p{h}", n_cap, n) for h, (n_cap, n) in enumerate(design))
    path = os.path.join(workdir, f"probe-{workload}.csv")
    _write_csv(path, [s.label for s in strata], [s.capital_n for s in strata], rng)
    extra = {
        "sweep": ("--verify", "none", "--printed-mode"),
        "exact": ("--verify", "exact"),
        "mc": ("--verify", "mc", "--replicates", str(MC_REPLICATES), "--seed", "1", "--workers", str(workers)),
        "census": ("--verify", "none"),
    }[workload]
    return _argv(path, strata, ALL_ESTIMATORS, "both", *extra)
