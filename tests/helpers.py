import math
from fractions import Fraction

from stratexp.datasets import SYNTHETIC_SAMPLE_SIZES, synthetic_csv_path
from stratexp.estimators import EstimatorKind
from stratexp.expansion import coefficient_table
from stratexp.moments import VTABLE_KEYS, VTable, vkey_name
from stratexp.population import StratifiedPopulation, StratumPopulation
from stratexp.report import EstimatorRequest, RunConfig, report_as_dict, run


def make_population(*strata: tuple[str, list[float], list[float], int]) -> StratifiedPopulation:
    """Build a population from (label, xs, ys, n) tuples."""
    return StratifiedPopulation(
        strata=tuple(
            StratumPopulation(id=label, x=xs, y=ys, small_n=n)
            for label, xs, ys, n in strata
        )
    )


def replace_entries(v: VTable, **named: float) -> VTable:
    """A copy of ``v`` with entries overridden by name ('V21', ...)."""
    by_name = {vkey_name(k): k for k in VTABLE_KEYS}
    entries = dict(v.entries)
    for name, value in named.items():
        entries[by_name[name]] = value
    return VTable(entries=entries, ybar=v.ybar, xbar=v.xbar)


_fsum = math.fsum


def sign_keeping_fsum(values) -> float:
    """``math.fsum``, but -0.0 for an all -0.0 input; patched in to show
    that a zero sum follows the sign rule of ``math.fsum``, whatever it is."""
    values = list(values)
    if values and all(math.copysign(1.0, v) < 0 and v == 0 for v in values):
        return -0.0
    return _fsum(values)


def series_weights(
    kind: EstimatorKind, quantity: str, order: int
) -> dict[tuple[int, int], tuple[Fraction, ...]]:
    """``coefficient_table`` as {(a, b): ascending Fraction coefficients in
    the tuning constant}."""
    return {
        mono: tuple(Fraction(n, den) for n in nums)
        for mono, nums, den in coefficient_table(kind, quantity, order)
    }


def mc_report_without_workers(estimator: str, replicates: int, seed: int, workers: int) -> dict:
    """A Monte Carlo report on the committed population, as a dict, with the
    echoed worker count checked and removed."""
    config = RunConfig(
        population=synthetic_csv_path(),
        sample_sizes=SYNTHETIC_SAMPLE_SIZES,
        estimators=(EstimatorRequest.parse(estimator),),
        verify="mc",
        replicates=replicates,
        seed=seed,
        workers=workers,
    )
    out = report_as_dict(run(config))
    assert out["config"].pop("workers") == workers
    return out
