from stratexp.datasets import SYNTHETIC_SAMPLE_SIZES, synthetic_csv_path
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
