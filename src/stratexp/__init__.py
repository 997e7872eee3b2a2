"""Estimator analysis for stratified sampling without replacement.

Exact finite-population design moments, exponential ratio/product-type
estimators, first- and second-order series bias/MSE, numeric optimization
of their tuning constants, and enumeration/Monte Carlo oracles that
certify all of it.
"""

from .errors import (
    ComputationError,
    ConfigError,
    DegenerateAuxiliaryError,
    EnumerationLimitError,
    InsufficientStratumError,
    MomentNormalizationError,
    PopulationError,
    StratexpError,
    ValidationError,
)
from .estimators import (
    EstimatorKind,
    EstimatorSpec,
    estimate,
    t1s,
    t2s,
    t3s,
    t4s,
)
from .expansion import bias, coefficient_table, mse, printed_second_order
from .moments import (
    DesignCoefficients,
    VTable,
    design_coefficients,
    summarize_stratum,
    v_table,
)
from .optimize import OptimizationOutcome, optimize_alpha, optimize_theta
from .population import (
    StratifiedPopulation,
    StratumPopulation,
    load_population,
    load_population_file,
)
from .report import ComparisonReport, EstimatorRequest, RunConfig, emit, run
from .verify import (
    ExactDesignDistribution,
    McEstimate,
    MonteCarloResult,
    exact_bias_mse,
    exact_expectation,
    monte_carlo,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "ComputationError",
    "ConfigError",
    "DegenerateAuxiliaryError",
    "DesignCoefficients",
    "EnumerationLimitError",
    "EstimatorKind",
    "EstimatorRequest",
    "EstimatorSpec",
    "ExactDesignDistribution",
    "InsufficientStratumError",
    "McEstimate",
    "MomentNormalizationError",
    "MonteCarloResult",
    "OptimizationOutcome",
    "PopulationError",
    "RunConfig",
    "StratexpError",
    "StratifiedPopulation",
    "StratumPopulation",
    "VTable",
    "ValidationError",
    "bias",
    "coefficient_table",
    "emit",
    "estimate",
    "exact_bias_mse",
    "exact_expectation",
    "load_population",
    "load_population_file",
    "monte_carlo",
    "mse",
    "optimize_alpha",
    "optimize_theta",
    "printed_second_order",
    "run",
    "summarize_stratum",
    "t1s",
    "t2s",
    "t3s",
    "t4s",
    "v_table",
]
