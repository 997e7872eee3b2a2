"""Exception hierarchy.

Two branches matter operationally: ``ValidationError`` covers bad inputs
(population files, configs, designs) and maps to exit code 1 in the CLI;
``ComputationError`` covers failures inside an otherwise valid analysis
(degenerate denominators, non-finite moments, enumeration limits) and maps
to exit code 2.
"""


class StratexpError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(StratexpError):
    """Inputs violate a contract: malformed files, bad designs, bad configs."""


class PopulationError(ValidationError):
    """Population data or sampling design is invalid."""


class ConfigError(ValidationError):
    """Run configuration is incomplete or inconsistent."""


class ComputationError(StratexpError):
    """A computation cannot proceed on otherwise valid inputs."""


class DegenerateAuxiliaryError(ComputationError):
    """Auxiliary configuration makes an estimator or optimum undefined
    (zero exponent denominator, or zero auxiliary variance)."""


class MomentNormalizationError(ComputationError):
    """A grand mean is zero, or a normalizing power ybar^a * xbar^b is not a
    normal float, so relative moments are undefined or would be wrong."""


class EnumerationLimitError(ComputationError):
    """The joint sample space exceeds the configured enumeration limit."""
