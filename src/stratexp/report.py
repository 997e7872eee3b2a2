"""End-to-end analysis pipeline and report serialization.

``run`` drives: load population -> exact moment table -> (optimize tuning
constants where requested) -> first/second-order bias and MSE -> optional
enumeration or Monte Carlo verification columns -> a ComparisonReport.
``emit`` serializes a report as an aligned table, CSV, or deterministic
JSON (``json.dumps`` of ``report_as_dict``: stable key order, and every
float written as its shortest round-trip ``repr``, so identical configs
produce identical bytes and each float reads back exactly, as a float).
A non-finite value is a typed error where it arises (moment table,
series expansion, oracles); ``allow_nan=False`` is only the backstop.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Mapping

from .errors import ConfigError
from .estimators import EstimatorKind, EstimatorSpec, format_constant
from .expansion import (
    PRINTED_SECOND_ORDER,
    RATIO_SERIES_COEFFS_DERIVED,
    RATIO_SERIES_COEFFS_PRINTED,
    bias,
    mse,
    printed_second_order,
)
from .moments import VTable, v_table
from .optimize import OptimizationOutcome, optimize_spec
from .population import load_population_file
from .verify import DEFAULT_ENUM_LIMIT, exact_bias_mse, monte_carlo

#: each --order choice and the approximation orders it reports
ORDERS = {"1": (1,), "2": (2,), "both": (1, 2)}
#: the allowed values of each choice setting
CHOICES = {
    "order": tuple(ORDERS),
    "verify": ("none", "exact", "mc"),
    "format": ("table", "csv", "json"),
}

WEIGHT_DEFINITION = "W_h = N_h / N (stratum size over total population size)"

#: always-disclosed deviations of this implementation from the legacy
#: closed forms it can be compared against
CORRECTIONS = (
    "stratum weights are population shares: " + WEIGHT_DEFINITION,
    "first-order MSE of the exponential family carries V02/4 "
    "(the quarter coefficient), matching the tunable form at unit exponent",
    "fourth-order mixed design moments pair second moments as "
    "3*C11*C02 and (C20*C02 + 2*C11^2); vanishing first central moments "
    "never appear",
    "fourth-moment coefficient k2 = (N-n)[N(N+1) - 6n(N-n)] / "
    "[n^3 (N-1)(N-2)(N-3)], the grouping certified by exhaustive enumeration",
    "order-four table entries include cross-stratum products of "
    "second-moment contributions, making every entry an exact expectation",
    "exponent series uses the exact composition coefficients "
    "-13/48 (cubic) and 73/384 (quartic); legacy closed forms embed "
    "-7/48 and 25/384",
)


@dataclass(frozen=True)
class EstimatorRequest:
    """An estimator to report on; the tuning constant may be 'optimize'."""

    kind: EstimatorKind
    parameter: float | None = None
    optimize: bool = False

    def __post_init__(self) -> None:
        if self.kind.parameter_name is not None:
            if self.optimize == (self.parameter is not None):
                raise ConfigError(
                    f"{self.kind.value} needs either a numeric "
                    f"{self.kind.parameter_name} or ':optimize'"
                )
        elif self.parameter is not None or self.optimize:
            raise ConfigError(f"{self.kind.value} takes no tuning parameter")

    @staticmethod
    def parse(text: str) -> "EstimatorRequest":
        """Parse 't1s', 't3s:0.5', 't4s:optimize', ...

        A bare tunable kind ('t3s') is a :class:`ConfigError` naming
        ':optimize'.  Spaces around the kind and the parameter are ignored;
        an empty parameter ('t1s:', 't3s: ') is a :class:`ConfigError`.
        """
        name, sep, param = (part.strip() for part in text.lower().partition(":"))
        try:
            kind = EstimatorKind(name)
        except ValueError:
            raise ConfigError(
                f"unknown estimator {name!r}; expected one of "
                f"{[k.value for k in EstimatorKind]}"
            ) from None
        if not sep:
            return EstimatorRequest(kind=kind)
        if not param:
            raise ConfigError(f"estimator {text!r}: empty parameter after ':'")
        if param == "optimize":
            return EstimatorRequest(kind=kind, optimize=True)
        try:
            value = float(param)
        except ValueError:
            raise ConfigError(
                f"estimator {text!r}: parameter must be a number or 'optimize'"
            ) from None
        if not math.isfinite(value):
            raise ConfigError(f"estimator {text!r}: parameter must be finite")
        return EstimatorRequest(kind=kind, parameter=value)

    def label(self) -> str:
        if self.optimize:
            return f"{self.kind.value}:optimize"
        if self.parameter is not None:
            return f"{self.kind.value}:{format_constant(self.parameter)}"
        return self.kind.value


def _check_choice(name: str, value: str) -> None:
    if value not in CHOICES[name]:
        raise ConfigError(f"{name} must be one of {CHOICES[name]}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything one deterministic run depends on."""

    population: str
    sample_sizes: Mapping[str, int]
    estimators: tuple[EstimatorRequest, ...]
    order: str = "both"
    verify: str = "none"
    replicates: int | None = None
    seed: int = 0
    format: str = "table"
    printed_mode: bool = False
    max_enum: int = DEFAULT_ENUM_LIMIT
    workers: int = 1  # echoed in the report; changes neither results nor speed

    def __post_init__(self) -> None:
        for name in CHOICES:
            _check_choice(name, getattr(self, name))
        if not self.estimators:
            raise ConfigError("no estimators requested")
        if self.verify == "mc":
            if self.replicates is None:
                raise ConfigError("verify=mc requires replicates")
            if self.replicates < 2:
                raise ConfigError("replicates must be at least 2")
        elif self.replicates is not None:
            raise ConfigError("replicates is only meaningful with verify=mc")
        if not 0 <= self.seed < 2**64:
            # the Monte Carlo generator is keyed by a 64-bit word
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.max_enum < 1:
            raise ConfigError("max_enum must be positive")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")

    @property
    def orders(self) -> tuple[int, ...]:
        return ORDERS[self.order]


@dataclass(frozen=True)
class EstimatorRow:
    """One estimator's report cells; None marks a column not requested.

    The declaration is the report's row schema.  ``report_as_dict`` writes
    the fields in this order, ``label`` as "estimator": a field without a
    default always, None as null, and one that defaults to None only when
    it holds a value.  The CSV and table columns name their fields.
    """

    label: str = field(metadata={"key": "estimator"})
    kind: EstimatorKind
    parameter_order1: float | None
    parameter_order2: float | None
    bias1: float | None
    mse1: float | None
    bias2: float | None
    mse2: float | None
    printed_bias2: float | None = None
    printed_mse2: float | None = None
    printed_bias2_delta: float | None = None
    printed_mse2_delta: float | None = None
    bias_exact: float | None = None
    mse_exact: float | None = None
    mc_bias: float | None = None
    mc_bias_se: float | None = None
    mc_mse: float | None = None
    mc_mse_se: float | None = None
    mc_skipped: int | None = None
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class ComparisonReport:
    config: RunConfig
    strata: tuple[tuple[str, int, int, float], ...]  # (label, N, n, weight)
    ybar: float
    xbar: float
    moments: VTable
    rows: tuple[EstimatorRow, ...]
    optimizer_outcomes: Mapping[str, Mapping[str, OptimizationOutcome]] = field(
        default_factory=dict
    )
    corrections: tuple[str, ...] = CORRECTIONS


def run(config: RunConfig) -> ComparisonReport:
    """Execute the full pipeline for one configuration."""
    pop = load_population_file(config.population, dict(config.sample_sizes))
    pop.require_positive_auxiliary()
    v = v_table(pop)

    rows = []  # each row's cells by EstimatorRow field name
    verify_specs = []  # the spec each row's oracle columns evaluate
    all_outcomes: dict[str, dict[str, OptimizationOutcome]] = {}
    for request in config.estimators:
        cells: dict = {"label": request.label(), "kind": request.kind, "warnings": ()}
        for order in (1, 2):
            parameter = b = m = None
            if order in config.orders:
                parameter = request.parameter
                if request.optimize:
                    outcome = optimize_spec(request.kind, v, order)
                    all_outcomes.setdefault(request.label(), {})[f"order{order}"] = outcome
                    parameter = outcome.parameter
                spec = EstimatorSpec(request.kind, parameter)
                b = bias(spec, v, order)
                # an optimum's objective is already this spec's MSE
                m = outcome.objective if request.optimize else mse(spec, v, order)
                if m < 0:
                    cells["warnings"] += (f"negative_mse{order}",)
            cells[f"parameter_order{order}"] = parameter
            cells[f"bias{order}"], cells[f"mse{order}"] = b, m
        verify_specs.append(spec)  # the highest requested order's

        if (
            config.printed_mode
            and 2 in config.orders  # so spec is the order-2 one
            and (request.kind, "bias") in PRINTED_SECOND_ORDER
        ):
            printed_b, printed_m = printed_second_order(spec, v)
            cells.update(
                printed_bias2=printed_b,
                printed_mse2=printed_m,
                printed_bias2_delta=cells["bias2"] - printed_b,
                printed_mse2_delta=cells["mse2"] - printed_m,
            )
        rows.append(cells)

    if config.verify == "exact":
        exact = exact_bias_mse(pop, verify_specs, limit=config.max_enum)
        for cells, (b, m) in zip(rows, exact):
            cells.update(bias_exact=b, mse_exact=m)
    elif config.verify == "mc":
        mc = monte_carlo(pop, verify_specs, replicates=config.replicates, seed=config.seed)
        for cells, b, m in zip(rows, mc.bias, mc.mse):
            cells.update(
                mc_bias=b.mean,
                mc_bias_se=b.standard_error,
                mc_mse=m.mean,
                mc_mse_se=m.standard_error,
                mc_skipped=mc.skipped,
            )

    strata = tuple(
        (s.id, s.capital_n, s.small_n, w) for s, w in zip(pop.strata, pop.weights)
    )
    return ComparisonReport(
        config=config,
        strata=strata,
        ybar=pop.grand_y_mean,
        xbar=pop.grand_x_mean,
        moments=v,
        rows=tuple(EstimatorRow(**cells) for cells in rows),
        optimizer_outcomes=all_outcomes,
    )


# ---------------------------------------------------------------------------
# serialization


#: (attribute, JSON key, left out while None) for each field, in
#: declaration order; see ``EstimatorRow``
_ROW_SCHEMA, _OUTCOME_SCHEMA = (
    tuple((f.name, f.metadata.get("key", f.name), f.default is None) for f in fields(cls))
    for cls in (EstimatorRow, OptimizationOutcome)
)


def _json_fields(obj, schema: tuple[tuple[str, str, bool], ...]) -> dict:
    """``obj``'s fields by ``schema``, as JSON values: an enum as its
    value, a tuple as a list."""
    out = {}
    for name, key, optional in schema:
        value = getattr(obj, name)
        if value is None and optional:
            continue
        if isinstance(value, Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


def report_as_dict(report: ComparisonReport) -> dict:
    """The report as one plain, ordered dictionary (the JSON structure)."""
    cfg = report.config
    # every RunConfig field but format, in order: a JSON report is always json
    echo = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "format"}
    echo["sample_sizes"] = dict(sorted(cfg.sample_sizes.items()))
    echo["estimators"] = [e.label() for e in cfg.estimators]
    return {
        "schema": "stratexp.report/1",
        "config": echo,
        "population": {
            "weight_definition": WEIGHT_DEFINITION,
            "ybar": report.ybar,
            "xbar": report.xbar,
            "strata": [
                {"id": label, "N": n_cap, "n": n, "weight": w}
                for label, n_cap, n, w in report.strata
            ],
        },
        "moments": report.moments.as_json_dict(),
        "estimators": [_json_fields(r, _ROW_SCHEMA) for r in report.rows],
        "optimizer": {
            label: {order: _json_fields(out, _OUTCOME_SCHEMA) for order, out in outs.items()}
            for label, outs in report.optimizer_outcomes.items()
        },
        "corrections": list(report.corrections),
        "series_coefficients": {
            "derived": {
                f"e1^{k}": str(v) for k, v in RATIO_SERIES_COEFFS_DERIVED.items()
            },
            "printed": {
                f"e1^{k}": str(v) for k, v in RATIO_SERIES_COEFFS_PRINTED.items()
            },
        },
    }


def _emit_json(report: ComparisonReport) -> str:
    return (
        json.dumps(report_as_dict(report), indent=2, ensure_ascii=False, allow_nan=False)
        + "\n"
    )


#: CSV heading -> the fields of its cell on a row's bias line and mse line
_CSV_COLUMNS = (
    ("first_order", ("bias1", "mse1")),
    ("second_order", ("bias2", "mse2")),
    ("printed_second_order", ("printed_bias2", "printed_mse2")),
    ("exact", ("bias_exact", "mse_exact")),
    ("mc_estimate", ("mc_bias", "mc_mse")),
    ("mc_standard_error", ("mc_bias_se", "mc_mse_se")),
)

#: table heading -> the field of its cell, then that of a standard error
#: shown beside it
_TABLE_COLUMNS = (
    ("bias(1)", ("bias1",)),
    ("bias(2)", ("bias2",)),
    ("mse(1)", ("mse1",)),
    ("mse(2)", ("mse2",)),
    ("bias(2) printed", ("printed_bias2",)),
    ("mse(2) printed", ("printed_mse2",)),
    ("bias exact", ("bias_exact",)),
    ("mse exact", ("mse_exact",)),
    ("mc bias (se)", ("mc_bias", "mc_bias_se")),
    ("mc mse (se)", ("mc_mse", "mc_mse_se")),
)


def _emit_csv(report: ComparisonReport) -> str:
    lines = [",".join(("estimator", "metric", *(h for h, _ in _CSV_COLUMNS)))]
    for r in report.rows:
        for i, metric in enumerate(("bias", "mse")):
            values = (getattr(r, names[i]) for _, names in _CSV_COLUMNS)
            cells = ("" if x is None else repr(x) for x in values)
            lines.append(",".join((r.label, metric, *cells)))
    return "\n".join(lines) + "\n"


def _emit_table(report: ComparisonReport) -> str:
    optional_fields = {name for name, _, optional in _ROW_SCHEMA if optional}
    columns = [
        (heading, names)
        for heading, names in _TABLE_COLUMNS
        if names[0] not in optional_fields
        or any(getattr(r, names[0]) is not None for r in report.rows)
    ]

    def cell(row: EstimatorRow, names: tuple[str, ...]) -> str:
        value, *se = (getattr(row, n) for n in names)
        if value is None:
            return "-"
        text = format(value, ".6g")
        if se:
            text += f" ({se[0]:.2g})"
        # run() warns of a negative MSE approximation by its field's name
        return text + " !" if f"negative_{names[0]}" in row.warnings else text

    headers = ["estimator", *(heading for heading, _ in columns)]
    body = [[r.label, *(cell(r, names) for _, names in columns)] for r in report.rows]

    widths = [
        max(len(headers[i]), *(len(row[i]) for row in body)) for i in range(len(headers))
    ]

    def fmt_row(cells: list[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    lines = [fmt_row(headers), fmt_row(["-" * w for w in widths])]
    lines += [fmt_row(row) for row in body]

    lines.append("")
    lines.append(f"ybar = {report.ybar:.10g}, xbar = {report.xbar:.10g}")
    lines.append(f"weights: {WEIGHT_DEFINITION}")
    for label, n_cap, n, w in report.strata:
        lines.append(f"  stratum {label}: N={n_cap} n={n} W={w:.10g}")
    if report.optimizer_outcomes:
        lines.append("optimizer:")
        for label, outs in report.optimizer_outcomes.items():
            for order, out in outs.items():
                suffix = " (objective < 0)" if out.objective_negative else ""
                lines.append(
                    f"  {label} {order}: parameter={out.parameter:.10g} "
                    f"objective={out.objective:.10g} method={out.method}{suffix}"
                )
    lines.append(f"seed = {report.config.seed}")
    lines.append("corrections applied:")
    for c in report.corrections:
        lines.append(f"  - {c}")
    if any("negative_mse2" in r.warnings or "negative_mse1" in r.warnings for r in report.rows):
        lines.append("'!' marks a negative MSE approximation (series breakdown)")
    return "\n".join(lines) + "\n"


_EMITTERS = {"table": _emit_table, "csv": _emit_csv, "json": _emit_json}


def emit(report: ComparisonReport, output_format: str | None = None) -> str:
    """Serialize a report as 'table', 'csv' or 'json' text."""
    fmt = output_format or report.config.format
    _check_choice("format", fmt)
    return _EMITTERS[fmt](report)
