"""Command-line front end.

One command: load a population CSV and a sampling design, run the
estimator comparison pipeline, print the report.  Every option can come
from a JSON config file (``--config``) and any flag given on the command
line overrides the file.  Exit codes: 0 success, 1 invalid input, 2 a
computation failed.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ComputationError, ConfigError, StratexpError, ValidationError
from .report import (
    FORMAT_CHOICES,
    ORDER_CHOICES,
    VERIFY_CHOICES,
    EstimatorRequest,
    RunConfig,
    emit,
    run,
)
from .verify import DEFAULT_ENUM_LIMIT

DEFAULT_ESTIMATORS = ("t1s", "t2s", "t3s:optimize", "t4s:optimize")


def _parse_design_entry(text: str) -> tuple[str, int]:
    label, sep, size = text.partition("=")
    if not sep or not label:
        raise ValidationError(f"--n expects STRATUM=SIZE, got {text!r}")
    try:
        n = int(size)
    except ValueError:
        raise ValidationError(f"--n {text!r}: size must be an integer") from None
    return label, n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratexp",
        description=(
            "Compare exponential ratio/product estimators of a stratified "
            "population mean: exact design moments, first/second-order bias "
            "and MSE, optimized tuning constants, and enumeration or Monte "
            "Carlo verification."
        ),
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--population", help="population CSV (header stratum,x,y)")
    parser.add_argument(
        "--n",
        action="append",
        metavar="STRATUM=SIZE",
        help="per-stratum sample size; repeatable, replaces config sizes",
    )
    parser.add_argument(
        "--estimator",
        action="append",
        metavar="SPEC",
        help=(
            "estimator to report: t1s, t2s, t3s:<alpha|optimize>, "
            "t4s:<theta|optimize>; repeatable (default: "
            + " ".join(DEFAULT_ESTIMATORS)
            + ")"
        ),
    )
    parser.add_argument("--order", choices=ORDER_CHOICES, help="approximation order(s)")
    parser.add_argument(
        "--optimize",
        action="store_true",
        default=None,
        help="treat parameterless t3s/t4s requests as :optimize",
    )
    parser.add_argument("--verify", choices=VERIFY_CHOICES, help="verification oracle")
    parser.add_argument("--replicates", type=int, help="Monte Carlo replicates")
    parser.add_argument("--seed", type=int, help="Monte Carlo seed (default 0)")
    parser.add_argument("--format", choices=FORMAT_CHOICES, help="output format")
    parser.add_argument(
        "--printed-mode",
        action="store_true",
        default=None,
        help="add legacy closed-form second-order columns for t1s/t2s",
    )
    parser.add_argument(
        "--max-enum",
        type=int,
        help=f"joint sample space limit for exact verification (default {DEFAULT_ENUM_LIMIT})",
    )
    parser.add_argument(
        "--workers",
        type=int,
        help="accepted and echoed in the report; changes neither results nor speed",
    )
    return parser


def _load_config_file(path: str) -> dict:
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"config file {path!r} must hold a JSON object")
    return data


_CONFIG_KEYS = {
    "population",
    "sample_sizes",
    "estimators",
    "order",
    "verify",
    "replicates",
    "seed",
    "format",
    "printed_mode",
    "optimize",
    "max_enum",
    "workers",
}

#: JSON types of the scalar config keys; bool is not accepted as an integer
_CONFIG_TYPES = {
    "order": str,
    "verify": str,
    "format": str,
    "printed_mode": bool,
    "optimize": bool,
    "replicates": int,
    "seed": int,
    "max_enum": int,
    "workers": int,
}

_JSON_TYPE_NAMES = {bool: "boolean", int: "integer", str: "string"}

#: config key (also the flag's argparse dest) -> RunConfig field, for the
#: options whose defaults RunConfig holds
_RUN_OPTIONS = {
    "order": "order",
    "verify": "verify",
    "replicates": "replicates",
    "seed": "seed",
    "format": "output_format",
    "printed_mode": "printed_mode",
    "max_enum": "max_enum",
    "workers": "workers",
}


def build_config(args: argparse.Namespace) -> RunConfig:
    file_cfg: dict = {}
    if args.config:
        file_cfg = _load_config_file(args.config)
        unknown = set(file_cfg) - _CONFIG_KEYS
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        for key, kind in _CONFIG_TYPES.items():
            if key in file_cfg and type(file_cfg[key]) is not kind:
                expected = _JSON_TYPE_NAMES[kind]
                raise ConfigError(
                    f"config {key} must be a JSON {expected}, got {file_cfg[key]!r}"
                )

    population = args.population or file_cfg.get("population")
    if not population:
        raise ValidationError("a population file is required (--population or config)")

    if args.n:
        sample_sizes = dict(_parse_design_entry(item) for item in args.n)
    else:
        raw = file_cfg.get("sample_sizes")
        if not raw:
            raise ValidationError(
                "per-stratum sample sizes are required (--n STRATUM=SIZE or config)"
            )
        if not isinstance(raw, dict):
            raise ValidationError("config sample_sizes must be an object")
        sample_sizes = {}
        for label, n in raw.items():
            if not isinstance(n, int) or isinstance(n, bool):
                raise ValidationError(
                    f"config sample size for stratum {label!r} must be an integer"
                )
            sample_sizes[str(label)] = n

    texts = args.estimator or file_cfg.get("estimators") or list(DEFAULT_ESTIMATORS)
    if not isinstance(texts, (list, tuple)):
        raise ValidationError("config estimators must be a list of strings")
    optimize_default = (
        args.optimize if args.optimize is not None else file_cfg.get("optimize", False)
    )
    requests = [EstimatorRequest.parse(str(text), optimize_default) for text in texts]

    # only the options a flag or the file sets; RunConfig holds the defaults
    options = {}
    for key, name in _RUN_OPTIONS.items():
        value = getattr(args, key)
        if value is None:
            value = file_cfg.get(key)
        if value is not None:
            options[name] = value
    return RunConfig(
        population_path=str(population),
        sample_sizes=sample_sizes,
        estimators=tuple(requests),
        **options,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        report = run(config)
    except ValidationError as exc:
        print(f"stratexp: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:
        print(
            f"stratexp: computation failed: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 2
    except StratexpError as exc:
        print(f"stratexp: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(emit(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
