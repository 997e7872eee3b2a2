"""Command-line front end.

One command: load a population CSV and a sampling design, run the
estimator comparison pipeline, print the report.

Every run option takes one path into :class:`RunConfig`.  A JSON config
file (``--config``) gives a dict whose keys and JSON types are those of
``_SETTINGS``, the one table of settings, which also builds every flag.
Each flag's argparse ``dest`` is the config key it overrides, so the
flags that are given are laid over that dict, and
``RunConfig(**settings)`` alone checks the allowed values, so ``--order 3``
and ``{"order": "3"}`` fail with one message.  A flag argparse cannot parse
is a ``ConfigError`` too, as a file value of the wrong JSON type is.  A
key repeated anywhere in the config file, or a stratum repeated in ``--n``,
is a ``ValidationError``: no setting is silently overwritten.  A stratum
label, in ``--n`` or in the file's ``sample_sizes``, is stripped of the
spaces around it, as the population file's labels are; so a label that
repeats once stripped is given twice as well.

Exit codes: 0 success, 1 invalid input (flags, config files, populations,
designs), 2 a computation failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ComputationError, ConfigError, StratexpError, ValidationError
from .report import CHOICES, EstimatorRequest, RunConfig, emit, run
from .verify import DEFAULT_ENUM_LIMIT

DEFAULT_ESTIMATORS = ("t1s", "t2s", "t3s:optimize", "t4s:optimize")

_JSON_TYPE_NAMES = {bool: "boolean", int: "integer", str: "string", dict: "object", list: "array"}


def _parse_design_entry(text: str) -> tuple[str, int]:
    label, sep, size = text.partition("=")
    label = label.strip()  # as the population reader strips its labels
    if not sep or not label:
        raise ValidationError(f"--n expects STRATUM=SIZE, got {text!r}")
    try:
        n = int(size)
    except ValueError:
        raise ValidationError(f"--n {text!r}: size must be an integer") from None
    return label, n


def _unique_dict(pairs, what: str) -> dict:
    """``dict(pairs)``; a repeated key is a ValidationError, never last-wins."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValidationError(f"{what} {key!r} is given twice")
        out[key] = value
    return out


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are ``ConfigError`` (exit 1), not ``SystemExit(2)``."""

    def error(self, message: str):
        raise ConfigError(message)


#: each config key, in ``--help`` order: its JSON type (a bool is not an
#: integer), its flag, and the flag's argparse keywords besides those that
#: ``_build_parser`` derives from the type and from ``report.CHOICES``
_SETTINGS = {
    "population": (str, "--population", dict(help="population CSV (header stratum,x,y)")),
    "sample_sizes": (dict, "--n", dict(
        action="append", type=_parse_design_entry, metavar="STRATUM=SIZE",
        help="per-stratum sample size; repeatable, replaces config sizes",
    )),
    "estimators": (list, "--estimator", dict(
        action="append", metavar="SPEC",
        help="estimator to report: t1s, t2s, t3s:<alpha|optimize>, t4s:<theta|optimize>; "
        f"repeatable (default: {' '.join(DEFAULT_ESTIMATORS)})",
    )),
    "order": (str, "--order", dict(help="approximation order(s)")),
    "verify": (str, "--verify", dict(help="verification oracle")),
    "replicates": (int, "--replicates", dict(help="Monte Carlo replicates")),
    "seed": (int, "--seed", dict(help="Monte Carlo seed (default 0)")),
    "format": (str, "--format", dict(help="output format")),
    "printed_mode": (bool, "--printed-mode", dict(
        help="add legacy closed-form second-order columns for t1s/t2s",
    )),
    "max_enum": (int, "--max-enum", dict(
        help=f"joint sample space limit for exact verification (default {DEFAULT_ENUM_LIMIT})",
    )),
    "workers": (int, "--workers", dict(
        help="accepted and echoed in the report; changes neither results nor speed",
    )),
}


def _build_parser() -> _Parser:
    """``--config``, then one flag per ``_SETTINGS`` entry, its dest the config key."""
    parser = _Parser(
        prog="stratexp",
        description=(
            "Compare exponential ratio/product estimators of a stratified "
            "population mean: exact design moments, first/second-order bias "
            "and MSE, optimized tuning constants, and enumeration or Monte "
            "Carlo verification."
        ),
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    for key, (kind, flag, options) in _SETTINGS.items():
        if kind is bool:
            options = dict(action="store_true", default=None, **options)
        elif kind is int:
            options = dict(type=int, **options)
        elif key in CHOICES:
            options = dict(metavar="{" + ",".join(CHOICES[key]) + "}", **options)
        parser.add_argument(flag, dest=key, **options)
    return parser


_PARSER = _build_parser()


def _load_config_file(path: str) -> dict:
    """The config file's dict, with every key known and of its JSON type."""
    what = f"config file {path!r}: key"
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=lambda pairs: _unique_dict(pairs, what))
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path!r} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config file {path!r} is not UTF-8 text: {exc.reason}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"config file {path!r} must hold a JSON object")
    unknown = set(data) - set(_SETTINGS)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        kind = _SETTINGS[key][0]
        if type(value) is not kind:
            raise ConfigError(
                f"config {key} must be a JSON {_JSON_TYPE_NAMES[kind]}, got {value!r}"
            )
    if "sample_sizes" in data:  # labels are stripped, as --n strips them
        data["sample_sizes"] = _unique_dict(
            ((label.strip(), n) for label, n in data["sample_sizes"].items()),
            f"config file {path!r}: sample_sizes stratum",
        )
    return data


def build_config(args: argparse.Namespace) -> RunConfig:
    """Lay the flags that were given over the config file and build the RunConfig."""
    flags = {key: value for key, value in vars(args).items() if value is not None}
    path = flags.pop("config", None)
    settings = _load_config_file(path) if path else {}
    if "sample_sizes" in flags:
        flags["sample_sizes"] = _unique_dict(flags["sample_sizes"], "--n stratum")
    settings.update(flags)

    if not settings.get("population"):
        raise ValidationError("a population file is required (--population or config)")
    if not settings.get("sample_sizes"):
        raise ValidationError(
            "per-stratum sample sizes are required (--n STRATUM=SIZE or config)"
        )
    settings["estimators"] = tuple(  # only an absent key takes the defaults
        EstimatorRequest.parse(str(text))
        for text in settings.get("estimators", DEFAULT_ESTIMATORS)
    )
    return RunConfig(**settings)


def main(argv: list[str] | None = None) -> int:
    try:
        config = build_config(_PARSER.parse_args(argv))
        report = run(config)
    except ComputationError as exc:
        print(f"stratexp: computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except StratexpError as exc:
        print(f"stratexp: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(emit(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
