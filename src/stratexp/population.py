"""Stratified finite populations: loading, validation and means.

A population is a tuple of strata.  Each stratum holds its units as two
read-only float64 columns, ``x`` and ``y``, in input order, plus its
planned SRSWOR sample size ``n_h`` with 1 <= n_h < N_h; its size ``N_h``
is the column length.  Stratum weights are ``W_h = N_h / N`` so that the
stratified sample mean is design-unbiased for the grand mean.

A stratum mean is a corrected two-pass mean, ``m = fsum(col) / N`` and then
``m += fsum(col - m) / N``.  The correction makes the mean of a constant
column that constant exactly, so its deviations, and every central moment
that involves it, are exactly zero.  :mod:`stratexp.moments` computes the
central moments from these means.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Mapping

import numpy as np

from .errors import ComputationError, PopulationError

CSV_HEADER = ("stratum", "x", "y")


@dataclass(frozen=True, eq=False)
class StratumPopulation:
    """One stratum: its x and y columns and planned sample size.

    ``x`` and ``y`` accept any sequence of numbers and are stored as
    read-only float64 arrays of equal length, in input order.  ``small_n``
    is the SRSWOR sample size n_h; it must satisfy 1 <= n_h < N_h.
    """

    id: str
    x: np.ndarray
    y: np.ndarray
    small_n: int

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=np.float64)
        y = np.array(self.y, dtype=np.float64)
        if x.ndim != 1 or x.shape != y.shape:
            raise PopulationError(
                f"stratum {self.id!r}: x and y must be columns of equal length"
            )
        if not x.size:
            raise PopulationError(f"stratum {self.id!r} has no units")
        if not (1 <= self.small_n < x.size):
            raise PopulationError(
                f"stratum {self.id!r}: sample size n={self.small_n} must satisfy "
                f"1 <= n < N={x.size}"
            )
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise PopulationError(f"stratum {self.id!r} contains non-finite values")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def capital_n(self) -> int:
        """Stratum size N_h (always equals the number of unit records)."""
        return self.x.size

    @cached_property
    def _means(self) -> tuple[float, float]:
        """(x mean, y mean).

        One ``np.errstate`` per stratum keeps an overflowing deviation from
        printing NumPy's warning before its :class:`ComputationError`.
        """
        with np.errstate(over="ignore"):
            # y first: a stratum whose columns both overflow names y
            y_mean = self._corrected_mean("y")
            return self._corrected_mean("x"), y_mean

    @property
    def x_mean(self) -> float:
        return self._means[0]

    @property
    def y_mean(self) -> float:
        return self._means[1]

    def _corrected_mean(self, column: str) -> float:
        """Mean of a column, with one exactly summed correction pass.

        A sum outside the float range, or a deviation ``col - m`` that
        overflows, is a :class:`ComputationError` naming the stratum and
        the column.
        """
        col = getattr(self, column)
        n = col.size
        try:
            m = math.fsum(col.tolist()) / n
            m += math.fsum((col - m).tolist()) / n
        except (OverflowError, ValueError):
            m = math.inf
        if not math.isfinite(m):
            raise ComputationError(
                f"stratum {self.id!r}: column {column} sums beyond the float "
                "range; rescale x or y"
            )
        return m


@dataclass(frozen=True)
class StratifiedPopulation:
    """A validated stratified population with derived weights and grand means."""

    strata: tuple[StratumPopulation, ...]

    def __post_init__(self) -> None:
        if not self.strata:
            raise PopulationError("population has no strata")
        labels = [s.id for s in self.strata]
        if len(set(labels)) != len(labels):
            raise PopulationError(f"duplicate stratum labels: {labels}")

    @property
    def total_n(self) -> int:
        return sum(s.capital_n for s in self.strata)

    @cached_property
    def weights(self) -> tuple[float, ...]:
        """Stratum weights W_h = N_h / N; they sum to one."""
        n = self.total_n
        return tuple(s.capital_n / n for s in self.strata)

    @cached_property
    def _grand_means(self) -> tuple[float, float]:
        """(grand y mean, grand x mean)."""
        weights = self.weights
        return (
            math.fsum(w * s.y_mean for w, s in zip(weights, self.strata)),
            math.fsum(w * s.x_mean for w, s in zip(weights, self.strata)),
        )

    @property
    def grand_x_mean(self) -> float:
        return self._grand_means[1]

    @property
    def grand_y_mean(self) -> float:
        return self._grand_means[0]

    def require_positive_auxiliary(self) -> None:
        """Reject populations with any x <= 0.

        The exponential estimators assume a positive auxiliary variable;
        mixed-sign x can put a sample mean on the exponent's pole.
        """
        for s in self.strata:
            if s.x.min() <= 0:
                raise PopulationError(
                    f"stratum {s.id!r} contains x <= 0; exponential "
                    "ratio/product estimators require a positive auxiliary"
                )


def _read_columns(reader) -> dict[str, tuple[list[float], list[float]]]:
    """Check the header and read each stratum's x and y columns."""
    try:
        header = next(reader)
    except StopIteration:
        raise PopulationError("empty population stream") from None
    if [h.strip().lower() for h in header] != list(CSV_HEADER):
        raise PopulationError(
            f"line 1: expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}"
        )

    # label -> (x column, y column), in first-appearance order
    columns: dict[str, tuple[list[float], list[float]]] = {}
    isfinite = math.isfinite
    for row in reader:
        try:
            label, x_text, y_text = row
        except ValueError:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            raise PopulationError(
                f"line {reader.line_num}: expected 3 fields, got {len(row)}"
            ) from None
        label = label.strip()
        if not label:
            raise PopulationError(f"line {reader.line_num}: empty stratum label")
        try:
            x = float(x_text)
            y = float(y_text)
        except ValueError:
            raise PopulationError(
                f"line {reader.line_num}: cannot parse x={x_text!r}, y={y_text!r} "
                "as numbers"
            ) from None
        if not (isfinite(x) and isfinite(y)):
            raise PopulationError(f"line {reader.line_num}: non-finite value")
        col = columns.get(label)
        if col is None:
            col = columns[label] = ([], [])
        col[0].append(x)
        col[1].append(y)
    return columns


def load_population(
    source: IO[str] | Iterable[str], design: Mapping[str, int]
) -> StratifiedPopulation:
    """Read a ``stratum,x,y`` CSV stream and attach the sampling design.

    ``design`` maps every stratum label appearing in the stream to its
    planned sample size n_h.  Unit order within a stratum is preserved.
    Raises :class:`PopulationError` on malformed rows and on CSV syntax the
    reader rejects (both with line numbers), on design/label mismatches,
    and on n_h >= N_h.
    """
    reader = csv.reader(source)
    try:
        columns = _read_columns(reader)
    except csv.Error as exc:
        raise PopulationError(f"line {reader.line_num}: {exc}") from None
    if not columns:
        raise PopulationError("population stream has no data rows")

    unknown = sorted(set(design) - set(columns))
    if unknown:
        raise PopulationError(f"design names unknown strata: {unknown}")
    missing = [label for label in columns if label not in design]
    if missing:
        raise PopulationError(f"design is missing sample sizes for strata: {missing}")

    strata = []
    for label, (xs, ys) in columns.items():
        n_h = design[label]
        if not isinstance(n_h, int) or isinstance(n_h, bool):
            raise PopulationError(f"stratum {label!r}: sample size must be an integer")
        if n_h >= len(xs):
            raise PopulationError(
                f"stratum {label!r}: sample size n={n_h} must be smaller than N={len(xs)}"
            )
        strata.append(StratumPopulation(id=label, x=xs, y=ys, small_n=n_h))
    return StratifiedPopulation(strata=tuple(strata))


def load_population_file(path: str, design: Mapping[str, int]) -> StratifiedPopulation:
    """Open ``path`` as UTF-8 CSV, with or without a byte-order mark, and
    delegate to :func:`load_population`.  A file that is not UTF-8 text is a
    :class:`PopulationError` naming it."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return load_population(fh, design)
    except OSError as exc:
        raise PopulationError(f"cannot read population file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise PopulationError(
            f"population file {path!r} is not UTF-8 text: {exc.reason}"
        ) from None
