"""Stratified finite populations: loading, validation and means.

A population is a tuple of strata.  Each stratum holds its units as two
read-only float64 columns, ``x`` and ``y``, in input order, plus its
planned SRSWOR sample size ``n_h`` with 1 <= n_h < N_h; its size ``N_h``
is the column length.  Stratum weights are ``W_h = N_h / N`` so that the
stratified sample mean is design-unbiased for the grand mean.

A stratum mean is the exact mean correctly rounded: ``m = S / N`` for the
exactly rounded column sum S, corrected by the exactly rounded residual,
``m += fl(S - N * m) / N``, with S and ``N * m`` taken exactly, and near a
rounding midpoint decided by the exact residual
(:func:`stratexp.exactsum.row_means`).  The correction makes the mean of a
constant column that constant exactly, so its deviations, and every
central moment that involves it, are exactly zero.
:mod:`stratexp.moments` computes the central moments from these means.

``load_population_file`` reads a plain file (printable ASCII, no quotes,
three fields on every line) with one ``np.loadtxt`` call and hands any
other file to the ``csv`` reader of :func:`load_population`.  Both give
the same columns, stratum order and error messages.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Mapping

import numpy as np

from .errors import ComputationError, PopulationError
from .exactsum import row_means

CSV_HEADER = ("stratum", "x", "y")


@dataclass(frozen=True, eq=False)
class StratumPopulation:
    """One stratum: its x and y columns and planned sample size.

    ``x`` and ``y`` accept any sequence of numbers and are stored as
    read-only float64 arrays of equal length, in input order.  ``small_n``
    is the SRSWOR sample size n_h, an integer (not a bool) stored as a
    Python ``int``; it must satisfy 1 <= n_h < N_h.
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
        try:
            if isinstance(self.small_n, bool):
                raise TypeError
            small_n = operator.index(self.small_n)
        except TypeError:
            raise PopulationError(
                f"stratum {self.id!r}: sample size must be an integer, got {self.small_n!r}"
            ) from None
        if not (1 <= small_n < x.size):
            raise PopulationError(
                f"stratum {self.id!r}: sample size n={small_n} must satisfy "
                f"1 <= n < N={x.size}"
            )
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise PopulationError(f"stratum {self.id!r} contains non-finite values")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "small_n", small_n)

    @property
    def capital_n(self) -> int:
        """Stratum size N_h (always equals the number of unit records)."""
        return self.x.size

    @cached_property
    def _means(self) -> tuple[float, float]:
        """(x mean, y mean).

        Each is the exact mean correctly rounded, ties to even
        (:func:`stratexp.exactsum.row_means`): no deviation ``col - m`` is
        rounded before it is summed.

        A mean outside the float range, or a deviation ``col - m`` that
        overflows, is a :class:`ComputationError` naming the stratum and
        the column; y is checked first.
        """
        means = row_means((self.y, self.x))
        for name, m in zip("yx", means):
            if not math.isfinite(m):
                raise ComputationError(
                    f"stratum {self.id!r}: column {name} sums beyond the float "
                    "range; rescale x or y"
                )
        y_mean, x_mean = means
        return x_mean, y_mean

    @property
    def x_mean(self) -> float:
        return self._means[0]

    @property
    def y_mean(self) -> float:
        return self._means[1]


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
    and on a sample size that :class:`StratumPopulation` rejects.
    """
    reader = csv.reader(source)
    try:
        columns = _read_columns(reader)
    except csv.Error as exc:
        raise PopulationError(f"line {reader.line_num}: {exc}") from None
    return _attach_design(columns, design)


def _attach_design(
    columns: Mapping[str, tuple[Iterable[float], Iterable[float]]],
    design: Mapping[str, int],
) -> StratifiedPopulation:
    """Build the population from ``label -> (x, y)`` columns, in their order."""
    if not columns:
        raise PopulationError("population stream has no data rows")

    unknown = sorted(set(design) - set(columns))
    if unknown:
        raise PopulationError(f"design names unknown strata: {unknown}")
    missing = [label for label in columns if label not in design]
    if missing:
        raise PopulationError(f"design is missing sample sizes for strata: {missing}")

    return StratifiedPopulation(
        strata=tuple(
            StratumPopulation(id=label, x=xs, y=ys, small_n=design[label])
            for label, (xs, ys) in columns.items()
        )
    )


_COMMA, _NEWLINE, _QUOTE = ord(","), ord("\n"), ord('"')
# Below this file size the csv reader is as fast as the NumPy path, whose
# fixed cost is about 90 us.
_FAST_MIN_BYTES = 4096
_SCAN_CHUNK = 1 << 16  # bytes per slice: no full-length temporary


def _scan(buf: np.ndarray) -> np.ndarray | None:
    """The int32 offsets of every comma and newline; ``None`` if a byte is
    neither printable ASCII other than ``"`` nor a newline."""
    found = []
    for lo in range(0, buf.size, _SCAN_CHUNK):
        part = buf[lo : lo + _SCAN_CHUNK]
        is_newline = part == _NEWLINE
        if (
            part.max() > 126
            or np.count_nonzero(part < 32) != np.count_nonzero(is_newline)
            or _QUOTE in part
        ):
            return None
        offsets = np.flatnonzero(is_newline | (part == _COMMA)).astype(np.int32)
        offsets += lo
        found.append(offsets)
    return np.concatenate(found)


def _fast_columns(data: bytes) -> dict[str, tuple[np.ndarray, np.ndarray]] | None:
    """The columns of a plain CSV file, as ``_read_columns`` reads them, or
    ``None`` when the file is not plain enough to be read this way.

    Plain means: printable ASCII and newlines only (no quote, ``\\r``, tab
    or byte-order mark), a valid header, then lines of exactly three fields,
    none blank, the last newline optional, and finite numbers that
    ``np.loadtxt`` parses.  ``np.loadtxt`` rounds a decimal exactly as
    ``float`` does, and rejects what it cannot parse (``1_000``), so a value
    read here has ``float``'s bits.  Labels are decoded only where a run of
    equal label bytes starts.
    """
    buf = np.frombuffer(data, np.uint8)
    seps = _scan(buf) if 0 < buf.size < 2**31 else None
    if seps is None:
        return None
    # every line, the header included, must be label , x , y newline (the
    # last newline optional), so every third separator is a newline.  A line
    # with fewer than two commas is one np.loadtxt refuses (a field is
    # missing) or skips (it is empty), and the row count below catches a
    # skipped one.
    line_ends = seps[2::3]
    if seps.size % 3 == 1:
        return None
    if not (buf[line_ends] == _NEWLINE).all():
        return None
    ends = seps[3::3]  # the comma that ends each data line's label
    count = ends.size
    if not count:
        return None
    header = data[: line_ends[0]].decode("ascii").split(",")
    if [h.strip().lower() for h in header] != list(CSV_HEADER):
        return None
    try:
        values = np.loadtxt(
            io.BytesIO(data), delimiter=",", usecols=(1, 2), comments=None,
            skiprows=1, ndmin=2,
        )
    except ValueError:
        return None
    if len(values) != count or not np.isfinite(values).all():
        return None
    starts = line_ends[:count] + 1
    lengths = ends - starts

    # line i continues the run of line i - 1 when their label bytes agree
    same = lengths[1:] == lengths[:-1]
    for k in range(int(lengths.max())):
        same &= (lengths[1:] <= k) | (
            buf.take(starts[1:] + k, mode="clip") == buf.take(starts[:-1] + k, mode="clip")
        )
    runs = np.flatnonzero(~same) + 1
    run_bounds = zip([0, *runs.tolist()], [*runs.tolist(), count])

    spans: dict[str, list[tuple[int, int]]] = {}
    for lo, hi in run_bounds:
        label = data[starts[lo] : ends[lo]].decode("ascii").strip()
        if not label:
            return None
        spans.setdefault(label, []).append((lo, hi))
    columns = {}
    for label, bounds in spans.items():
        parts = [values[lo:hi] for lo, hi in bounds]
        block = parts[0] if len(parts) == 1 else np.concatenate(parts)
        columns[label] = (block[:, 0], block[:, 1])
    return columns


def load_population_file(path: str, design: Mapping[str, int]) -> StratifiedPopulation:
    """Read ``path`` as UTF-8 CSV, with or without a byte-order mark, and
    attach the design as :func:`load_population` does.

    A plain file (see ``_fast_columns``) is read with NumPy; any other file
    goes through :func:`load_population`, which owns every error message.
    Both give the same columns.  A file that is not UTF-8 text is a
    :class:`PopulationError` naming it.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise PopulationError(f"cannot read population file {path!r}: {exc}") from exc
    columns = _fast_columns(data) if len(data) >= _FAST_MIN_BYTES else None
    if columns is not None:
        return _attach_design(columns, design)
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    try:
        return load_population(text, design)
    except UnicodeDecodeError as exc:
        raise PopulationError(
            f"population file {path!r} is not UTF-8 text: {exc.reason}"
        ) from None
