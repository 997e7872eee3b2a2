"""Stratified finite populations: loading, validation and means.

A population is a tuple of strata.  Each stratum holds its units as two
read-only float64 columns, ``x`` and ``y``, in input order, plus its
planned SRSWOR sample size ``n_h`` with 1 <= n_h < N_h; its size ``N_h``
is the column length.  Stratum weights are ``W_h = N_h / N`` so that the
stratified sample mean is design-unbiased for the grand mean.

A population keeps its units in one read-only float64 table,
``columns``, of shape (2, N + 1): y in row 0 and x in row 1, the strata
side by side in order, and one zero column last.  It is built once, with
the population, and each stratum's ``y`` and ``x`` are then views of its
span, so the units are held once.  A block of Monte Carlo draws gathers
all its units, and the zeros that pad its narrower strata, from it in one
``take``.

A stratum mean is the exact mean correctly rounded, ties to even: the
column's exact sum as one integer over a power of two, divided by N with
Python's correctly rounded ``int / int``
(:func:`stratexp.exactsum.row_means`).  So the mean of a constant column
is that constant exactly, and its deviations, and every central moment
that involves it, are exactly zero.
:mod:`stratexp.moments` computes the central moments from these means.

``load_population_file`` reads the file's bytes once and decides on them
whether the file is plain (printable ASCII, no quotes, three fields on
every line).  A plain file of 7 KiB or more has its numbers parsed by one
``np.loadtxt`` call on its absolute path, which reads the file in C-level
chunks; an in-memory stream would be read line by line through a Python
iterator, which takes about 1.6 times as long on a 100 000-row file.
NumPy opens the file again, so this route is taken only where the file it
opens must hold the same bytes: a regular file (a FIFO or pipe would block
or read empty), not named as a compressed file (NumPy would decompress
it), with the same device, inode, size and modification time after the
parse as before the read.  Any other file, and a plain file whose parse
fails a guard, goes from the bytes already read to the ``csv`` reader of
:func:`load_population`.  Both give the same columns, stratum order and
error messages.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import os
import stat
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable, Mapping, NamedTuple

import numpy as np

from .errors import ComputationError, PopulationError
from .exactsum import row_means

CSV_HEADER = ("stratum", "x", "y")


@dataclass(frozen=True, eq=False)
class StratumPopulation:
    """One stratum: its x and y columns and planned sample size.

    ``x`` and ``y`` accept any sequence of numbers and are stored as
    read-only float64 arrays of equal length, in input order; a
    :class:`StratifiedPopulation` points them at its column table.
    ``small_n`` is the SRSWOR sample size n_h, an integer (not a bool)
    stored as a Python ``int``; it must satisfy 1 <= n_h < N_h.
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

        A column whose sum, or whose deviation ``col - m`` from its mean,
        leaves the float range is a :class:`ComputationError` naming the
        stratum and the column; y is checked first.  Every |col - m| is at
        most mu + |m|, mu the column's largest magnitude, and rounding is
        monotonic, so where fl(mu + |m|) is finite no deviation overflows;
        only a column where it is not reads its maximum and minimum.
        """
        means, mus = row_means((self.y, self.x))
        for name, col, m, mu in zip("yx", (self.y, self.x), means, mus):
            # Python floats, so no NumPy warning; a non-finite mean fails here too
            if not (
                math.isfinite(mu + abs(m))
                or math.isfinite(max(float(col.max()) - m, m - float(col.min())))
            ):
                fault = "deviates from its mean" if math.isfinite(m) else "sums"
                raise ComputationError(
                    f"stratum {self.id!r}: column {name} {fault} beyond the float "
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


class DrawSteps(NamedTuple):
    """The selection steps of a Monte Carlo draw, strata in order, as
    read-only arrays: ``divisors``, ``offsets``, ``bases``, ``limits`` and
    ``slots`` hold one entry per step, ``sizes`` and ``weights`` one per
    stratum; ``spans`` and ``width`` locate each stratum's steps.  Its size is
    O(strata x max n_h), whatever the N_h are.  ``divisors`` is uint64, as
    the generator's words are; the positions are ``np.intp``, which indexes
    ``StratifiedPopulation.columns`` without a cast."""

    #: N_h - i: the step's target is i + word mod (N_h - i)
    divisors: np.ndarray
    #: i, the position the step fixes
    offsets: np.ndarray
    #: the step's stratum base: target plus base is the unit's column
    bases: np.ndarray
    #: base + n_h: a target column below it is the position that a step
    #: of its stratum fixes, and that step reads it back
    limits: np.ndarray
    #: (start, stop) of stratum h's steps
    spans: tuple[tuple[int, int], ...]
    #: the largest n_h, the padded width of a draw's per-stratum values
    width: int
    #: i * strata + h: the step's row in the (width, strata) layout of a
    #: draw's per-stratum values, which strata with n_h < width pad
    slots: np.ndarray
    #: n_h per stratum, as float64, the divisors of the sample means
    sizes: np.ndarray
    #: W_h per stratum, as float64
    weights: np.ndarray


@dataclass(frozen=True)
class StratifiedPopulation:
    """A validated stratified population with derived weights and grand means.

    ``columns`` is the read-only (2, N + 1) table of the units, y over x,
    strata in order, then one zero column; each stratum's ``y`` and ``x``
    are views of its span, with the values the stratum was given.
    """

    strata: tuple[StratumPopulation, ...]
    columns: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.strata:
            raise PopulationError("population has no strata")
        labels = [s.id for s in self.strata]
        if len(set(labels)) != len(labels):
            raise PopulationError(f"duplicate stratum labels: {labels}")
        columns = np.empty((2, self.total_n + 1))
        columns[:, -1] = 0.0
        np.concatenate([s.y for s in self.strata], out=columns[0, :-1])
        np.concatenate([s.x for s in self.strata], out=columns[1, :-1])
        columns.flags.writeable = False
        # The strata's own arrays are let go only once the table is whole:
        # freeing each as soon as it was copied left the census workload's
        # peak RSS about 0.3 MB higher.
        lo = 0
        for s in self.strata:
            hi = lo + s.capital_n
            object.__setattr__(s, "y", columns[0, lo:hi])
            object.__setattr__(s, "x", columns[1, lo:hi])
            lo = hi
        object.__setattr__(self, "columns", columns)

    @property
    def total_n(self) -> int:
        return sum(s.capital_n for s in self.strata)

    @cached_property
    def weights(self) -> tuple[float, ...]:
        """Stratum weights W_h = N_h / N; they sum to one."""
        n = self.total_n
        return tuple(s.capital_n / n for s in self.strata)

    @cached_property
    def draw_steps(self) -> DrawSteps:
        """The Monte Carlo draw's step table; see :class:`DrawSteps`."""
        sizes = [s.small_n for s in self.strata]
        caps = [s.capital_n for s in self.strata]
        width = max(sizes)
        offsets = np.concatenate([np.arange(n, dtype=np.intp) for n in sizes])
        bases = np.repeat(np.cumsum([0, *caps[:-1]], dtype=np.intp), sizes)
        bounds = np.cumsum([0, *sizes]).tolist()
        steps = DrawSteps(
            divisors=(np.repeat(caps, sizes) - offsets).astype(np.uint64),
            offsets=offsets,
            bases=bases,
            limits=bases + np.repeat(sizes, sizes),
            spans=tuple(zip(bounds, bounds[1:])),
            width=width,
            slots=offsets * len(sizes) + np.repeat(np.arange(len(sizes), dtype=np.intp), sizes),
            sizes=np.array(sizes, dtype=np.float64),
            weights=np.array(self.weights),
        )
        for a in steps:
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        return steps

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
    columns: dict[str, tuple[Iterable[float], Iterable[float]]],
    design: Mapping[str, int],
) -> StratifiedPopulation:
    """Build the population from ``label -> (x, y)`` columns, in their order.

    ``columns`` is emptied: each stratum's columns are dropped once the
    stratum holds its copy, so the parsed rows are let go before the
    population builds its table.
    """
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
            StratumPopulation(label, *columns.pop(label), small_n=design[label])
            for label in list(columns)
        )
    )


_COMMA, _NEWLINE, _QUOTE = ord(","), ord("\n"), ord('"')
# Below this file size the csv reader is faster than NumPy's file reader,
# which opens the file again through NumPy's DataSource.  With warm caches
# the two take the same time at about 5.3 KB; with a report run between two
# loads, as on the command line, at about 7 KB.
_FAST_MIN_BYTES = 7 << 10
_SCAN_CHUNK = 1 << 16  # bytes per slice: no full-length temporary
# suffixes that np.loadtxt opens through a decompressor
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


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


def _plain_layout(data: bytes) -> tuple[int, dict[str, list[tuple[int, int]]]] | None:
    """The row count of a plain CSV file and, for each stratum label in
    order of first appearance, its runs of rows ``[lo, hi)``; ``None`` when
    the bytes are not plain.

    Plain means: printable ASCII and newlines only (no quote, ``\\r``, tab
    or byte-order mark), a valid header, then lines of exactly three fields
    with a non-blank label, the last newline optional.  The numbers are
    judged by ``_parse_values``.  Labels are decoded only where a run of
    equal label bytes starts.
    """
    buf = np.frombuffer(data, np.uint8)
    seps = _scan(buf) if 0 < buf.size < 2**31 else None
    if seps is None:
        return None
    # every line, the header included, must be label , x , y newline (the
    # last newline optional), so every third separator is a newline.  A line
    # with fewer than two commas is one np.loadtxt refuses (a field is
    # missing) or skips (it is empty), and the row count of
    # ``_parse_values`` catches a skipped one.
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
    return count, spans


def _parse_values(source, rows: int) -> np.ndarray | None:
    """The x and y fields of the ``rows`` data lines of ``source``, which
    ``np.loadtxt`` reads, as a ``rows x 2`` array; ``None`` when NumPy
    refuses a field or warns, finds another number of rows, or reads a
    value that is not finite.

    ``np.loadtxt`` rounds a decimal exactly as ``float`` does, and rejects
    what it cannot parse (``1_000``), so a value read here has ``float``'s
    bits.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.loadtxt(
                source, delimiter=",", usecols=(1, 2), comments=None, skiprows=1,
                ndmin=2, encoding="ascii",
            )
        except (OSError, ValueError, Warning):
            return None
    if len(values) != rows or not np.isfinite(values).all():
        return None
    return values


def _columns(
    values: np.ndarray, spans: Mapping[str, list[tuple[int, int]]]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """``label -> (x, y)`` from the parsed rows and each label's runs."""
    columns = {}
    for label, bounds in spans.items():
        parts = [values[lo:hi] for lo, hi in bounds]
        block = parts[0] if len(parts) == 1 else np.concatenate(parts)
        columns[label] = (block[:, 0], block[:, 1])
    return columns


def _identity(st: os.stat_result) -> tuple[int, int, int, int]:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _file_columns(
    path: str, before: os.stat_result, data: bytes
) -> dict[str, tuple[np.ndarray, np.ndarray]] | None:
    """The columns of the plain file that ``path`` named when ``data`` was
    read from it and ``before`` taken, as ``_read_columns`` reads them, or
    ``None`` when NumPy's file reader cannot be trusted to see ``data``.

    NumPy reads the file again, from its path, in C-level chunks.  So the
    file must be a regular one (a FIFO would block or read empty), must not
    carry a suffix that NumPy decompresses, and must have the same device,
    inode, size and modification time after the parse as before the read.
    """
    if not stat.S_ISREG(before.st_mode) or os.path.splitext(path)[1] in _COMPRESSED_SUFFIXES:
        return None
    layout = _plain_layout(data)
    if layout is None:
        return None
    rows, spans = layout
    try:
        # absolute, so that NumPy never takes a relative "http://host/p.csv"
        # for a URL; joined but not normalized, so that ".." after a
        # symbolic link names the file that open() read
        source = os.path.join(os.getcwd(), path)
        values = _parse_values(source, rows)
        if values is None or _identity(os.stat(source)) != _identity(before):
            return None
    except OSError:
        return None
    return _columns(values, spans)


def load_population_file(path: str, design: Mapping[str, int]) -> StratifiedPopulation:
    """Read ``path`` as UTF-8 CSV, with or without a byte-order mark, and
    attach the design as :func:`load_population` does.

    A plain regular file (see ``_file_columns``) is parsed by NumPy's file
    reader; any other file goes through :func:`load_population`, which owns
    every error message.  Both give the same columns.  A file that is not
    UTF-8 text is a :class:`PopulationError` naming it.
    """
    try:
        with open(path, "rb") as fh:
            before = os.fstat(fh.fileno())
            data = fh.read()
    except OSError as exc:
        raise PopulationError(f"cannot read population file {path!r}: {exc}") from exc
    columns = _file_columns(path, before, data) if len(data) >= _FAST_MIN_BYTES else None
    if columns is not None:
        del data  # parsed: the population's table is built without the bytes
        return _attach_design(columns, design)
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    try:
        return load_population(text, design)
    except UnicodeDecodeError as exc:
        raise PopulationError(
            f"population file {path!r} is not UTF-8 text: {exc.reason}"
        ) from None
