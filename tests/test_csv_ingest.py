"""The NumPy read of plain population files against the csv reader.

``load_population_file`` reads a plain file (ASCII, no quotes, no ``\\r``)
with NumPy and hands any other file to the csv reader.  Whichever path
runs, the columns, the stratum order and every error message must be the
ones the csv reader gives.
"""

import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratexp import population
from stratexp.errors import PopulationError
from stratexp.population import _fast_columns, load_population, load_population_file


def summary(pop) -> list:
    return [(s.id, [v.hex() for v in s.x.tolist()], [v.hex() for v in s.y.tolist()], s.small_n)
            for s in pop.strata]


def outcome(load) -> tuple:
    """("ok", columns) or ("error", message)."""
    try:
        return ("ok", summary(load()))
    except PopulationError as exc:
        return ("error", str(exc))


def csv_outcome(path: str, design: dict) -> tuple:
    """The streaming csv reader on the file, as the loader read it before
    the NumPy path existed."""

    def load():
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return load_population(fh, design)

    return outcome(load)


def file_outcome(path: str, design: dict) -> tuple:
    """``load_population_file`` with the NumPy path tried at any size."""
    with mock.patch.object(population, "_FAST_MIN_BYTES", 0):
        return outcome(lambda: load_population_file(path, design))


def write(directory: str, data: bytes) -> str:
    path = os.path.join(directory, "pop.csv")
    with open(path, "wb") as fh:
        fh.write(data)
    return path


PLAIN_LABELS = ["A", "B", "C", " A", "B ", " C ", "A B", "#A", "1"]
ODD_LABELS = ["café", "", "  "]
PLAIN_NUMBERS = ["1", "2.5", " 3 ", "-4e-3", "1E5", "+.5", "7.", "0", "-0", "1e-320", "#3"]
ODD_NUMBERS = ["1_000", "١٢", "nan", "inf", "-Infinity", "1e400", "0x10", "", "abc", "1 2"]


def numbers(odd: bool):
    plain = st.one_of(
        st.sampled_from(PLAIN_NUMBERS),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-10**20, 10**20).map(str),
    )
    return st.one_of(plain, st.sampled_from(ODD_NUMBERS)) if odd else plain


@st.composite
def population_files(draw) -> tuple[bytes, dict]:
    """A population file and a design for it.  Half of the files are odd:
    blank or ragged lines, a bad header, empty or non-ASCII labels, numbers
    that only ``float`` reads or that are not finite, quotes, CRLF or a
    byte-order mark."""
    odd = draw(st.booleans())
    headers = ["stratum,x,y", " Stratum , X ,Y"] + ["stratum,x", "a,b,c"] * odd
    kinds = ["row"] + ["row", "row", "blank", "spaces", "short", "long"] * odd
    number = numbers(odd)
    label_texts = PLAIN_LABELS + ODD_LABELS * odd
    lines = [draw(st.sampled_from(headers))]
    labels = set()
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        label = draw(st.sampled_from(label_texts))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append("  ")
        elif kind == "short":
            lines.append(f"{label},{draw(number)}")
        elif kind == "long":
            lines.append(f"{label},{draw(number)},{draw(number)},{draw(number)}")
        else:
            labels.add(label.strip())
            lines.append(f"{label},{draw(number)},{draw(number)}")
    if odd and draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = '"' + lines[i].replace(",", '","') + '"'  # quote every field
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    if odd and draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    data = text.encode("utf-8")
    if odd and draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    design = {label: 1 for label in labels if label}
    if draw(st.booleans()):
        design["Z"] = 1  # a design entry the file does not have
    return data, design


class TestSameAsCsvReader:
    @settings(max_examples=300, deadline=None)
    @given(population_files())
    def test_same_columns_or_same_error(self, case):
        data, design = case
        with tempfile.TemporaryDirectory() as tmp:
            path = write(tmp, data)
            assert file_outcome(path, design) == csv_outcome(path, design)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["A", "B", " A", "B  ", "c"]),
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=30,
        ),
        st.booleans(),
    )
    def test_plain_files_take_the_numpy_path(self, rows, final_newline):
        """Labels with spaces and labels that recur in separate runs read
        as the csv reader reads them."""
        text = "stratum,x,y\n" + "\n".join(f"{l},{x!r},{y!r}" for l, x, y in rows)
        data = (text + "\n" * final_newline).encode("ascii")
        columns = _fast_columns(data)
        assert columns is not None
        design = {l.strip(): 1 for l, _, _ in rows}
        with tempfile.TemporaryDirectory() as tmp:
            path = write(tmp, data)
            assert file_outcome(path, design) == csv_outcome(path, design)
        assert list(columns) == list(dict.fromkeys(l.strip() for l, _, _ in rows))


PLAIN = b"stratum,x,y\nA,1,2\nB,3,4\nA,5,6\nB,7,8\n"


class TestPlainOnly:
    @pytest.mark.parametrize(
        "data",
        [
            b"\xef\xbb\xbf" + PLAIN,
            PLAIN.replace(b"\n", b"\r\n"),
            PLAIN.replace(b"A,1", b'"A",1'),
            PLAIN.replace(b"A,1", b"A,\t1"),
            PLAIN.replace(b"A,5", b"caf\xc3\xa9,5"),
            PLAIN + b"\n",
            PLAIN.replace(b"\nB,3", b"\n\nB,3"),
            PLAIN + b"  ",
            PLAIN.replace(b"A,1,2", b"A,1_000,2"),
            PLAIN.replace(b"A,1,2", b"A,nan,2"),
            PLAIN.replace(b"A,1,2", b"A,1e400,2"),
            PLAIN.replace(b"A,1,2", b"A,1,2,3"),
            PLAIN.replace(b"A,1,2", b" ,1,2"),
            b"stratum,x\nA,1,2\n",
            b"stratum,x,y\n",
            b"stratum,x,y",
            b"",
        ],
        ids=[
            "bom", "crlf", "quote", "tab", "non-ascii", "blank-end", "blank-line",
            "spaces-end", "underscore", "nan", "overflow", "four-fields",
            "empty-label", "bad-header", "no-rows", "no-newline", "empty",
        ],
    )
    def test_other_files_go_to_the_csv_reader(self, data):
        assert _fast_columns(data) is None

    def test_plain_file(self):
        columns = _fast_columns(PLAIN.replace(b"B,7,8\n", b" A ,7,8"))
        assert list(columns) == ["A", "B"]
        assert columns["A"][0].tolist() == [1.0, 5.0, 7.0]
        assert columns["B"][1].tolist() == [4.0]


def census_file(path: str, rows: int, strata: int = 20) -> dict:
    """A plain file of ``rows`` units in ``strata`` runs, as the census
    benchmark writes them; returns a design for it."""
    rng = np.random.default_rng(rows)
    labels = [f"S{h:02d}" for h in range(strata)]
    sizes = np.full(strata, rows // strata)
    sizes[: rows % strata] += 1
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("stratum,x,y\n")
        for label, size in zip(labels, sizes.tolist()):
            x = rng.lognormal(1.0, 0.4, size)
            y = 1.5 * x + rng.normal(0.0, 0.5, size)
            fh.write("".join(f"{label},{a:.6f},{b:.6f}\n" for a, b in zip(x.tolist(), y.tolist())))
    return {label: 5 for label in labels}


class TestLargeFiles:
    def test_census_sized_file(self, tmp_path):
        path = str(tmp_path / "census.csv")
        design = census_file(path, 20_000)
        with open(path, "rb") as fh:
            assert _fast_columns(fh.read()) is not None
        assert outcome(lambda: load_population_file(path, design)) == csv_outcome(path, design)

    def test_bad_value_names_its_line(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        design = census_file(path, 2_000)
        with open(path, "r+b") as fh:
            lines = fh.read().split(b"\n")
            lines[3] = b"S00,1.5,zz"
            fh.seek(0)
            fh.write(b"\n".join(lines))
        with pytest.raises(PopulationError, match=r"^line 4: cannot parse x='1.5', y='zz'"):
            load_population_file(path, design)

    def test_memory_no_more_than_the_csv_reader(self, tmp_path):
        """Reading 100 000 rows peaks at no more than 1.1x the csv reader's
        peak on the same file (both measured under tracemalloc)."""
        path = str(tmp_path / "census.csv")
        design = census_file(path, 100_000)

        def peak(load) -> int:
            tracemalloc.start()
            try:
                pop = load()
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert pop.total_n == 100_000
            return top

        def by_csv():
            with open(path, encoding="utf-8-sig", newline="") as fh:
                return load_population(fh, design)

        assert peak(lambda: load_population_file(path, design)) <= 1.1 * peak(by_csv)
