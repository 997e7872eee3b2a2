"""The NumPy read of plain population files against the csv reader.

``load_population_file`` reads a plain regular file (ASCII, no quotes, no
``\\r``) with NumPy's file reader and hands any other file to the csv
reader.  Whichever path runs, the columns, the stratum order and every
error message must be the ones the csv reader gives.
"""

import os
import tempfile
import threading
import tracemalloc
import urllib.request
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratexp import population
from stratexp.errors import PopulationError
from stratexp.population import (
    _columns,
    _parse_values,
    _plain_layout,
    load_population,
    load_population_file,
)


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


def write(directory: str, data: bytes, name: str = "pop.csv") -> str:
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def in_memory_columns(data: bytes):
    """The NumPy route on bytes: the plainness decision, then the values
    parsed by ``np.loadtxt`` from the decoded lines."""
    layout = _plain_layout(data)
    if layout is None:
        return None
    rows, spans = layout
    values = _parse_values(data.decode("ascii").splitlines(), rows)
    return None if values is None else _columns(values, spans)


def loadtxt_spy():
    """``np.loadtxt`` patched to record its calls and run them."""
    return mock.patch.object(np, "loadtxt", wraps=np.loadtxt)


def sources(spy) -> list:
    return [call.args[0] for call in spy.call_args_list]


def numpy_outcome(path: str, design: dict) -> tuple:
    """``load_population_file`` at any size with the csv reader barred: the
    file must be parsed by ``np.loadtxt`` from an absolute path."""

    def no_csv_reader(*args):
        raise AssertionError("the csv reader ran")

    with (
        mock.patch.object(population, "_FAST_MIN_BYTES", 0),
        mock.patch.object(population, "load_population", no_csv_reader),
        loadtxt_spy() as spy,
    ):
        result = outcome(lambda: load_population_file(path, design))
    [source] = sources(spy)
    assert isinstance(source, str) and os.path.isabs(source)
    return result


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
        design = {l.strip(): 1 for l, _, _ in rows}
        with tempfile.TemporaryDirectory() as tmp:
            path = write(tmp, data)
            assert numpy_outcome(path, design) == csv_outcome(path, design)
        _, spans = _plain_layout(data)
        assert list(spans) == list(dict.fromkeys(l.strip() for l, _, _ in rows))


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
        assert in_memory_columns(data) is None

    def test_plain_file(self, tmp_path):
        path = write(str(tmp_path), PLAIN.replace(b"B,7,8\n", b" A ,7,8\nB,9,10"))
        kind, strata = numpy_outcome(path, {"A": 1, "B": 1})
        assert kind == "ok" and [s[0] for s in strata] == ["A", "B"]
        assert strata[0][1] == [v.hex() for v in (1.0, 5.0, 7.0)]
        assert strata[1][2] == [v.hex() for v in (4.0, 10.0)]


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


class TestFileGuards:
    """NumPy parses the file again from its path.  Where that could read
    other bytes than the ones the loader read and judged plain, the csv
    reader reads those bytes instead."""

    @pytest.mark.parametrize("change", ["value", "emptied"])
    def test_file_rewritten_during_the_parse(self, tmp_path, change):
        """One digit changed in place (same size, newer mtime), or every row
        removed: the columns are the csv reader's of the bytes first read,
        and no NumPy warning escapes."""
        path = str(tmp_path / "pop.csv")
        design = census_file(path, 2_000)
        with open(path, "rb") as fh:
            original = fh.read()
        at = len(b"stratum,x,y\nS00,")  # the first digit of the first x
        digit = b"8" if original[at : at + 1] == b"9" else b"9"
        rewritten = {
            "value": original[:at] + digit + original[at + 1 :],
            "emptied": b"stratum,x,y\n",
        }[change]
        real = np.loadtxt

        def rewrite_then_parse(source, *args, **kwargs):
            st = os.stat(path)
            with open(path, "wb") as fh:
                fh.write(rewritten)
            os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
            return real(source, *args, **kwargs)

        with (
            mock.patch.object(np, "loadtxt", rewrite_then_parse),
            warnings.catch_warnings(record=True) as caught,
        ):
            warnings.simplefilter("always")
            got = outcome(lambda: load_population_file(path, design))
        assert caught == []
        assert got == csv_outcome(write(str(tmp_path), original, "original.csv"), design)
        assert got != csv_outcome(path, design)

    def test_fifo_loads_like_the_regular_file(self, tmp_path):
        """A FIFO is read once, never reopened by path, and loads like the
        regular file; neither side can hang the test."""
        regular = str(tmp_path / "pop.csv")
        design = census_file(regular, 2_000)
        with open(regular, "rb") as fh:
            data = fh.read()
        fifo = str(tmp_path / "fifo.csv")
        os.mkfifo(fifo)
        loaded = []

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(data)

        threads = [
            threading.Thread(target=feed, daemon=True),
            threading.Thread(
                target=lambda: loaded.append(outcome(lambda: load_population_file(fifo, design))),
                daemon=True,
            ),
        ]
        with loadtxt_spy() as spy:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            hung = any(thread.is_alive() for thread in threads)
            if hung:  # open both ends once, so that a blocked open returns
                os.close(os.open(fifo, os.O_RDWR | os.O_NONBLOCK))
        assert not hung
        assert not any(isinstance(source, str) for source in sources(spy))
        assert loaded == [outcome(lambda: load_population_file(regular, design))]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix(self, tmp_path, suffix):
        """A plain file named like a compressed one is not handed to NumPy,
        which would decompress it."""
        path = str(tmp_path / "pop.csv")
        design = census_file(path, 500)
        with open(path, "rb") as fh:
            named = write(str(tmp_path), fh.read(), "pop.csv" + suffix)
        with loadtxt_spy() as spy:
            got = outcome(lambda: load_population_file(named, design))
        assert sources(spy) == []
        assert got == outcome(lambda: load_population_file(path, design))

    def test_relative_http_path_is_a_local_file(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a URL was opened")

        monkeypatch.chdir(tmp_path)
        os.makedirs("http:/host")
        design = census_file("http:/host/p.csv", 500)
        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        assert numpy_outcome("http://host/p.csv", design) == csv_outcome("http:/host/p.csv", design)

    def test_dot_dot_after_a_symbolic_link(self, tmp_path, monkeypatch):
        """``link/../pop.csv`` names the file beside the link's target, not
        the one beside the link."""
        monkeypatch.chdir(tmp_path)
        os.makedirs("real/dir")
        os.symlink("real/dir", "link")
        design = census_file("real/pop.csv", 500)
        write(".", b"stratum,x,y\n" + b"S00,1,2\n" * 500)
        assert numpy_outcome("link/../pop.csv", design) == csv_outcome("real/pop.csv", design)


class TestLargeFiles:
    def test_census_sized_file(self, tmp_path):
        path = str(tmp_path / "census.csv")
        design = census_file(path, 20_000)
        assert numpy_outcome(path, design) == csv_outcome(path, design)

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
