"""Trace CSV writer and reader: bytes, round trip and the accepted dialect."""
import math
import random
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fpcavity import trace as trace_module
from fpcavity.spectra import ple_scan
from fpcavity.trace import (
    Trace,
    TraceFormatError,
    read_trace_csv,
    write_trace,
    write_trace_csv,
)


def _line_loop_reader(path) -> Trace:
    """The reader before the bulk parse, kept verbatim as the oracle."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise TraceFormatError("empty file, expected an 'x,y' header", 1)
    if lines[0].strip() != "x,y":
        raise TraceFormatError(f"expected header 'x,y', got {lines[0]!r}", 1)
    xs: list[float] = []
    ys: list[float] = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise TraceFormatError(
                f"expected 2 comma-separated fields, got {len(parts)}", number)
        try:
            xs.append(float(parts[0]))
            ys.append(float(parts[1]))
        except ValueError as err:
            raise TraceFormatError(f"not a number: {err}", number) from None
    if not xs:
        raise TraceFormatError("no data rows", max(2, len(lines)))
    return Trace(x=np.array(xs), y=np.array(ys))


def _bits(values: np.ndarray) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _write_text(path: Path, text: str) -> Path:
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return path


def test_writer_bytes_are_pinned(tmp_path):
    trace = Trace(x=[-0.0, 1e-05, 1e16, 5e-324, 0.1, 3],
                  y=[math.nan, math.inf, -math.inf, 12, 0, -7])
    out = tmp_path / "t.csv"
    write_trace_csv(trace, out)
    assert out.read_bytes() == (
        b"x,y\n"
        b"-0.0,nan\n"
        b"1e-05,inf\n"
        b"1e+16,-inf\n"
        b"5e-324,12.0\n"
        b"0.1,0.0\n"
        b"3.0,-7.0\n")


def test_round_trip_of_a_large_trace_is_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    n = 100_000
    x = np.linspace(0.0, 1e-2, n)
    y = rng.poisson(40.0, n).astype(float)
    y[::7] = rng.standard_normal(y[::7].size) * 10.0 ** rng.integers(
        -300, 300, y[::7].size)
    y[5] = -0.0
    y[6] = 5e-324
    original = Trace(x=x, y=y)
    out = tmp_path / "big.csv"
    write_trace_csv(original, out)
    reference = "x,y\n" + "".join(
        f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y))
    assert out.read_bytes() == reference.encode()
    back = read_trace_csv(out)
    assert _bits(back.x) == _bits(x)
    assert _bits(back.y) == _bits(y)


BLOCK = trace_module._WRITE_BLOCK


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_block_writes_equal_the_one_shot_body(tmp_path, n):
    special = [-0.0, math.inf, math.nan, 1e16, 5e-324, -math.inf]
    x = np.linspace(-1.0, 1.0, n)
    y = np.arange(n, dtype=float) * 0.1
    x[:len(special)] = special[:n]
    y[-len(special):] = special[-n:]
    out = tmp_path / "t.csv"
    write_trace_csv(Trace(x=x, y=y), out)
    one_shot = "".join([f"{a!r},{b!r}\n"
                        for a, b in zip(x.tolist(), y.tolist())])
    assert out.read_bytes() == ("x,y\n" + one_shot).encode()


def _repr_file(x: np.ndarray, y: np.ndarray) -> bytes:
    return ("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in
                              zip(x.tolist(), y.tolist()))).encode()


@pytest.mark.parametrize("column", ["x", "y"])
@pytest.mark.parametrize("value", [
    0.0, -0.0, 1.0, -3.0, 2.0 ** 53, 2.0 ** 53 + 2, 9999999999999998.0, 1e16,
    math.nan, math.inf])
def test_an_integral_column_is_written_as_repr_prints_it(tmp_path, column,
                                                         value):
    # integral columns below 1e16 without a sign bit go through integer
    # formatting; -0.0, 1e+16, negatives, NaN and inf must keep repr's text
    counts = np.array([0.0, 7.0, 40.0, 12345.0, 2.0 ** 53 - 1])
    odd = counts.copy()
    odd[2] = value
    x, y = (odd, counts) if column == "x" else (counts, odd)
    out = tmp_path / "t.csv"
    write_trace_csv(Trace(x=x, y=y), out)
    assert out.read_bytes() == _repr_file(x, y)


@pytest.mark.parametrize("column", ["x", "y"])
@pytest.mark.parametrize("value", [0.5, -0.0])
def test_each_block_picks_its_own_column_format(tmp_path, column, value):
    # the first block is all integral, the second one line that is not
    counts = np.arange(BLOCK + 1, dtype=float)
    odd = counts.copy()
    odd[BLOCK] = value
    x, y = (odd, counts) if column == "x" else (counts, odd)
    out = tmp_path / "t.csv"
    write_trace_csv(Trace(x=x, y=y), out)
    assert out.read_bytes() == _repr_file(x, y)


@pytest.mark.parametrize("text", ["x,y\n1,2\n3,4\n", "x,y\n1_0,2\n3,4\n"],
                         ids=["bulk", "line-loop"])
def test_returned_columns_are_contiguous_read_only_float64(tmp_path, text):
    back = read_trace_csv(_write_text(tmp_path / "t.csv", text))
    for column in (back.x, back.y):
        assert column.dtype == np.float64
        assert column.flags.c_contiguous
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 1.0


def test_trace_freezes_views_and_leaves_the_callers_arrays_writeable():
    grid = np.linspace(-1e9, 1e9, 5)
    trace = ple_scan(34e9, 0.0, 1.0, 0.0, grid)
    grid[0] = 1.0  # raised ValueError while the trace froze the grid itself
    assert trace.x[0] == 1.0  # a view, not a copy
    y = np.arange(5.0)
    direct = Trace(x=grid, y=y)
    y[1] = 7.0
    for column, given in ((trace.x, grid), (direct.x, grid), (direct.y, y)):
        assert np.shares_memory(column, given)
        assert column.dtype == np.float64
        assert column.flags.c_contiguous
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 1.0
    assert direct.y[1] == 7.0


@pytest.mark.parametrize("x, y, message", [
    ([], [], "trace must not be empty"),
    ([0.0, 1.0, 2.0], [0.0, 1.0],
     "x and y must be 1-d arrays of equal length"),
], ids=["empty", "unequal-lengths"])
def test_trace_refuses_empty_or_unequal_columns(x, y, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Trace(x=x, y=y)


def test_canonical_file_takes_the_bulk_parse(tmp_path, monkeypatch):
    out = tmp_path / "t.csv"
    write_trace_csv(Trace(x=[0.0, 1.0, 2.0], y=[5.0, -0.0, math.nan]), out)

    def fail(body):
        raise AssertionError("line loop used for a canonical file")

    monkeypatch.setattr(trace_module, "_read_rows", fail)
    back = read_trace_csv(out)
    assert back.x.tolist() == [0.0, 1.0, 2.0]
    assert math.copysign(1.0, back.y[1]) == -1.0


@pytest.mark.parametrize("text, message, line", [
    ("", "empty file, expected an 'x,y' header", 1),
    ("a,b\n1,2\n", "expected header 'x,y', got 'a,b'", 1),
    ("x;y\n1,2\n", "expected header 'x,y', got 'x;y'", 1),
    ("x,y\n", "no data rows", 2),
    ("x,y\n\n  \n\t\n", "no data rows", 4),
    ("x,y\n\n", "no data rows", 2),
    ("x,y\n1,2\n3\n", "expected 2 comma-separated fields, got 1", 3),
    ("x,y\n1,2,3\n", "expected 2 comma-separated fields, got 3", 2),
    ("x,y\n1,2\n3,4,\n", "expected 2 comma-separated fields, got 3", 3),
    ("x,y\n1,\n", "not a number: could not convert string to float: ''", 2),
    ("x,y\n1,2\n\n\nbad,3\n",
     "not a number: could not convert string to float: 'bad'", 5),
    ("x,y\n1,2\n\n  \n4,nan(1)\n",
     "not a number: could not convert string to float: 'nan(1)'", 5),
    ("x,y\n1,2\n0x10,3\n",
     "not a number: could not convert string to float: '0x10'", 3),
    ('x,y\n"1",2\n',
     "not a number: could not convert string to float: '\"1\"'", 2),
    ("x,y\n1,2\n3,\x1f4\n",
     "not a number: could not convert string to float: '\\x1f4'", 3),
], ids=["empty", "bad-header", "semicolon-header", "header-only",
        "blank-and-whitespace", "one-blank", "one-field", "three-fields",
        "trailing-comma", "empty-field", "word-after-blanks", "nan-payload",
        "hex", "quoted", "unit-separator"])
def test_errors_name_the_file_line(tmp_path, text, message, line):
    path = _write_text(tmp_path / "t.csv", text)
    with pytest.raises(TraceFormatError) as new:
        read_trace_csv(path)
    assert str(new.value) == f"line {line}: {message}"
    assert new.value.line_number == line
    with pytest.raises(TraceFormatError) as old:
        _line_loop_reader(path)
    assert (str(old.value), old.value.line_number) == (
        str(new.value), new.value.line_number)


@pytest.mark.parametrize("text, x, y", [
    ("x,y\n 1 , 2 \n", [1.0], [2.0]),
    (" x,y \n1,2\n", [1.0], [2.0]),
    ("x,y\n1_0,2_5\n3,4\n", [10.0, 3.0], [25.0, 4.0]),
    ("x,y\nInfinity,-Infinity\n+inf,INF\n", [math.inf, math.inf],
     [-math.inf, math.inf]),
    ("x,y\r\n1,2\r\n\r\n3,4\r\n", [1.0, 3.0], [2.0, 4.0]),
    ("x,y\r1,2\r3,4", [1.0, 3.0], [2.0, 4.0]),
    ("x,y\n\n1,2\n   \n3,4\n\t\n", [1.0, 3.0], [2.0, 4.0]),
    ("x,y\n1e999,-1e999\n", [math.inf], [-math.inf]),
    ("x,y\n1\xa0,\u30002\n", [1.0], [2.0]),
    ("x,y\n\u0661,2\n", [1.0], [2.0]),
], ids=["spaces", "header-spaces", "underscores", "infinity", "crlf", "cr",
        "blank-lines", "overflow", "unicode-space", "unicode-digit"])
def test_odd_but_accepted_spellings(tmp_path, text, x, y):
    path = _write_text(tmp_path / "t.csv", text)
    back = read_trace_csv(path)
    assert _bits(back.x) == _bits(x)
    assert _bits(back.y) == _bits(y)


def test_signed_nan_keeps_its_sign(tmp_path):
    back = read_trace_csv(_write_text(tmp_path / "t.csv",
                                      "x,y\n-nan,NaN\n1,+nan\n"))
    assert np.isnan(back.x[0]) and np.signbit(back.x[0])
    assert np.isnan(back.y[0]) and not np.signbit(back.y[0])
    assert _bits(back.x) == _bits(_line_loop_reader(
        tmp_path / "t.csv").x)


_ODD_FIELDS = [
    " 1 ", "\t2", "1_0", "Infinity", "-nan", "NaN", "+inf", "-0.0", "5e-324",
    "1e999", "1.", ".5", "1\xa0", "\u30003", "\u0663",
]
_BAD_FIELDS = ["", "bad", "1 2", "0x10", "nan(1)", "1\x00", '"1"', "1e", "#",
               "1__0", "_1", "--1", "\x1f4"]
_BLANK_LINES = ["", " ", "\t", "  \t ", "\xa0", "\x1f"]
_ENDINGS = ["\n", "\r\n", "\r"]


def test_every_character_around_a_number_matches_the_line_loop(tmp_path):
    # every ASCII character and every Unicode whitespace character, before,
    # after and inside a field, and alone on a line
    chars = [chr(cp) for cp in range(128)] + [
        c for c in map(chr, range(128, 0x3001)) if c.isspace()] + ["\ufeff"]
    path = tmp_path / "t.csv"
    for char in chars:
        for row in (f"{char}1,2", f"1{char},2", f"1,2{char}", f"1{char}5,2",
                    f"-{char}1,2", char):
            _write_text(path, f"x,y\n3,4\n{row}\n")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = _outcome(read_trace_csv, path)
            assert caught == [], repr(row)
            assert got == _outcome(_line_loop_reader, path), repr(row)


def _random_float(rng: random.Random) -> str:
    kind = rng.random()
    if kind < 0.5:
        return repr(rng.uniform(-1e3, 1e3))
    if kind < 0.7:
        return repr(float(rng.randrange(0, 500)))
    if kind < 0.9:
        return repr(rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-320, 308))
    return rng.choice(["0.0", "-0.0", "nan", "inf", "-inf", "1e-05",
                       "1e+16", "5e-324"])


def _random_line(rng: random.Random, odd: float, bad: float) -> str:
    roll = rng.random()
    if roll < bad:
        choice = rng.randrange(4)
        if choice == 0:
            return rng.choice(_BAD_FIELDS) + "," + _random_float(rng)
        if choice == 1:
            return _random_float(rng) + "," + rng.choice(_BAD_FIELDS)
        if choice == 2:
            return _random_float(rng)
        return ",".join(_random_float(rng) for _ in range(rng.choice([3, 4])))
    if roll < bad + 0.05:
        return rng.choice(_BLANK_LINES)
    fields = [_random_float(rng), _random_float(rng)]
    for i in range(2):
        if rng.random() < odd:
            fields[i] = rng.choice(_ODD_FIELDS)
    return ",".join(fields)


def _random_file(rng: random.Random) -> str:
    header = "x,y" if rng.random() < 0.95 else rng.choice(
        ["", " x,y\t", "X,Y", "x;y", "x,y,z", "1,2"])
    odd = rng.choice([0.0, 0.0, 0.02, 0.2])
    bad = rng.choice([0.0, 0.0, 0.005, 0.05])
    lines = [header] + [_random_line(rng, odd, bad)
                        for _ in range(rng.choice([0, 1, 2, 5, 20, 60]))]
    ending = rng.choice(_ENDINGS)
    if rng.random() < 0.1:
        return "".join(line + rng.choice(_ENDINGS) for line in lines)
    text = ending.join(lines)
    return text + ending if rng.random() < 0.8 else text


def _outcome(reader, path):
    try:
        back = reader(path)
    except TraceFormatError as err:
        return ("error", str(err), err.line_number)
    return ("trace", _bits(back.x), _bits(back.y), back.x.dtype,
            back.y.dtype, back.noise_model, back.seed)


def test_differential_fuzz_against_the_line_loop(tmp_path):
    rng = random.Random(20241018)
    kinds = {"trace": 0, "error": 0}
    for case in range(400):
        text = _random_file(rng)
        path = _write_text(tmp_path / f"case{case}.csv", text)
        expected = _outcome(_line_loop_reader, path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _outcome(read_trace_csv, path)
        assert caught == [], (text, [str(w.message) for w in caught])
        assert got == expected, text
        kinds[got[0]] += 1
    # both outcomes must be well represented for the comparison to mean much
    assert kinds["trace"] > 150 and kinds["error"] > 50, kinds


SCAN = trace_module._SCAN_BLOCK
# more than one scan block of plain rows, so what follows them is only seen
# by the scan's second or later block
_ROWS = "".join(f"{i}.0,{i * 0.25!r}\n" for i in range(SCAN // 8))
assert len(_ROWS) > SCAN


@pytest.mark.parametrize("text, bulk", [
    ("x,y\r\n" + _ROWS.replace("\n", "\r\n"), True),
    ("x,y\r" + _ROWS.replace("\n", "\r").rstrip("\r"), True),
    ("x,y\r\n" + _ROWS.replace("0\n", "0\r"), True),
    ("x,y" + " " * SCAN + "\n" + _ROWS, True),
    (" " * SCAN + "x,y\r\n1,2\r\n", True),
    ("x,y" + " " * SCAN + "\r\n\r\n  \r\n", False),
    ("x,y\n" + _ROWS + "3,\x1f4\n", False),
    ("x,y\n" + _ROWS + "\x1f\n5,6\n", False),
    ("x,y\n" + _ROWS + "5,6\x0b7,8\n", False),
    ("x,y\n" + _ROWS + "5,6\x0c7,8\x1c9,1\n", False),
    ("x,y\n" + _ROWS + "\u0661,2\n", False),
    ("x,y\n" + _ROWS + "5,6\u20287,8\n", False),
    ("x,y\u20281,2\n", False),
    ("x,y\n\n\n", False),
    ("x,y\n" + "\n" * SCAN, False),
    ("x,y\r\n \t\r\n\r\n", False),
], ids=["crlf", "cr", "mixed-endings", "padded-header", "padded-front",
        "padded-header-blank-body", "late-unit-separator",
        "late-unit-separator-line", "late-vertical-tab",
        "late-form-feed-and-file-separator", "late-arabic-digit",
        "late-line-separator", "line-separator-header", "blank-body",
        "long-blank-body", "whitespace-body"])
def test_the_scan_picks_the_parse_and_both_equal_the_line_loop(
        tmp_path, monkeypatch, text, bulk):
    path = _write_text(tmp_path / "t.csv", text)
    calls = []

    def counted(body):
        calls.append(body)
        return read_rows(body)

    read_rows = trace_module._read_rows
    monkeypatch.setattr(trace_module, "_read_rows", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(read_trace_csv, path)
    assert got == _outcome(_line_loop_reader, path)
    assert len(calls) == (0 if bulk else 1)


def test_reading_a_long_trace_peaks_near_its_arrays(tmp_path):
    # the bulk parse holds numpy's (n, 2) result and the two columns, never
    # the whole text or a list of its lines
    rng = np.random.default_rng(5)
    n = 200_000
    out = tmp_path / "long.csv"
    write_trace_csv(Trace(x=np.linspace(0.0, 2e-2, n),
                          y=rng.poisson(30.0, n).astype(float)), out)
    tracemalloc.start()
    try:
        back = read_trace_csv(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = back.x.nbytes + back.y.nbytes
    assert len(back) == n
    assert peak <= 2.5 * arrays, peak / arrays


def test_a_trace_path_that_is_its_own_sidecar_is_refused(tmp_path):
    # the CSV was written to d.json, then the sidecar overwrote it
    trace = Trace(x=np.arange(3.0), y=np.arange(3.0))
    out = tmp_path / "d.json"
    with pytest.raises(ValueError) as info:
        write_trace(trace, out)
    assert str(info.value) == f"trace path {out} is its own sidecar path"
    assert not any(tmp_path.iterdir())
    assert write_trace(trace, tmp_path / "d.csv") == out
    assert np.array_equal(read_trace_csv(tmp_path / "d.csv").y, trace.y)


def test_the_sidecar_rule_is_cores_re_exported():
    # the CLI names a run's sidecars before it runs, without numpy
    from fpcavity import core
    assert trace_module.sidecar_path is core.sidecar_path
    assert trace_module.written_sidecar_path is core.written_sidecar_path
