"""Trace CSV writer and reader: bytes, round trip and the accepted dialect."""
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from fpcavity import trace as trace_module
from fpcavity.trace import (
    Trace,
    TraceFormatError,
    read_trace_csv,
    write_trace_csv,
)


def _line_loop_reader(path) -> Trace:
    """The reader before the bulk parse, kept verbatim as the oracle."""
    path = Path(path)
    with path.open("r") as handle:
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
    with path.open("w", newline="") as handle:
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
