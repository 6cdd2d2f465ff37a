"""Simulated trace container and its CSV interchange format.

The on-disk format is deliberately rigid so runs stay byte-reproducible:
UTF-8 text, comma separator, ``.`` decimal point, LF line endings, a
single ``x,y`` header row, floats written with shortest round-trip
precision.  Metadata (model parameters, noise tag, seed) travels in a
JSON sidecar next to the CSV, never inside it.

The reader is more lenient than the writer.  It accepts:

- a first line that is ``x,y`` once surrounding whitespace is stripped;
- any line ending (LF, CRLF, CR, or another break ``str.splitlines``
  knows); blank and whitespace-only lines are skipped anywhere;
- data lines of exactly two comma-separated fields, each of which Python's
  ``float`` accepts: whitespace around a field, a sign, ``1_0``,
  ``inf``/``Infinity`` and ``nan``/``-nan`` in any case.

Anything else raises ``TraceFormatError`` naming the 1-based line of the
file, header included.  There is no quoting and no comment syntax.

A plain file (ASCII without U+000B, U+000C or U+001C-U+001F, a non-blank
line after the header), which is what the writer makes, goes to numpy as
an open handle, so reading it holds about twice the two returned arrays.  Any other
file, or one numpy rejects, is read whole and parsed line by line, to the
same bits.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

# the sidecar rule is core's, which the CLI reads without numpy
from .core import (_json_text, _Record, _require_each, sidecar_path,
                   written_sidecar_path)


class TraceFormatError(ValueError):
    """Malformed trace CSV; carries the 1-based offending line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class Trace(_Record):
    """An (x, y) data trace plus the noise model and seed that produced it."""

    # equality is identity: == on two arrays compares them elementwise
    __eq__, __hash__ = object.__eq__, object.__hash__

    x: np.ndarray
    y: np.ndarray
    noise_model: str = "none"
    seed: int | None = None

    def __post_init__(self):
        # read-only views, so the caller's own arrays stay writeable
        x = np.asarray(self.x, dtype=float).view()
        y = np.asarray(self.y, dtype=float).view()
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if x.size == 0:
            raise ValueError("trace must not be empty")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.x.size


def _grid(name: str, values, rule=None) -> np.ndarray:
    """``values`` as the 1-d array of finite floats a trace is drawn on,
    each entry also held to ``rule`` if one is given."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array")
    _require_each(name, values, rule)
    return values


# lines formatted and written at a time, so a long trace never holds its
# whole text in memory
_WRITE_BLOCK = 8192


def _column(values: np.ndarray) -> tuple[str, list]:
    """The line-pattern field of one column of a block, and its values."""
    if ((values < 1e16).all() and not np.signbit(values).any()
            and (np.trunc(values) == values).all()):
        return "%d.0", values.astype(np.int64).tolist()
    return "%r", values.tolist()


def write_trace_csv(trace: Trace, path) -> None:
    """Write the trace in the canonical CSV dialect.

    A block's column of integral values in [0, 1e16), ``-0.0`` excluded,
    such as Poisson counts, is written as integers with ``.0``, which is
    the text ``repr`` prints for them, without its shortest-digit search:
    below 1e16 ``repr`` uses no exponent, and no shorter digits round-trip
    to such a double.
    """
    with Path(path).open("w", encoding="utf-8", newline="\n") as handle:
        handle.write("x,y\n")
        for start in range(0, len(trace), _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            x_field, xs = _column(trace.x[block])
            y_field, ys = _column(trace.y[block])
            fields = xs + ys  # interleaved as x0, y0, x1, y1, ...
            fields[::2], fields[1::2] = xs, ys
            handle.write(f"{x_field},{y_field}\n" * len(xs) % tuple(fields))


# bytes the scan that picks the bulk parse reads at a time
_SCAN_BLOCK = 1 << 16
# the ASCII characters besides CR and LF at which str.splitlines breaks a
# line and universal newlines do not, and U+001F, which numpy strips around
# a number and Python's float rejects: checked over every code point, it is
# the one character on which the two parsers disagree
_ODD_BYTES = b"\x0b\x0c\x1c\x1d\x1e\x1f"


def _is_plain(raw) -> bool:
    """Whether the binary file ``raw`` is ASCII without ``_ODD_BYTES`` and
    has a non-blank line after the first; numpy warns on a file without."""
    past_header = has_row = False
    while block := raw.read(_SCAN_BLOCK):
        if not block.isascii() or any(byte in block for byte in _ODD_BYTES):
            return False
        if not past_header:
            breaks = [at for at in map(block.find, (b"\n", b"\r")) if at >= 0]
            if not breaks:
                continue
            past_header, block = True, block[min(breaks):]
        has_row = has_row or bool(block.strip(b" \t\r\n"))
    return has_row


def read_trace_csv(path) -> Trace:
    """Read a trace CSV; raises TraceFormatError with the file line."""
    with Path(path).open("r", encoding="utf-8") as handle:
        plain = _is_plain(handle.buffer)
        handle.seek(0)
        if plain and handle.readline().strip() == "x,y":
            try:
                data = np.loadtxt(handle, delimiter=",", comments=None,
                                  ndmin=2)
            except ValueError:
                pass
            else:
                if data.shape[1] == 2:
                    return Trace(x=np.ascontiguousarray(data[:, 0]),
                                 y=np.ascontiguousarray(data[:, 1]))
        handle.seek(0)
        lines = handle.read().splitlines()
    if not lines:
        raise TraceFormatError("empty file, expected an 'x,y' header", 1)
    if lines[0].strip() != "x,y":
        raise TraceFormatError(f"expected header 'x,y', got {lines[0]!r}", 1)
    return _read_rows(lines[1:])


def _read_rows(body: list[str]) -> Trace:
    """Parse the data lines one at a time: the statement of the dialect.

    The bulk parse in ``read_trace_csv`` accepts a subset of what this loop
    accepts and returns the same bits; every file that is not plain, or
    that numpy rejects (``1_0``, say), comes here for its result.
    """
    xs: list[float] = []
    ys: list[float] = []
    for number, line in enumerate(body, start=2):
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
        raise TraceFormatError("no data rows", max(2, len(body) + 1))
    return Trace(x=np.array(xs), y=np.array(ys))


def write_trace(trace: Trace, path, metadata: dict | None = None) -> Path:
    """Write CSV plus JSON sidecar; returns the sidecar path.

    The sidecar records the noise model and seed alongside any model
    parameters the caller supplies.  A ``path`` that is its own sidecar
    path raises ``ValueError`` before anything is written.
    """
    side = written_sidecar_path(path)
    write_trace_csv(trace, path)
    meta = {"noise_model": trace.noise_model, "seed": trace.seed}
    if metadata:
        meta.update(metadata)
    side.write_text(_json_text(meta), encoding="utf-8", newline="\n")
    return side
