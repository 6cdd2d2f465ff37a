"""Simulated trace container and its CSV interchange format.

The on-disk format is deliberately rigid so runs stay byte-reproducible:
comma separator, ``.`` decimal point, LF line endings, a single ``x,y``
header row, floats written with shortest round-trip precision.  Metadata
(model parameters, noise tag, seed) travels in a JSON sidecar next to the
CSV, never inside it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class TraceFormatError(ValueError):
    """Malformed trace CSV; carries the 1-based offending line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True, eq=False)
class Trace:
    """An (x, y) data trace plus the noise model and seed that produced it."""

    x: np.ndarray
    y: np.ndarray
    noise_model: str = "none"
    seed: int | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
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


def write_trace_csv(trace: Trace, path) -> None:
    """Write the trace in the canonical CSV dialect."""
    path = Path(path)
    with path.open("w", newline="\n") as handle:
        handle.write("x,y\n")
        for xv, yv in zip(trace.x, trace.y):
            handle.write(f"{float(xv)!r},{float(yv)!r}\n")


def read_trace_csv(path) -> Trace:
    """Read a canonical trace CSV; raises TraceFormatError with the line."""
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


def sidecar_path(csv_path) -> Path:
    """JSON sidecar path for a trace CSV."""
    return Path(csv_path).with_suffix(".json")


def write_trace(trace: Trace, path, metadata: dict | None = None) -> Path:
    """Write CSV plus JSON sidecar; returns the sidecar path.

    The sidecar records the noise model and seed alongside any model
    parameters the caller supplies.
    """
    write_trace_csv(trace, path)
    meta = {"noise_model": trace.noise_model, "seed": trace.seed}
    if metadata:
        meta.update(metadata)
    side = sidecar_path(path)
    with side.open("w", newline="\n") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return side
