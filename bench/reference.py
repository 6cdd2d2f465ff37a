"""Fixed reference work that measures the machine's current speed.

A shared 2-vCPU virtual machine changes speed by up to 2x, in
spells that can outlast a whole run.  Each run therefore times this
reference between its operations, and the gated pass times are reported
relative to it (``wall_rel``, ``cpu_rel``).  The reference uses only the
interpreter, numpy and the standard library, never fpcavity, so no change
to the program moves it.

Run as a script, it is the fresh-process reference for the CLI
workloads: interpreter start, ``import numpy`` and one :func:`kernel`,
like the start of a CLI operation.  The library workload calls
:func:`study_kernel` in-process between studies::

    python bench/reference.py
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np


def kernel() -> float:
    """Start-up sized work, run once by the fresh reference process."""
    rng = np.random.default_rng(12345)
    u = rng.random(300_000)
    inside = np.count_nonzero(np.abs(np.tan(math.pi * (u - 0.5))) < 0.5)
    total = 0.0
    for i in range(100_000):
        total += math.sqrt(i)
    return inside + total


@dataclass(frozen=True)
class _Row:
    diameter: float
    rate: float
    mode: str
    snr: float


def study_kernel() -> float:
    """Study-sized work, run in-process between library studies.

    Shaped like a study, which is mostly Python-level work: some numpy
    sampling, then tens of thousands of frozen dataclass rows built,
    scanned, written as CSV text and parsed back, all in memory.
    """
    rng = np.random.default_rng(12345)
    x = rng.random(200_000)
    level = float(np.sum(np.sin(2.0 * math.pi * x) ** 2))
    rows = [_Row(0.5 * i, math.sqrt(i), "contact", v)
            for i, v in enumerate(x[:30_000].tolist())]
    best = max(rows, key=lambda row: (row.snr, -row.diameter))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow([repr(row.diameter), row.mode, repr(row.snr)])
    parsed = [float(line.split(",")[2])
              for line in buffer.getvalue().splitlines()]
    return level + best.diameter + parsed[-1]


if __name__ == "__main__":
    kernel()
