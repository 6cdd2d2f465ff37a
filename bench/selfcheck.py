#!/usr/bin/env python3
"""Self-check of the benchmark at tiny sizes.

Run from the repository root: ``python3 bench/selfcheck.py``.  It checks
that

- every workload, traced and untraced, prints a result line with exactly
  the metrics BENCHMARK.json declares, with their units, and no failures;
- a deliberately wrong expected value makes operations fail;
- different seeds generate different inputs and data files, and the same
  seed reproduces both;
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when every check holds and prints each failed check otherwise.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "1", "--scale", "0.05"]


def bench(workload, seed, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", str(trace), *TINY,
         *extra], cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc, result


def data_hashes(workload):
    detail = HERE / "work" / f"{workload}-trace0.json"
    return json.loads(detail.read_text())["data_hashes"]


def main() -> int:
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)
            print(f"FAIL {message}", flush=True)

    workloads = [w["name"] for w in SPEC["workloads"]]
    for workload in workloads:
        for trace, declared in ((0, SPEC["end_to_end"]),
                                (1, SPEC["per_layer"])):
            proc, result = bench(workload, 7, trace)
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0 and result is not None,
                   f"{label}: exit {proc.returncode}, {proc.stderr[-500:]}")
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{label}: {result['failed']} of {result['attempted']} "
                   "operations failed")
            units = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units, f"{label}: metrics {sorted(got)} "
                                 f"differ from {sorted(units)}")
            if trace == 0:
                expect(all(v["value"] > 0
                           for v in result["metrics"].values()),
                       f"{label}: an end-to-end metric is not positive")
            print(f"ok {label}", flush=True)

        proc, result = bench(workload, 7, 0, "--wrong-expected")
        expect(result is not None and result["failed"] > 0
               and not result["correct"],
               f"{workload}: a wrong expected value did not fail")

    for workload, generate in inputs.GENERATORS.items():
        expect(generate(1) == generate(1),
               f"{workload}: same seed, different inputs")
        expect(generate(1) != generate(2),
               f"{workload}: different seeds, same inputs")
    for workload in workloads:
        bench(workload, 11, 0)
        first = data_hashes(workload)
        bench(workload, 11, 0)
        expect(data_hashes(workload) == first,
               f"{workload}: same seed, different data files")
        bench(workload, 12, 0)
        expect(data_hashes(workload) != first,
               f"{workload}: different seeds, same data files")
    print("ok inputs and data files", flush=True)

    (HERE / "work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("work", "__pycache__"))
        proc, result = bench(workloads[0], 1, 0, cwd=bare)
        expect(proc.returncode != 0 and result is None,
               "without the program the benchmark must fail silently")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory", flush=True)

    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
