#!/usr/bin/env python3
"""fpcavity benchmark.

Run from the repository root::

    python3 bench/run.py --workload design --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each exists):

design   fresh ``python -m fpcavity.cli`` processes: cavity, purcell,
         plan --out
measure  fresh processes: simulate KIND --out then fit, for four kinds,
         plus fit sqrt_offset on the bundled dataset
library  one long-lived process (bench/study.py) running design studies
         in a closed loop after paying import once

Every workload is one client in a closed loop: the next operation starts
when the previous one has finished.  Passes repeat until the next one
would end after ``--seconds``.  Pass times are reported relative to the
fixed reference work of bench/reference.py, timed alongside each pass.
With ``--trace 0`` the last stdout line is the JSON result with the
end-to-end metrics; with ``--trace 1`` passes
alternate between untraced and traced (bench/spans.py) and the result
holds the per-layer metrics.  A detailed record (machine, inputs, every
operation, importtime entries, spans) goes to bench/work/.

The program under test is ``src/fpcavity`` of the current directory, run
with ``src`` on PYTHONPATH and FPCAVITY_THREADS unset.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = HERE / "work"

E2E_UNITS = {"setup_s": "s", "wall_rel": "ratio", "cpu_rel": "ratio",
             "peak_rss_mb": "MB"}

LAYER_TIMES = (
    "config.load_s", "config.manifest_s", "config.self_s",
    "optics.self_s",
    "purcell.coupling_report_s", "purcell.jitter_suppression_s",
    "purcell.self_s",
    "ensemble.ions_in_bandwidth_s", "ensemble.ensemble_purcell_stats_s",
    "ensemble.channel_strengths_s", "ensemble.sfs_spectrum_s",
    "ensemble.self_s",
    "spectra.generate_s", "spectra.self_s",
    "fitting.fit_s", "fitting.self_s",
    "trace.write_s", "trace.read_s", "trace.self_s",
    "planner.sweep_grid_s", "planner.write_sweep_csv_s",
    "planner.best_operating_point_s", "planner.self_s",
    "cli.self_s",
)
LAYER_COUNTS = (
    "optics.calls", "purcell.jitter_suppression.calls",
    "ensemble.ion_frequencies_drawn", "ensemble.samples",
    "ensemble.channel_strengths.calls", "spectra.points",
    "fitting.iterations", "trace.bytes_written", "trace.bytes_read",
    "planner.rows",
)
OPS = ("cavity", "purcell", "plan", "simulate", "fit", "study")
PER_LAYER_UNITS = {
    "process.startup_s": "s", "import.fpcavity_s": "s",
    "import.scipy_s": "s", "import.numpy_s": "s", "import.modules": "count",
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "fitting.converged_ratio": "ratio",
    "tracing.overhead_s": "s", "tracing.accounted_ratio": "ratio",
    **{f"op.{op}_s": "s" for op in OPS},
}
LAYER_SELF = tuple(f"{layer}.self_s" for layer in
                   ("config", "optics", "purcell", "ensemble", "spectra",
                    "fitting", "trace", "planner", "cli"))

# set-up samples are spread over the run (before, between passes, after),
# because the machine's slow and fast spells last several seconds
SETUP_SAMPLES = 3
STARTUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
OP_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# BLAS thread pools busy-wait after numpy's import and after each call; on
# two shared cores their spinning swings CPU and wall time from run to run,
# and no fpcavity matrix is large enough to gain from a second thread
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FPCAVITY_THREADS", None)
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


ENV = child_env()


def run_process(argv, cwd: Path) -> dict:
    """Run ``python argv`` to completion; wall, CPU and peak RSS of it."""
    with tempfile.TemporaryFile(dir=cwd) as out, \
            tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=ENV,
                                stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"wall": wall, "started": started,
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "code": proc.returncode,
                "stdout": out.read().decode(errors="replace"),
                "stderr": err.read().decode(errors="replace")}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def summary(values) -> dict:
    """Median (the reported value), quartiles, sample count, and the
    highest percentile that has at least ten samples beyond it (when one
    above the median exists)."""
    values = sorted(values)
    n = len(values)
    out = {"value": statistics.median(values), "n": n, "samples": values}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if n > 20:
        out[f"p{100.0 * (n - 10) / n:.0f}"] = values[n - 11]
    return out


# --- CLI workloads --------------------------------------------------------

def cli_ops(workload: str, cli_seed: int, workdir: Path):
    """(command, cli argv) of one pass, in order."""
    common = ["--config", "config.json", "--seed", str(cli_seed), "--json"]
    if workload == "design":
        return [("cavity", ["cavity", *common]),
                ("purcell", ["purcell", *common]),
                ("plan", ["plan", *common, "--out", "sweep.csv"])]
    ops = []
    for kind, model, extra in inputs.MEASURE_PAIRS:
        ops.append(("simulate", ["simulate", kind, *common,
                                 "--out", f"{kind}.csv"]))
        ops.append(("fit", ["fit", model, f"{kind}.csv", *extra, *common,
                            "--out", f"{kind}.fit.json"]))
    bundled = os.path.relpath(
        SRC / "fpcavity" / "data" / "hole_width_vs_power.csv", workdir)
    ops.append(("fit", ["fit", "sqrt_offset", bundled, *common,
                        "--out", "bundled.fit.json"]))
    return ops


def bundled_truth() -> dict:
    meta = json.loads((SRC / "fpcavity" / "data"
                       / "hole_width_vs_power.json").read_text())
    return {"slope": meta["sqrt_coefficient"],
            "offset": meta["zero_power_fwhm"]}


def check_cli_op(command: str, argv, report: dict, config: dict,
                 workdir: Path) -> list[str]:
    if command == "cavity":
        return checks.check_cavity(report, config)
    if command == "purcell":
        return checks.check_purcell(report, config)
    if command == "plan":
        return checks.check_plan(report, config,
                                 (workdir / "sweep.csv").read_text())
    if command == "simulate":
        kind = argv[1]
        points = config["simulate"][kind]["points"]
        return [] if report["points"] == points else \
            [f"simulate {kind}: {report['points']} points, not {points}"]
    model, source = argv[1], argv[2]
    if model == "sqrt_offset":
        return checks.check_fit(report, bundled_truth(), "bundled sqrt")
    kind = Path(source).stem
    return checks.check_fit(report, checks.fit_truth(kind, config), kind)


class CliSession:
    """Runs and checks the fresh-process operations of one workload."""

    def __init__(self, workload: str, generated: dict, workdir: Path):
        self.config = generated["config"]
        self.workdir = workdir
        self.ops = cli_ops(workload, generated["cli_seed"], workdir)
        self.records: list[dict] = []
        self.hashes: dict[str, dict] = {}  # op label -> first pass outputs

    def run_pass(self, index: int, traced: bool,
                 reference: bool = False) -> dict:
        """One pass; with ``reference``, time the reference process after
        every operation."""
        wall = cpu = ref_wall = ref_cpu = 0.0
        pass_records = []
        for position, (command, argv) in enumerate(self.ops):
            label = f"{position}:{' '.join(argv[:2])}"
            if traced:
                spans_file = self.workdir / f"spans-{index}-{position}.json"
                proc = run_process(
                    [str(HERE / "spans.py"), str(spans_file), "--", *argv],
                    self.workdir)
            else:
                proc = run_process(["-m", "fpcavity.cli", *argv],
                                   self.workdir)
            record = {"pass": index, "op": command, "label": label,
                      "traced": traced, "wall": proc["wall"],
                      "cpu": proc["cpu"], "rss_mb": proc["rss_mb"],
                      "code": proc["code"]}
            record["failures"] = self._check(command, argv, label, proc)
            if traced and spans_file.exists():
                record["spans"] = json.loads(spans_file.read_text())
                spans_file.unlink()
            wall += proc["wall"]
            cpu += proc["cpu"]
            pass_records.append(record)
            if reference:
                ref = run_reference(self.workdir)
                ref_wall += ref["wall"]
                ref_cpu += ref["cpu"]
        self.records.extend(pass_records)
        return {"wall": wall, "cpu": cpu, "traced": traced,
                "reference": {"wall": ref_wall, "cpu": ref_cpu},
                "records": pass_records}

    def _check(self, command, argv, label, proc) -> list[str]:
        if proc["code"] != 0:
            return [f"{label}: exit {proc['code']}: "
                    f"{proc['stderr'].strip()[-300:]}"]
        try:
            report = json.loads(proc["stdout"])
            failures = check_cli_op(command, argv, report, self.config,
                                    self.workdir)
            outputs = {Path(o["path"]).name: o["sha256"]
                       for o in report["manifest"]["outputs"]}
        except (ValueError, KeyError, TypeError, IndexError,
                OSError) as exc:
            return [f"{label}: unreadable output: {exc!r}"]
        for name, digest in outputs.items():
            if sha256(self.workdir / name) != digest:
                failures.append(f"manifest sha256 of {name} does not "
                                "match the file")
        first = self.hashes.setdefault(label, outputs)
        if outputs != first:
            failures.append("data files differ from the first pass with "
                            "the same seed")
        return [f"{label}: {f}" for f in failures]


def run_reference(workdir: Path) -> dict:
    proc = run_process([str(HERE / "reference.py")], workdir)
    if proc["code"] != 0:
        raise BenchError("reference process failed: "
                         + proc["stderr"].strip()[-500:])
    return {"wall": proc["wall"], "cpu": proc["cpu"]}


def relative(passes, key: str) -> dict:
    """Summary of each pass's time over its reference's time.

    The reference runs alongside the pass, so a slow or fast spell of the
    shared machine scales both and cancels in the ratio.
    """
    out = summary([p[key] / p["reference"][key] for p in passes])
    out["median_pass_s"] = statistics.median(p[key] for p in passes)
    out["median_reference_s"] = statistics.median(
        p["reference"][key] for p in passes)
    return out


def closed_loop(seconds: float, run_unit, min_units: int) -> None:
    """Repeat ``run_unit`` until the next one would end after ``seconds``."""
    start = time.perf_counter()
    durations = []
    while len(durations) < min_units or \
            time.perf_counter() - start + statistics.median(durations) \
            <= seconds:
        t0 = time.perf_counter()
        run_unit(len(durations))
        durations.append(time.perf_counter() - t0)


def warm_up(workdir: Path) -> None:
    """One fresh ``import fpcavity`` to fill the bytecode and page caches."""
    warm = run_process(["-c", "import fpcavity"], workdir)
    if warm["code"] != 0:
        raise BenchError("cannot import fpcavity from src: "
                         + warm["stderr"].strip()[-500:])


def setup_samples(workdir: Path, samples: int) -> list[float]:
    return [run_process(["-c", "import fpcavity"], workdir)["wall"]
            for _ in range(samples)]


def process_layers(workdir: Path) -> tuple[dict, list]:
    """Interpreter start-up and ``-X importtime`` figures."""
    startup = [run_process(["-c", "pass"], workdir)["wall"]
               for _ in range(STARTUP_SAMPLES)]
    runs = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = run_process(["-X", "importtime", "-c", "import fpcavity"],
                           workdir)
        entries = []
        for line in proc["stderr"].splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            own, cumulative, name = line[len("import time:"):].split("|")
            entries.append((name.rstrip(), int(own), int(cumulative)))
        runs.append(entries)

    def own_sum(entries, package):
        return sum(own for name, own, _ in entries
                   if name.strip() == package
                   or name.strip().startswith(package + "."))

    def cumulative(entries, package):
        return next(c for name, _, c in entries if name.strip() == package)

    metrics = {
        "process.startup_s": statistics.median(startup),
        "import.fpcavity_s": statistics.median(
            cumulative(e, "fpcavity") * 1e-6 for e in runs),
        "import.scipy_s": statistics.median(
            own_sum(e, "scipy") * 1e-6 for e in runs),
        "import.numpy_s": statistics.median(
            own_sum(e, "numpy") * 1e-6 for e in runs),
        "import.modules": statistics.median(len(e) for e in runs),
    }
    top = sorted(runs[-1], key=lambda e: -e[2])[:15]
    return metrics, [{"module": n, "self_us": s, "cumulative_us": c}
                     for n, s, c in top]


def layer_values(per_pass: list[dict]) -> dict:
    """Median over traced passes of each per-pass layer sum."""
    names = set(LAYER_TIMES) | set(LAYER_COUNTS) \
        | {"fitting.fits", "fitting.converged"}
    out = {}
    for name in names:
        out[name] = statistics.median(p.get(name, 0.0) for p in per_pass)
    fits = out.pop("fitting.fits")
    converged = out.pop("fitting.converged")
    out["fitting.converged_ratio"] = converged / fits if fits else 0.0
    return out


def accounted(metrics: dict, wall: float) -> float:
    return (metrics.get("import.self_s", 0.0)
            + sum(metrics.get(name, 0.0) for name in LAYER_SELF)) / wall


def run_cli_workload(args, generated: dict, workdir: Path) -> dict:
    (workdir / "config.json").write_text(json.dumps(generated["config"]))
    session = CliSession(args.workload, generated, workdir)
    result = {"inputs": generated}
    if not args.trace:
        warm_up(workdir)
        setup = setup_samples(workdir, SETUP_SAMPLES)
        passes = []

        def unit(i):
            passes.append(session.run_pass(i, False, reference=True))
            setup.extend(setup_samples(workdir, 1))

        closed_loop(args.seconds, unit, min_units=2)
        metrics = {"setup_s": summary(setup),
                   "wall_rel": relative(passes, "wall"),
                   "cpu_rel": relative(passes, "cpu")}
        metrics["peak_rss_mb"] = {
            "value": max(r["rss_mb"] for r in session.records),
            "n": len(session.records)}
        result["metrics"] = metrics
    else:
        warm_up(workdir)
        layers, top = process_layers(workdir)
        passes = []

        def pair(i):
            passes.append(session.run_pass(2 * i, False))
            passes.append(session.run_pass(2 * i + 1, True))

        closed_loop(args.seconds, pair, min_units=1)
        traced = [p for p in passes if p["traced"]]
        untraced = [p for p in passes if not p["traced"]]
        per_pass = []
        ratios = []
        for p in traced:
            total: dict[str, float] = {}
            for record in p["records"]:
                spans = record.get("spans")
                if spans is None:
                    continue
                ratios.append(accounted(spans["metrics"], spans["wall_s"]))
                for name, value in spans["metrics"].items():
                    total[name] = total.get(name, 0.0) + value
            per_pass.append(total)
        layers.update(layer_values(per_pass))
        layers["tracing.overhead_s"] = (
            statistics.median(p["wall"] for p in traced)
            - statistics.median(p["wall"] for p in untraced))
        layers["tracing.accounted_ratio"] = min(ratios) if ratios else 0.0
        for op in OPS:
            walls = [r["wall"] for p in untraced for r in p["records"]
                     if r["op"] == op]
            layers[f"op.{op}_s"] = statistics.median(walls) if walls else 0.0
        result["layers"] = layers
        result["importtime_top"] = top
        # keep the spans of the first traced pass only; later ones repeat it
        for p in traced[1:]:
            for record in p["records"]:
                record.pop("spans", None)
    result["operations"] = session.records
    result["data_hashes"] = session.hashes
    result["attempted"] = len(session.records)
    result["failed"] = sum(1 for r in session.records if r["failures"])
    return result


# --- library workload -----------------------------------------------------

def run_library_workload(args, generated: dict, workdir: Path) -> dict:
    (workdir / "config.json").write_text(json.dumps(generated["config"]))
    (workdir / "plan.json").write_text(json.dumps(generated["plan"]))
    study = [str(HERE / "study.py"), "--config", "config.json",
             "--plan", "plan.json"]
    if args.wrong_expected:
        study.append("--wrong-expected")

    def start(extra):
        proc = run_process([*study, *extra], workdir)
        if proc["code"] != 0:
            raise BenchError("library process failed: "
                             + proc["stderr"].strip()[-500:])
        record = json.loads((workdir / "study.json").read_text())
        return proc, record, record["ready"] - proc["started"]

    def setups():
        return [] if args.trace else \
            [start(["--setup-only"])[2] for _ in range(SETUP_SAMPLES)]

    start(["--setup-only"])  # warms the caches
    setup = setups()
    result = {"inputs": generated}
    layers = top = None
    if args.trace:
        layers, top = process_layers(workdir)
    proc, record, main_setup = start(
        ["--seconds", str(args.seconds)] + (["--trace"] if args.trace else []))
    setup += [main_setup, *setups()]
    studies = record["studies"]
    if not args.trace:
        result["metrics"] = {"setup_s": summary(setup),
                             "peak_rss_mb": {"value": proc["rss_mb"], "n": 1}}
        for key in ("wall", "cpu"):
            result["metrics"][f"{key}_rel"] = relative(studies, key)
    else:
        traced = [s for s in studies if s["traced"]]
        untraced = [s for s in studies if not s["traced"]]
        layers.update(layer_values([s["metrics"] for s in traced]))
        layers["tracing.overhead_s"] = (
            statistics.median(s["wall"] for s in traced)
            - statistics.median(s["wall"] for s in untraced))
        layers["tracing.accounted_ratio"] = min(
            sum(s["metrics"].get(name, 0.0) for name in LAYER_SELF)
            / s["wall"] for s in traced)
        for op in OPS:
            layers[f"op.{op}_s"] = statistics.median(
                s["wall"] for s in untraced) if op == "study" else 0.0
        result["layers"] = layers
        result["importtime_top"] = top
    result["operations"] = studies
    result["data_hashes"] = record["hashes"]
    result["attempted"] = len(studies)
    result["failed"] = sum(1 for s in studies if s["failures"])
    return result


# --- reporting ------------------------------------------------------------

def machine() -> dict:
    info = {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "FPCAVITY_THREADS": None,
            **BLAS_THREADS,
            "cpu_pinning": "none",
            "machine_settings_changed": False,
            "invocation": "python -m fpcavity.cli with src on PYTHONPATH"}
    for package in ("numpy", "scipy"):
        try:
            info[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            info[package] = None
    try:
        with open("/proc/cpuinfo") as handle:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")), None)
        info["l3_cache"] = Path("/sys/devices/system/cpu/cpu0/cache/"
                                "index3/size").read_text().strip()
    except OSError:
        info.setdefault("cpu_model", None)
        info.setdefault("l3_cache", None)
    return info


def report(args, result: dict) -> dict:
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        for name, unit in PER_LAYER_UNITS.items():
            print(f"{name:40s} {result['layers'][name]:14.6g} {unit}")
    else:
        metrics = {name: {"value": result["metrics"][name]["value"],
                          "unit": unit} for name, unit in E2E_UNITS.items()}
        for name, unit in E2E_UNITS.items():
            stats = result["metrics"][name]
            extra = ", ".join(f"{k} {v:.4g}" for k, v in stats.items()
                              if k not in ("value", "n", "samples"))
            print(f"{name:12s} {stats['value']:.4g} {unit} "
                  f"(n={stats['n']}{', ' + extra if extra else ''})")
    print(f"error_rate {result['failed']}/{result['attempted']}")
    for record in result["operations"]:
        for failure in record["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink sample counts and grids "
                             "(self-check only)")
    parser.add_argument("--wrong-expected", action="store_true",
                        help="break the expected values (self-check only)")
    args = parser.parse_args(argv)
    if not (SRC / "fpcavity" / "__init__.py").is_file():
        print(f"no fpcavity sources under {SRC}", file=sys.stderr)
        return 2
    if args.wrong_expected:
        checks.break_expected()
    generated = inputs.GENERATORS[args.workload](args.seed, args.scale)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.workload == "library":
            result = run_library_workload(args, generated, workdir)
        else:
            result = run_cli_workload(args, generated, workdir)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, scale=args.scale,
                  machine=machine())
    line = report(args, result)
    detail = WORK / f"{args.workload}-trace{args.trace}.json"
    detail.write_text(json.dumps(result, indent=1, default=str) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
