"""Library workload process: import once, then design studies in a loop.

Started by run.py from a work directory holding ``config.json`` and
``plan.json``.  Set-up is interpreter start through ``import fpcavity`` and
``RunConfig.from_file``; the process records the monotonic clock when it
is ready, so the parent can time set-up from before it spawned the
process.  One study is:

- ``ensemble_purcell_stats`` at the configured sample count for each of
  the plan's four particle diameters;
- ``sweep_grid`` over the configured (dense) diameter, repetition-rate and
  mode grid, then ``best_operating_point`` and ``write_sweep_csv``;
- a decay and a hole trace at the configured point counts, each through
  ``write_trace`` -> ``read_trace_csv`` -> ``fit``.

Studies repeat until the next one would end after ``--seconds``; each is
checked after it is timed, and the reference work of bench/reference.py
is timed between studies.  With ``--trace`` studies alternate between
untraced and traced.  The record goes to ``study.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def _traces(fp, config, plan):
    """(kind, fit model, trace) of the two round-trip traces."""
    decay = config.simulate_params("decay")
    lifetime = config.transitions[0].free_space_lifetime \
        / (1.0 + decay["effective_purcell"])
    grid = np.linspace(0.0, decay["time_span_multiple"] * lifetime,
                       decay["points"])
    decay_trace = fp.decay_histogram(
        lifetime, grid, decay["shots"], decay["amplitude"],
        decay["background"], noise=decay["noise"], seed=plan["trace_seed"])
    hole = config.simulate_params("hole")
    span = hole["span_multiple"] * hole["hole_fwhm"]
    grid = np.linspace(-0.5 * span, 0.5 * span, hole["points"])
    hole_trace = fp.hole_spectrum(
        grid, hole["n_teeth"], hole["tooth_power"], hole["hole_fwhm"],
        hole["rate_scale"], noise=hole["noise"],
        seed=plan["trace_seed"] + 1)
    return [("decay", "exp_decay", decay_trace),
            ("hole", "inverted_lorentzian", hole_trace)]


def study(fp, config, plan) -> dict:
    """One design study; calls go through the package namespace so that
    span wrappers installed after import are seen."""
    out = {"ensemble": [], "traces": []}
    for diameter in plan["ensemble_diameters"]:
        particle = fp.Nanoparticle(
            diameter=diameter,
            dopant_concentration=config.nanoparticle.dopant_concentration)
        out["ensemble"].append(fp.ensemble_purcell_stats(
            particle, config.geometry, config.transitions,
            config.loss_budgets, n_samples=config.mc_samples,
            seed=plan["ensemble_seed"],
            antinode_offset_fraction=config.antinode_offset_fraction))
    rows = fp.sweep_grid(
        config.plan_diameters, config.plan_repetition_rates,
        config.plan_modes, config.transitions, config.loss_budgets,
        config.geometry.radius_of_curvature, config.detection,
        config.excitation_time, config.excited_population,
        integration_time=config.plan_integration_time)
    out["rows"] = rows
    out["best"] = fp.best_operating_point(rows)
    fp.write_sweep_csv(rows, "sweep.csv")
    for kind, model, trace in _traces(fp, config, plan):
        fp.write_trace(trace, f"{kind}.csv", metadata={"kind": kind})
        back = fp.read_trace_csv(f"{kind}.csv")
        result = fp.fit(model, back, weights="poisson")
        out["traces"].append((kind, trace, back, result))
    return out


def check(checks, out, config, raw, plan, oracle, first,
          deviations) -> list[str]:
    """Failures of one study; ``first`` holds the first study's hashes.

    ``deviations`` receives each fitted trace parameter's distance from
    its simulated value in reported standard errors.
    """
    failures = []
    for diameter, stats, channels in zip(plan["ensemble_diameters"],
                                         out["ensemble"], oracle):
        checks.check_ensemble(
            failures, stats.to_dict(), diameter, channels,
            config.antinode_offset_fraction, config.mc_samples,
            label=f"ensemble at {diameter * 1e9:.1f} nm")
    expected = (len(config.plan_diameters)
                * len(config.plan_repetition_rates) * len(config.plan_modes))
    rows = out["rows"]
    if len(rows) != expected:
        failures.append(f"sweep rows {len(rows)}, expected {expected}")
    best = max(r.rate for r in rows)
    if not out["best"].rate == best > 0.0:
        failures.append(f"best rate {out['best'].rate!r} is not the "
                        f"sweep maximum {best!r}")
    lines = Path("sweep.csv").read_text().count("\n")
    if lines != expected + 1:
        failures.append(f"sweep csv has {lines} lines")
    for kind, trace, back, result in out["traces"]:
        if not (np.array_equal(trace.x, back.x)
                and np.array_equal(trace.y, back.y)):
            failures.append(f"{kind} trace changed in the csv round trip")
        # convergence only: at this size the Poisson-weighted fit's
        # background bias (weights from observed counts, about -1 count)
        # is many standard errors; see README.md, "Known defects"
        failures += checks.check_fit(result.to_dict(), None, f"{kind} trace")
        truth = checks.fit_truth(kind, raw)
        deviations[kind] = {
            name: (result.parameters[name] - value)
            / result.standard_errors[name] for name, value in truth.items()}
    digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
               for name in ("sweep.csv", "decay.csv", "decay.json",
                            "hole.csv", "hole.json")}
    digests["ensemble"] = [s.to_dict() for s in out["ensemble"]]
    if first.setdefault("digests", digests) != digests:
        failures.append("study outputs differ from the first study with "
                        "the same seed")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--wrong-expected", action="store_true")
    args = parser.parse_args(argv)

    import fpcavity as fp
    config = fp.RunConfig.from_file(args.config)
    ready = time.monotonic()
    record = {"ready": ready, "studies": []}
    if args.setup_only:
        Path("study.json").write_text(json.dumps(record))
        return 0

    import checks
    import reference
    import spans
    if args.wrong_expected:
        checks.break_expected()
    raw = json.loads(Path(args.config).read_text())
    plan = json.loads(Path(args.plan).read_text())
    oracle = []
    for diameter in plan["ensemble_diameters"]:
        particle = fp.Nanoparticle(
            diameter=diameter,
            dopant_concentration=config.nanoparticle.dopant_concentration)
        oracle.append([(c.wavelength, c.strength) for c in
                       fp.channel_strengths(particle, config.geometry,
                                            config.transitions,
                                            config.loss_budgets)])
    def timed_reference() -> dict:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        reference.study_kernel()
        return {"wall": time.perf_counter() - t0,
                "cpu": time.process_time() - cpu0}

    rec = spans.Recorder()
    first: dict = {}
    # each study is paired with the mean of the references just before
    # and just after it
    before = timed_reference()
    start = time.perf_counter()
    durations: list[float] = []
    while len(durations) < 2 or time.perf_counter() - start \
            + statistics.median(durations) <= args.seconds:
        unit_start = time.perf_counter()
        traced = args.trace and len(durations) % 2 == 1
        undo = spans.install(rec) if traced else None
        mark = rec.mark()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        root = rec.open("study") if traced else None
        out = study(fp, config, plan)
        if traced:
            rec.close(root)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if traced:
            spans.uninstall(undo)
        deviations: dict = {}
        entry = {"wall": wall, "cpu": cpu, "traced": traced,
                 "failures": check(checks, out, config, raw, plan, oracle,
                                   first, deviations),
                 "fit_deviation_sigmas": deviations}
        del out  # the reference must not add to the study's peak memory
        after = timed_reference()
        entry["reference"] = {key: 0.5 * (before[key] + after[key])
                              for key in before}
        before = after
        if traced:
            entry["metrics"] = spans.layer_metrics(rec, mark, rec.mark())
            if mark == 0:  # later traced studies repeat the first
                entry["spans"] = rec.spans[:]
        record["studies"].append(entry)
        durations.append(time.perf_counter() - unit_start)
    record["hashes"] = first.get("digests")
    Path("study.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
