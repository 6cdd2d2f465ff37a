"""Command-line interface.

Five subcommands tie the library into reproducible runs:

cavity     mode geometry, free spectral range, finesse, linewidth, and
           the double-resonance solution
purcell    per-transition coupling table, and the exact mean and std of
           the ensemble's Purcell factor and of the addressed-ion count
simulate   synthetic measurement traces (ple, saturation, hole, decay)
fit        least-squares fits of a trace CSV against a named model
plan       detected-rate sweep over diameter, repetition rate, and mode

Global flags: ``--config PATH`` (JSON parameter tree, bundled defaults
otherwise), ``--seed N`` (overrides the config seed of the noise draws),
``--json`` (machine output, full precision); ``simulate`` (required),
``fit`` and ``plan`` take ``--out PATH`` (write the data file and a
manifest).  Exit codes: 0 success, 2 configuration or argument error, an
output file that cannot be written, and before anything runs an empty
``--out``, a trace that is its own sidecar, an output in a missing
directory, one that is a directory or a symbolic link loop, or one that is
another output, the config, the input trace or that trace's sidecar, each
output judged where its links lead, 3 input-data error, 4 a
``NumericalError`` from a fit.
Human-readable text rounds values; the JSON output carries full precision
of the same numbers.

A subcommand imports the layers it uses inside its handler, so ``cavity``,
``purcell`` and ``plan`` load no array library, ``cavity`` and ``fit`` no
``purcell``, and ``fit`` no planner.
"""
from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from pathlib import Path

from .config import (
    SIMULATIONS,
    ConfigError,
    RunConfig,
    _population,
    build_manifest,
    manifest_path_for,
    valid_seed,
    write_manifest,
)
from .core import (CONTACT_LENGTH, TOOLKIT_VERSION, NumericalError,
                   _json_text, replace, sidecar_path, written_sidecar_path)
from .optics import (
    cavity_linewidth,
    double_resonance,
    finesse,
    free_spectral_range,
    loaded_budget,
    mode_waist,
)


class _CliError(Exception):
    """Error with a specific exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


_HZ_UNITS = ((1e12, "THz"), (1e9, "GHz"), (1e6, "MHz"), (1e3, "kHz"),
             (1.0, "Hz"))
_LENGTH_UNITS = ((1.0, "m"), (1e-3, "mm"), (1e-6, "um"), (1e-9, "nm"))
_TIME_UNITS = ((1.0, "s"), (1e-3, "ms"), (1e-6, "us"), (1e-9, "ns"))


def _scaled(value: float, units, digits: int = 4) -> str:
    """``value`` in the first of ``units`` it reaches, else the last."""
    scale, suffix = next((unit for unit in units if abs(value) >= unit[0]),
                         units[-1])
    return f"{value / scale:.{digits}g} {suffix}"


_hz = functools.partial(_scaled, units=_HZ_UNITS)
_length = functools.partial(_scaled, units=_LENGTH_UNITS)
_time = functools.partial(_scaled, units=_TIME_UNITS)


def _loaded_budgets(config: RunConfig):
    """Bare budgets with the config nanoparticle's scattering added."""
    return tuple(
        loaded_budget(budget, config.nanoparticle.diameter,
                      transition.wavelength)
        for transition, budget in zip(config.transitions,
                                      config.loss_budgets))


def _cmd_cavity(args, config: RunConfig, seed: int):
    geometry = config.geometry
    modes = []
    for transition, bare, loaded in zip(config.transitions,
                                        config.loss_budgets,
                                        _loaded_budgets(config)):
        modes.append({
            "wavelength": transition.wavelength,
            "waist": mode_waist(transition.wavelength,
                                geometry.radius_of_curvature,
                                geometry.cavity_length),
            "finesse": finesse(bare),
            "cavity_linewidth": cavity_linewidth(geometry.cavity_length,
                                                 bare),
            "finesse_loaded": finesse(loaded),
            "cavity_linewidth_loaded": cavity_linewidth(
                geometry.cavity_length, loaded),
        })
    report = {
        "cavity_length": geometry.cavity_length,
        "mode_order": geometry.mode_order,
        "free_spectral_range": free_spectral_range(geometry.cavity_length),
        "contact": {
            "cavity_length": CONTACT_LENGTH,
            "waist": mode_waist(config.transitions[0].wavelength,
                                geometry.radius_of_curvature,
                                CONTACT_LENGTH),
        },
        "modes": modes,
    }
    if len(config.transitions) >= 2:
        solution = double_resonance(config.transitions[0].wavelength,
                                    config.transitions[1].wavelength)
        report["double_resonance"] = solution.to_dict()

    lines = [
        f"cavity length {_length(report['cavity_length'])} "
        f"(mode order {report['mode_order']}), "
        f"FSR {_hz(report['free_spectral_range'])}",
    ]
    if "double_resonance" in report:
        sol = report["double_resonance"]
        lines.append(
            f"double resonance: orders {sol['mode_order_1']}/"
            f"{sol['mode_order_2']} at {_length(sol['cavity_length'])}, "
            f"residual {_hz(sol['residual_detuning'])}")
    for mode in modes:
        lines.append(
            f"mode {_length(mode['wavelength'])}: "
            f"waist {_length(mode['waist'])}, "
            f"finesse {mode['finesse']:.0f} "
            f"(linewidth {_hz(mode['cavity_linewidth'])}), "
            f"loaded {mode['finesse_loaded']:.0f} "
            f"({_hz(mode['cavity_linewidth_loaded'])})")
    lines.append(
        f"contact waist at {_length(CONTACT_LENGTH)}: "
        f"{_length(report['contact']['waist'])}")
    return report, lines, None


def _cmd_purcell(args, config: RunConfig, seed: int):
    from .ensemble import ensemble_purcell_stats, ion_count_moments
    from .purcell import coupling_report, multimodal_sum
    geometry = config.geometry
    particle = config.nanoparticle
    reports = [
        coupling_report(transition, geometry, loaded)
        for transition, loaded in zip(config.transitions,
                                      _loaded_budgets(config))
    ]
    table = [r.to_table_row() for r in reports]
    total = multimodal_sum(r.effective_purcell for r in reports)

    ensemble = ensemble_purcell_stats(
        particle, geometry, config.transitions, config.loss_budgets,
        antinode_offset_fraction=config.antinode_offset_fraction).to_dict()

    population = _population(replace(particle, diameter=config.ion_diameter),
                             config.ion_inhomogeneous_fwhm,
                             "ion_estimate.diameter")
    addressed = ion_count_moments(population, 0.0,
                                  config.ion_probe_bandwidth)

    report = {
        "table": table,
        "total_effective_purcell": total,
        "ensemble": ensemble,
        "ions": {
            "particle_diameter": config.ion_diameter,
            "total": population.total_ions,
            "probe_bandwidth": config.ion_probe_bandwidth,
            "addressed": addressed.to_dict(),
        },
    }

    lines = ["wavelength    g            kappa        gamma_h      "
             "F_eff      C"]
    for row in table:
        lines.append(
            f"{_length(row['wavelength']):<13} {_hz(row['g']):<12} "
            f"{_hz(row['kappa']):<12} {_hz(row['gamma_h']):<12} "
            f"{row['f_eff']:<10.3f} {row['cooperativity']:.3g}")
    lines.append(f"summed effective Purcell factor: {total:.3f}")
    lines.append(
        f"ensemble over {_length(particle.diameter)} particle (exact): "
        f"mean {ensemble['mean']:.3f}, std {ensemble['std']:.3f}, "
        f"max {ensemble['max']:.3f}")
    lines.append(
        f"ions in {_length(config.ion_diameter)} particle: "
        f"{population.total_ions}; "
        f"addressed in {_hz(config.ion_probe_bandwidth)} probe: "
        f"{addressed.mean:.1f} +/- {addressed.std:.1f} (exact)")
    return report, lines, None


def _cmd_simulate(args, config: RunConfig, seed: int):
    from .trace import write_trace
    params = config.simulate_params(args.kind)
    trace, derived = SIMULATIONS[args.kind].run(params, config, seed)
    out = Path(args.out)
    sidecar = sidecar_path(out)
    report = {
        "kind": args.kind,
        "points": len(trace),
        "noise_model": trace.noise_model,
        "output": str(out),
        "sidecar": str(sidecar),
        "derived": derived,
    }
    lines = [f"wrote {args.kind} trace ({len(trace)} points, "
             f"noise {trace.noise_model}) to {out}"]
    if "effective_lifetime" in derived:
        lines.append(
            f"effective lifetime {_time(derived['effective_lifetime'])} "
            f"(free-space {_time(derived['free_space_lifetime'])})")
    lines.append(f"sidecar {sidecar}")
    return report, lines, functools.partial(write_trace, trace, metadata={
        "kind": args.kind,
        "parameters": params,
        "derived": derived,
    })


def _cmd_fit(args, config: RunConfig, seed: int):
    from .fitting import fit
    from .trace import read_trace_csv
    x_range = tuple(args.range) if args.range else None
    try:
        result = fit(args.model, read_trace_csv(args.input),
                     weights=args.weights, x_range=x_range)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # path left out
        raise _CliError(3, f"input error: cannot read {args.input}: "
                           f"{reason}") from None
    except ValueError as exc:  # a TraceFormatError or data fit cannot take
        raise _CliError(3, f"input error: {exc}") from None

    report = result.to_dict()
    report["input"] = str(args.input)
    lines = [f"model {result.model} on {args.input} "
             f"({'converged' if result.converged else 'did not converge'}, "
             f"{result.iterations} iterations)"]
    for name, value in result.parameters.items():
        error = result.standard_errors[name]
        if error != error:  # NaN
            lines.append(f"  {name} = {value:.6g}")
        else:
            lines.append(f"  {name} = {value:.6g} +/- {error:.2g}")
    lines.append(f"weighted residual sum of squares: "
                 f"{result.residual_sum_of_squares:.6g}")
    if args.out is not None:
        lines.append(f"wrote report to {Path(args.out)}")
    text = _json_text(report)
    return report, lines, lambda path: path.write_text(
        text, encoding="utf-8", newline="\n")


def _cmd_plan(args, config: RunConfig, seed: int):
    from .planner import best_operating_point, sweep_grid, write_sweep_csv
    sweep = sweep_grid(
        config.plan_diameters, config.plan_repetition_rates,
        config.plan_modes, config.transitions, config.loss_budgets,
        config.geometry.radius_of_curvature, config.detection,
        config.excitation_time, config.excited_population,
        integration_time=config.plan_integration_time)
    try:
        best = best_operating_point(sweep)
    except ValueError as exc:
        raise _CliError(2, f"plan error: {exc}") from None
    report = None
    if args.json:  # only --json prints the report, and its rows are costly
        report = {
            "n_rows": len(sweep),
            "modes": list(config.plan_modes),
            "integration_time": config.plan_integration_time,
            "best": best.to_dict(),
            "rows": [row.to_dict() for row in sweep],
        }
    lines = [
        f"swept {len(sweep)} operating points "
        f"({', '.join(config.plan_modes)})",
        f"best: {best.mode}, {_length(best.diameter)} particle at "
        f"{_hz(best.repetition_rate)} -> {best.rate:.1f} counts/s, "
        f"SNR {best.snr:.1f} in {config.plan_integration_time:g} s "
        f"(F_eff {best.effective_purcell:.2f})",
    ]
    if args.out is not None:
        lines.append(f"wrote sweep to {Path(args.out)}")
    return report, lines, functools.partial(write_sweep_csv, sweep)


_HANDLERS = {
    "cavity": _cmd_cavity,
    "purcell": _cmd_purcell,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "plan": _cmd_plan,
}


def _seed_arg(text: str) -> int:
    try:
        return valid_seed(int(text), "--seed")
    except ValueError:  # int() or the seed rule, a ConfigError
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}") from None


def _model_arg(name: str) -> str:
    """A fit model name, checked against ``fitting.MODELS`` only when
    ``fit`` is parsed, so other subcommands do not load the fitter."""
    from .fitting import _model
    try:
        _model(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return name


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON run configuration "
                             "(bundled defaults if omitted)")
    common.add_argument("--seed", type=_seed_arg, metavar="N",
                        help="override the config seed")
    common.add_argument("--json", action="store_true",
                        help="machine-readable output, full precision")

    parser = argparse.ArgumentParser(
        prog="fpcavity",
        description="Design and analysis toolkit for a fiber microcavity "
                    "coupled to narrow-line emitters in nanoparticles.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("cavity", parents=[common],
                   help="mode geometry, finesse, and double resonance")
    sub.add_parser("purcell", parents=[common],
                   help="coupling table, ensemble stats, ion estimate")
    simulate = sub.add_parser("simulate", parents=[common],
                              help="generate a synthetic measurement trace")
    simulate.add_argument("kind", choices=tuple(SIMULATIONS))
    simulate.add_argument("--out", metavar="PATH", required=True,
                          help="write the trace CSV, sidecar and manifest")
    fit_cmd = sub.add_parser("fit", parents=[common],
                             help="fit a trace CSV with a named model")
    fit_cmd.add_argument("model", type=_model_arg,
                         help="model name; an unknown one lists the models")
    fit_cmd.add_argument("input", help="trace CSV file")
    fit_cmd.add_argument("--range", nargs=2, type=float,
                         metavar=("LO", "HI"),
                         help="restrict the fit to an x window")
    fit_cmd.add_argument("--weights", choices=("poisson",),
                         help="residual weighting")
    fit_cmd.add_argument("--out", metavar="PATH",
                         help="write the fit report as JSON, plus a manifest")
    plan = sub.add_parser("plan", parents=[common],
                          help="sweep detected rate and SNR over the "
                               "design grid")
    plan.add_argument("--out", metavar="PATH",
                      help="write the sweep CSV, plus a manifest")
    return parser


def _outputs(args) -> list[Path]:
    """Every file the run writes, data first and manifest last (none
    without ``--out``).  Exit 2, before anything runs, if a trace is its
    own sidecar, or if one, where its links lead, is in a missing
    directory, is a directory or a link loop, or is another output or an
    input: the config, ``fit``'s trace or that trace's sidecar."""
    if getattr(args, "out", None) is None:
        return []
    out = Path(args.out)
    if not out.name:  # "", "." or "/" leaves no name to write or derive
        raise _CliError(2, f"output error: --out {args.out!r} names no file")
    written, inputs = [out], [args.config]
    if args.command == "simulate":
        written.append(written_sidecar_path(out))
    elif args.command == "fit" and Path(args.input).name:  # "" or ".": exit 3
        inputs += [args.input, sidecar_path(args.input)]
    written.append(manifest_path_for(out))
    taken = {Path(os.path.realpath(source)): f"the input {source}"
             for source in inputs if source}
    for path in written:
        real = Path(os.path.realpath(path))  # on a loop it stops at a link
        if real in taken:
            raise _CliError(2, f"output error: {path} would overwrite "
                               f"{taken[real]}")
        taken[real] = f"the output {path}"
        if real.is_symlink() or real.is_dir() or not real.parent.is_dir():
            reason = ("Too many levels of symbolic links" if real.is_symlink()
                      else "Is a directory" if real.is_dir()
                      else "No such file or directory")
            raise _CliError(2, f"output error: cannot write {path}: {reason}")
    return written


def _run(args, argv) -> int:
    outputs = _outputs(args)
    if args.config:
        config = RunConfig.from_file(args.config)
    else:
        config = RunConfig.default()
    seed = args.seed if args.seed is not None else config.seed

    report, lines, write = _HANDLERS[args.command](args, config, seed)

    path = None  # the file being written, for an error that names none
    try:
        for path in outputs[:1]:
            write(path)  # the data file, and a trace's sidecar beside it
        manifest = build_manifest(["fpcavity", *argv], config, seed,
                                  outputs[:-1])
        for path in outputs[-1:]:
            write_manifest(manifest, path)
            lines.append(f"manifest {path}")
    except OSError as exc:
        raise _CliError(2, f"output error: cannot write "
                           f"{exc.filename or path}: {exc.strerror or exc}"
                        ) from None

    if args.json:
        report["manifest"] = manifest.to_dict()
        sys.stdout.write(_json_text(report))
    else:
        for line in lines:
            print(line)
        print(f"config sha256 {manifest.config_sha256[:12]}, seed {seed}, "
              f"toolkit {TOOLKIT_VERSION}")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args, list(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> int:
    """Process entry of ``python -m fpcavity.cli`` and the console script:
    ``main()`` with the cyclic collector off, safe because a run's cyclic
    garbage is a few hundred objects whatever its points or rows, then
    ``gc.freeze()`` however it ends, so finalization's full collection,
    which runs regardless, skips the run's objects; every file is closed
    by then.  ``atexit``, the stdio flush and the exit code are kept."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
