"""End-to-end command-line behavior: outputs, exit codes, reproducibility."""
import errno
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fpcavity
from fpcavity import (RunConfig, SweepRow, Trace, cli, sweep_grid,
                      write_trace_csv)
from fpcavity import trace as trace_module
from fpcavity.cli import main
from fpcavity.config import ConfigError, file_sha256
from fpcavity.core import NumericalError


def _strict_json(text: str):
    """Parse ``text`` as JSON, which has no NaN or Infinity."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def _json_run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return _strict_json(captured.out)


def test_cavity_text(capsys):
    assert main(["cavity"]) == 0
    out = capsys.readouterr().out
    assert "mode order 20" in out
    assert "orders 20/19" in out
    assert "config sha256" in out


def test_cavity_json(capsys):
    report = _json_run(capsys, ["cavity", "--json"])
    assert report["modes"][0]["waist"] == pytest.approx(
        1.3970922327466135e-6, rel=1e-9)
    assert report["modes"][1]["waist"] == pytest.approx(
        1.4329544300190762e-6, rel=1e-9)
    assert report["contact"]["waist"] == pytest.approx(
        1.177521916660829e-6, rel=1e-9)
    assert report["double_resonance"]["mode_order_1"] == 20
    assert report["double_resonance"]["mode_order_2"] == 19
    assert report["double_resonance"]["cavity_length"] == pytest.approx(
        5.808e-6, rel=1e-9)
    manifest = report["manifest"]
    assert manifest["config_sha256"] == RunConfig.default().config_hash()
    assert manifest["toolkit_version"] == fpcavity.__version__


def test_cavity_text_matches_json(capsys):
    report = _json_run(capsys, ["cavity", "--json"])
    assert main(["cavity"]) == 0
    text = capsys.readouterr().out
    # the rounded text figures come from the same numbers as the JSON
    assert cli._length(report["modes"][0]["waist"]) in text
    assert cli._hz(report["free_spectral_range"]) in text


def test_purcell_json_table(capsys):
    report = _json_run(capsys, ["purcell", "--json"])
    table = report["table"]
    assert len(table) == 2
    assert set(table[0]) == {"wavelength", "g", "kappa", "gamma_h",
                             "f_eff", "cooperativity"}
    row_580, row_611 = table
    assert row_580["kappa"] == pytest.approx(1.6094300216436288e9, rel=1e-6)
    assert row_580["f_eff"] == pytest.approx(3.746322497521133, rel=1e-6)
    assert row_580["g"] == pytest.approx(0.3466957260083598e6, rel=1e-6)
    assert row_580["cooperativity"] == pytest.approx(9.034026422679743e-05,
                                                     rel=1e-6)
    assert row_611["kappa"] == pytest.approx(2.826886060383636e9, rel=2e-4)
    assert row_611["f_eff"] == pytest.approx(0.47871306600238506, rel=2e-4)
    assert row_611["g"] == pytest.approx(2.5501047455783206e6, rel=2e-4)
    assert report["total_effective_purcell"] == pytest.approx(
        row_580["f_eff"] + row_611["f_eff"], rel=1e-12)
    ions = report["ions"]
    assert ions["total"] == 61149
    assert 7.0 < ions["addressed"]["mean"] < 23.0

    again = _json_run(capsys, ["purcell", "--json"])
    report["manifest"].pop("created_utc")
    again["manifest"].pop("created_utc")
    assert report == again


def test_purcell_report_does_not_depend_on_the_seed(capsys):
    # the ensemble and ion-count figures are exact moments, not draws, so
    # --seed reaches only the manifest
    base = _json_run(capsys, ["purcell", "--json"])
    seeded = _json_run(capsys, ["purcell", "--json", "--seed", "5"])
    assert seeded.pop("manifest")["seed"] == 5
    assert base.pop("manifest")["seed"] == 0
    assert seeded == base
    assert base["ensemble"]["method"] == "exact"
    assert base["ions"]["addressed"]["method"] == "exact"


def test_purcell_reports_ensemble_purcell_stats(capsys):
    # the subcommand states the ensemble through the library's one function
    config = RunConfig.default()
    stats = fpcavity.ensemble_purcell_stats(
        config.nanoparticle, config.geometry, config.transitions,
        config.loss_budgets,
        antinode_offset_fraction=config.antinode_offset_fraction)
    report = _json_run(capsys, ["purcell", "--json"])
    assert report["ensemble"] == stats.to_dict()


def test_stray_thread_env_var_is_ignored(capsys, monkeypatch):
    base = _json_run(capsys, ["purcell", "--json"])
    monkeypatch.setenv("FPCAVITY_THREADS", "abc")
    stray = _json_run(capsys, ["purcell", "--json"])
    assert stray["ensemble"] == base["ensemble"]


def test_config_errors(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["cavity", "--config", str(broken)]) == 2
    assert "config error" in capsys.readouterr().err

    data = RunConfig.default().data
    data["schema_version"] = 99
    versioned = tmp_path / "versioned.json"
    versioned.write_text(json.dumps(data))
    assert main(["cavity", "--config", str(versioned)]) == 2
    err = capsys.readouterr().err
    assert "schema_version" in err

    data = RunConfig.default().data
    data["geometry"]["cavity_length"] = 30e-6  # beyond the stability edge
    unstable = tmp_path / "unstable.json"
    unstable.write_text(json.dumps(data))
    assert main(["cavity", "--config", str(unstable)]) == 2

    # an overflowing literal parses as inf and used to divide by zero
    data = RunConfig.default().data
    data["loss_budgets"][0]["absorption_scatter"] = "HUGE"
    overflow = tmp_path / "overflow.json"
    overflow.write_text(json.dumps(data).replace('"HUGE"', "1e999"))
    capsys.readouterr()
    assert main(["purcell", "--config", str(overflow)]) == 2
    assert capsys.readouterr().err == (
        "config error: loss_budgets[0].absorption_scatter: must be finite\n")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("leaf", [
    ("transitions", 0, "wavelength"),
    ("loss_budgets", 1, "transmission_out"),
    ("geometry", "rms_length_jitter"),
    ("plan", "repetition_rates", 0),
    ("pulse", "excitation_time"),
    ("simulate", "decay", "effective_purcell"),
], ids=lambda leaf: "/".join(map(str, leaf)))
def test_non_finite_config_number_names_its_path(leaf, value):
    data = RunConfig.default().data
    parent = data
    for key in leaf[:-1]:
        parent = parent[key]
    parent[leaf[-1]] = value
    path = "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                   for key in leaf).lstrip(".")
    message = re.escape(f"{path}: must be finite")
    with pytest.raises(ConfigError, match=message):
        RunConfig(data)


@pytest.mark.parametrize("command", ["cavity", "purcell"])
def test_negative_seed_rejected(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "-5"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def _argv_writing(command, config, out):
    """``command`` on ``config``, writing to ``out`` if it takes ``--out``."""
    argv = [*command.split(), "--config", str(config)]
    if argv[0] in ("simulate", "fit", "plan"):
        argv += ["--out", str(out)]
    return argv


def test_simulate_requires_out(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "decay"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cavity", "purcell"])
def test_out_is_refused_where_nothing_is_written(tmp_path, capsys, command):
    # both accepted --out, exited 0 and wrote nothing
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(out)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_simulate_refuses_a_trace_that_is_its_own_sidecar(tmp_path, capsys):
    # the CSV went to d.json, then the sidecar overwrote it, and the
    # manifest listed d.json twice
    out = tmp_path / "d.json"
    assert main(["simulate", "decay", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: trace path {out} is its own sidecar path\n"
    assert not any(tmp_path.iterdir())


def test_a_trace_that_is_its_own_sidecar_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch):
    # the whole simulation ran before write_trace refused the path
    def refuse(*args, **kwargs):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setattr("fpcavity.config.Simulation.run", refuse)
    out = tmp_path / "d.json"
    assert main(["simulate", "decay", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: trace path {out} is its own sidecar path\n")
    assert not any(tmp_path.iterdir())


def _overwriting_runs(tmp_path):
    """The runs that wrote over their own input and exited 0: each argv,
    its input file, and the path that would have replaced it."""
    config = tmp_path / "big.json"
    config.write_text(json.dumps(fpcavity.default_config_data()),
                      encoding="utf-8")
    plan_config = tmp_path / "c.json"
    plan_config.write_bytes(config.read_bytes())
    trace = tmp_path / "d.csv"
    trace.write_text("x,y\n0.0,2.0\n1.0,1.0\n2.0,0.5\n3.0,0.25\n",
                     encoding="utf-8")
    sidecar = tmp_path / "d.json"
    sidecar.write_text('{"noise_model": "poisson"}\n', encoding="utf-8")
    (tmp_path / "sub").mkdir()
    same_trace = tmp_path / "sub" / ".." / "d.csv"  # another spelling
    return {
        # the sidecar big.json replaced the config
        "simulate-sidecar": (
            ["simulate", "decay", "--config", str(config),
             "--out", str(tmp_path / "big.csv")], config, config),
        # the sweep CSV replaced the config
        "plan-out": (
            ["plan", "--config", str(plan_config), "--out", str(plan_config)],
            plan_config, plan_config),
        # the fit report replaced the trace
        "fit-out": (
            ["fit", "exp_decay", str(same_trace), "--out", str(trace)],
            same_trace, trace),
        # the fit report replaced the trace's sidecar
        "fit-sidecar": (
            ["fit", "exp_decay", str(trace), "--out", str(sidecar)],
            sidecar, sidecar),
    }


def _files(directory) -> dict:
    return {path: path.read_bytes() for path in directory.iterdir()
            if path.is_file()}


@pytest.mark.parametrize("case", ["simulate-sidecar", "plan-out",
                                  "fit-out", "fit-sidecar"])
def test_a_run_that_would_overwrite_its_input_is_refused(tmp_path, capsys,
                                                         case):
    argv, source, written = _overwriting_runs(tmp_path)[case]
    before = _files(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"output error: {written} would overwrite the input {source}\n")
    assert _files(tmp_path) == before


def test_a_manifest_that_would_overwrite_the_config_is_refused(tmp_path,
                                                                capsys):
    config = tmp_path / "p.csv.manifest.json"
    config.write_text(json.dumps(fpcavity.default_config_data()),
                      encoding="utf-8")
    out = tmp_path / "p.csv"
    assert main(["plan", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"output error: {config} would overwrite the input {config}\n")
    assert [path.name for path in tmp_path.iterdir()] == [config.name]


def test_simulate_decay_reproducible(tmp_path, capsys):
    out = tmp_path / "decay.csv"
    assert main(["simulate", "decay", "--out", str(out)]) == 0
    capsys.readouterr()
    sidecar = tmp_path / "decay.json"
    manifest_file = tmp_path / "decay.csv.manifest.json"
    assert out.exists() and sidecar.exists() and manifest_file.exists()

    first_csv = out.read_bytes()
    first_sidecar = sidecar.read_bytes()
    assert main(["simulate", "decay", "--out", str(out)]) == 0
    capsys.readouterr()
    # data outputs are byte-identical on replay
    assert out.read_bytes() == first_csv
    assert sidecar.read_bytes() == first_sidecar

    assert main(["simulate", "decay", "--out", str(out), "--seed", "1"]) == 0
    capsys.readouterr()
    assert out.read_bytes() != first_csv

    meta = json.loads(first_sidecar)
    assert meta["kind"] == "decay"
    assert meta["derived"]["effective_lifetime"] == pytest.approx(
        2e-3 / 1.82, rel=1e-12)

    manifest = json.loads(manifest_file.read_text())
    assert manifest["seed"] == 1  # last run wrote it
    listed = {entry["path"] for entry in manifest["outputs"]}
    assert listed == {str(out), str(sidecar)}
    by_path = {entry["path"]: entry["sha256"]
               for entry in manifest["outputs"]}
    assert by_path[str(out)] == file_sha256(out)


@pytest.mark.parametrize("effective_purcell", [-1.0, -0.5])
def test_simulate_decay_rejects_negative_purcell(tmp_path, capsys,
                                                 effective_purcell):
    # -1 used to divide by zero, -0.5 to simulate a decay slower than T1
    data = RunConfig.default().data
    data["simulate"]["decay"]["effective_purcell"] = effective_purcell
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "decay.csv"
    assert main(["simulate", "decay", "--config", str(config),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: simulate.decay.effective_purcell: must be >= 0\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["cavity", "plan", "simulate ple"])
def test_decay_purcell_factor_is_checked_at_load(tmp_path, capsys, command):
    # the rule lived in the decay branch of the CLI, so every other
    # subcommand accepted -1 and exited 0
    data = RunConfig.default().data
    data["simulate"]["decay"]["effective_purcell"] = -1
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out.csv"
    assert main(_argv_writing(command, config, out)) == 2
    assert capsys.readouterr().err == (
        "config error: simulate.decay.effective_purcell: must be >= 0\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["cavity", "plan", "simulate ple"])
def test_population_without_probe_width_is_rejected_at_load(tmp_path, capsys,
                                                           command):
    # cavity and plan used to accept the block, and simulate ple exited 2
    # with "error: probe_fwhm is required with a population", naming no key
    data = RunConfig.default().data
    data["simulate"]["ple"]["use_population"] = True
    del data["simulate"]["ple"]["probe_fwhm"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out.csv"
    assert main(_argv_writing(command, config, out)) == 2
    assert capsys.readouterr().err == (
        "config error: simulate.ple.probe_fwhm: required key is missing "
        "when use_population is true\n")
    assert not out.exists()


@pytest.mark.parametrize("kind, key, value, message", [
    ("decay", "effective_purcell", "abc", "must be a number"),
    ("decay", "points", "12", "must be an integer"),
    ("decay", "points", 2.7, "must be an integer"),
    ("decay", "shots", True, "must be an integer"),
    ("decay", "effective_purcell", -1.0, "must be >= 0"),
    ("hole", "n_teeth", 200.0, "must be an integer"),
    ("saturation", "background", False, "must be a number"),
    ("ple", "probe_fwhm", None, "must be a number"),
    ("ple", "span_multiple", 0, "must be positive"),
    ("saturation", "exponent", 2, "must be in (0, 1]"),
    ("ple", "amplitude", -5, "must be >= 0"),
    ("hole", "hole_fwhm", -1, "must be positive"),
    ("decay", "time_span_multiple", -1, "must be positive"),
    ("saturation", "min_power", -1, "must be positive"),
], ids=["purcell-string", "points-string", "points-float", "shots-bool",
        "purcell-negative", "teeth-float", "background-bool",
        "probe-null", "ple-span-zero", "exponent-two", "amplitude-negative",
        "hole-width-negative", "decay-span-negative", "power-negative"])
def test_simulate_parameters_are_type_checked(tmp_path, capsys, kind, key,
                                              value, message):
    # a string Purcell factor used to exit 1 with a TypeError traceback,
    # "12" and 2.7 points were read through int(...); a zero ple span
    # exited 0 with a grid of zeros, and the other domain errors exited 2
    # without the key path, a negative power after a numpy RuntimeWarning
    data = RunConfig.default().data
    data["simulate"][kind][key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "trace.csv"
    capsys.readouterr()
    assert main(["simulate", kind, "--config", str(config),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: simulate.{kind}.{key}: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("kind, leaf, value, message", [
    ("decay", ("geometry", "mode_order"), True, "must be an integer"),
    ("decay", ("geometry", "mode_order"), 20.0, "must be an integer"),
    ("decay", ("monte_carlo", "n_sampels"), 20000, "unknown key"),
    ("decay", ("plann",), {}, "unknown key"),
    ("decay", ("pulse",), [], "must be an object"),
    ("decay", ("simulate", "decy"), {}, "unknown key"),
    ("decay", ("simulate", "decay", "noize"), "poisson", "unknown key"),
    ("ple", ("simulate", "ple", "use_population"), "false",
     "must be true or false"),
    ("decay", ("transitions", 0, "wavelength"), "abc", "must be a number"),
    ("decay", ("nanoparticle", "diameter"), None, "must be a number"),
    ("decay", ("simulate", "decay", "points"), 0, "must be >= 1"),
    ("decay", ("simulate", "decay", "points"), -3, "must be >= 1"),
    ("decay", ("simulate", "decay", "points"), 10**30,
     "must be an integer <= 10000000"),
    ("decay", ("simulate", "decay", "noise"), "gaussian",
     "must be 'none' or 'poisson', got 'gaussian'"),
], ids=["mode-order-bool", "mode-order-float", "unknown-mc-key",
        "unknown-section", "pulse-list", "unknown-kind", "unknown-decay-key",
        "population-string", "wavelength-string", "diameter-null",
        "points-zero", "points-negative", "points-huge", "noise-unknown"])
def test_every_config_key_is_checked_at_load(tmp_path, capsys, kind, leaf,
                                             value, message):
    # each of these used to run and write a trace, ignoring or misreading
    # the key, or to exit 2 without naming the key
    data = RunConfig.default().data
    parent = data
    for key in leaf[:-1]:
        parent = parent[key]
    parent[leaf[-1]] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "trace.csv"
    path = "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                   for key in leaf).lstrip(".")
    assert main(["simulate", kind, "--config", str(config),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["cavity", "purcell"])
def test_nanoparticle_refractive_index_is_an_unknown_key(tmp_path, capsys,
                                                         command):
    # the key used to be accepted and read by nothing: reports at 1.0 and
    # at 3.5 were byte-identical
    data = RunConfig.default().data
    data["nanoparticle"]["refractive_index"] = 1.93
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    capsys.readouterr()
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "config error: nanoparticle.refractive_index: unknown key\n")


@pytest.mark.parametrize("command", ["cavity", "purcell", "plan"])
def test_a_budget_particle_scatter_is_an_unknown_key(tmp_path, capsys,
                                                    command):
    # the loaded figures replaced the value with the scatter that
    # nanoparticle.diameter gives, so only the bare finesse read it
    data = RunConfig.default().data
    data["loss_budgets"][0]["particle_scatter"] = 500
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    capsys.readouterr()
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "config error: loss_budgets[0].particle_scatter: unknown key\n")


@pytest.mark.parametrize("diameter, message", [
    pytest.param(1000.0, "must be in (0, 1e-06] m",
                 id="1000.0-past-the-ceiling"),
    pytest.param(1e200, "must be in (0, 1e-06] m",
                 id="1e+200-past-the-ceiling"),
    (1e-12, "total_ions must be >= 1"),
])
def test_purcell_ion_count_out_of_range_names_the_diameter(
        tmp_path, capsys, diameter, message):
    # the first two used to exit 1 with an OverflowError traceback; the
    # config's diameter ceiling now stops them before any ion is counted
    data = RunConfig.default().data
    data["ion_estimate"]["diameter"] = diameter
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    assert main(["purcell", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"config error: ion_estimate.diameter: {message}\n")


@pytest.mark.parametrize("command, leaf, message", [
    ("cavity", ("nanoparticle", "diameter"),
     "nanoparticle: diameter must be in (0, 1e-06] m"),
    ("purcell", ("nanoparticle", "diameter"),
     "nanoparticle: diameter must be in (0, 1e-06] m"),
    ("plan", ("plan", "diameters", 0),
     "plan.diameters[0]: must be in (0, 1e-06] m"),
], ids=["cavity", "purcell", "plan"])
def test_diameter_past_the_rayleigh_ceiling_exits_2_with_its_path(
        tmp_path, capsys, command, leaf, message):
    # 1e200 passed the finite-number rule and then exited 1 with an
    # OverflowError from the D^6 scattering loss
    data = RunConfig.default().data
    parent = data
    for key in leaf[:-1]:
        parent = parent[key]
    parent[leaf[-1]] = 1e200
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    # the ceiling itself is accepted
    parent[leaf[-1]] = 1e-6
    config.write_text(json.dumps(data))
    RunConfig.from_file(config)


@pytest.mark.parametrize("command", ["purcell", "simulate ple"])
def test_cation_density_past_its_ceiling_exits_2_under_nanoparticle(
        tmp_path, capsys, command):
    # 1e45 m^-3 once put the ion count past the binomial draw's int64 and
    # was reported against ion_estimate.diameter, a key in range
    data = RunConfig.default().data
    data["nanoparticle"]["cation_density"] = 1e45
    data["simulate"]["ple"]["use_population"] = True
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "trace.csv"
    assert main(_argv_writing(command, config, out)) == 2
    assert capsys.readouterr().err == (
        "config error: nanoparticle: cation_density must be in "
        "(0, 1e+30] m^-3\n")
    assert not out.exists()


def test_simulate_ple_population_without_ions_names_the_diameter(
        tmp_path, capsys):
    # exited 2 with "error: total_ions must be >= 1", naming no key
    data = RunConfig.default().data
    data["nanoparticle"]["diameter"] = 1e-12
    data["simulate"]["ple"]["use_population"] = True
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "trace.csv"
    assert main(["simulate", "ple", "--config", str(config),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: nanoparticle.diameter: total_ions must be >= 1\n")
    assert not out.exists()
    # the other kinds never count ions, so the same particle runs
    assert main(["simulate", "decay", "--config", str(config),
                 "--out", str(out)]) == 0


def test_fit_bundled_dataset(capsys):
    dataset = Path(fpcavity.__file__).parent / "data" \
        / "hole_width_vs_power.csv"
    report = _json_run(capsys, ["fit", "sqrt_offset", str(dataset),
                                "--json"])
    assert report["converged"] is True
    assert 2.7e6 < report["parameters"]["offset"] < 3.9e6
    assert report["standard_errors"]["offset"] > 0.0


def test_fit_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1.0,2.0\nbad,row\n")
    assert main(["fit", "linear", str(bad)]) == 3
    assert "line 3" in capsys.readouterr().err


def test_fit_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["fit", "linear", str(missing)]) == 3
    assert capsys.readouterr().err == (
        f"input error: cannot read {missing}: No such file or directory\n")


def test_fit_on_a_directory_exits_3(tmp_path, capsys):
    assert main(["fit", "exp_decay", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith(
        f"input error: cannot read {tmp_path}: ")


def test_fit_out_on_a_nameless_input_exits_3(tmp_path, capsys, monkeypatch):
    # "." has no name to take a sidecar path from; it is read and refused
    monkeypatch.chdir(tmp_path)
    assert main(["fit", "exp_decay", ".", "--out", "x.json"]) == 3
    assert capsys.readouterr().err.startswith("input error: cannot read .: ")
    assert not any(tmp_path.iterdir())


# the scan that picks the reader's bulk parse reads this many bytes at a time
SCAN = trace_module._SCAN_BLOCK


@pytest.mark.parametrize("data", [
    "x,y\n1.0,2.0\n2.0,\u00a03.0\n".encode("latin-1"),
    b"x\xff,y\n1.0,2.0\n",
    b"x,y\n" + b"1.0,2.0\n" * (SCAN // 8 + 1) + b"2.0,\xff3.0\n",
], ids=["latin-1", "in-header", "after-first-scan-block"])
def test_fit_on_a_trace_that_is_not_utf8_exits_3(tmp_path, capsys, data):
    trace = tmp_path / "latin1.csv"
    trace.write_bytes(data)
    assert main(["fit", "linear", str(trace)]) == 3
    assert capsys.readouterr().err.startswith(
        f"input error: cannot read {trace}: 'utf-8' codec can't decode")


def test_trace_csv_is_utf8_whatever_the_locale(tmp_path):
    # a no-break space is whitespace to float(); the C locale without
    # UTF-8 mode has an ASCII preferred encoding, which cannot decode it
    trace = tmp_path / "nbsp.csv"
    trace.write_bytes("x,y\n1.0,2.0\n2.0,\u00a03.0\n3.0,4.0\n"
                      .encode("utf-8"))
    src = str(Path(fpcavity.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "fpcavity.cli", "fit",
         "linear", str(trace), "--json"], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["parameters"]["slope"] == \
        pytest.approx(1.0, rel=1e-12)


def test_a_config_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    # it printed "error: 'utf-8' codec can't decode byte 0xff", no path
    config = tmp_path / "bad.json"
    config.write_bytes(b'{"schema_version": 1, "seed": \xff}')
    assert main(["cavity", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: cannot read config {config}: 'utf-8' codec can't "
        f"decode byte 0xff")


def test_config_is_utf8_whatever_the_locale(tmp_path):
    # the C locale without UTF-8 mode read the config as ASCII, so a
    # non-ASCII key exited 2 with "error: 'ascii' codec can't decode"
    # instead of reaching the unknown-key check
    data = RunConfig.default().data
    data["d\u00e9tecteur"] = 1
    config = tmp_path / "accent.json"
    config.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    src = str(Path(fpcavity.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "fpcavity.cli", "cavity",
         "--config", str(config)], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: "), proc.stderr
    assert "unknown key" in proc.stderr


def test_every_file_written_names_its_encoding(tmp_path):
    # the sweep CSV, the manifest and the fit report were written in the
    # locale's encoding; EncodingWarning made each of these exit 1
    src = str(Path(fpcavity.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    for argv in (["plan", "--out", "sweep.csv"],
                 ["simulate", "decay", "--out", "decay.csv"],
                 ["fit", "exp_decay", "decay.csv", "--weights", "poisson",
                  "--out", "fit.json"]):
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-m", "fpcavity.cli", *argv],
            env=env, cwd=tmp_path, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)
    assert {path.name for path in tmp_path.iterdir()} >= {
        "sweep.csv.manifest.json", "decay.csv.manifest.json",
        "fit.json.manifest.json", "fit.json"}


_HOLE_TRACE = Path(fpcavity.__file__).parent / "data" \
    / "hole_width_vs_power.csv"


@pytest.mark.parametrize("argv", [
    ["plan"], ["simulate", "decay"],
    ["fit", "sqrt_offset", str(_HOLE_TRACE)],
], ids=["plan", "simulate", "fit"])
def test_out_on_a_directory_exits_2_naming_it(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"output error: cannot write {tmp_path}: ")


def test_plan_out_in_a_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "s.csv"
    assert main(["plan", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"output error: cannot write {out}: No such file or directory\n")


@pytest.mark.parametrize("argv, out", [
    (["plan"], "missing/s.csv"),
    (["fit", "sqrt_offset", str(_HOLE_TRACE)], "missing/x.json"),
    (["plan"], ""),
    (["simulate", "decay"], ""),
    (["fit", "sqrt_offset", str(_HOLE_TRACE)], ""),
], ids=["plan-missing-dir", "fit-missing-dir", "plan-empty",
        "simulate-empty", "fit-empty"])
def test_a_bad_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                           argv, out):
    # a missing directory failed only after the sweep or fit had run; an
    # empty --out made plan and fit exit 0 writing nothing, and simulate
    # exit 2 with a pathlib message
    def refuse(*args, **kwargs):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setattr("fpcavity.planner.sweep_grid", refuse)
    monkeypatch.setattr("fpcavity.fitting.fit", refuse)
    monkeypatch.setattr("fpcavity.config.Simulation.run", refuse)
    monkeypatch.chdir(tmp_path)
    path = str(tmp_path / out) if out else out
    assert main([*argv, "--out", path]) == 2
    assert capsys.readouterr().err == (
        f"output error: cannot write {path}: No such file or directory\n"
        if out else "output error: --out '' names no file\n")
    assert not any(tmp_path.iterdir())


def _symlinked_runs(tmp_path) -> dict:
    """case -> (argv, exit code, stderr) of a run with a dangling or
    looping symbolic link among its outputs or inputs."""
    (tmp_path / "p.csv.manifest.json").symlink_to("missing/x.json")
    (tmp_path / "d.json").symlink_to("missing/x.json")
    (tmp_path / "e.csv").symlink_to("e.json")
    loop = tmp_path / "loop"
    loop.symlink_to("loop")
    return {
        # plan wrote p.csv, then failed on its manifest
        "dangling-manifest": (
            ["plan", "--out", "p.csv"], 2,
            "output error: cannot write p.csv.manifest.json: "
            "No such file or directory\n"),
        # simulate wrote d.csv, then failed on its sidecar
        "dangling-sidecar": (
            ["simulate", "decay", "--out", "d.csv"], 2,
            "output error: cannot write d.json: No such file or directory\n"),
        # the sidecar overwrote the trace written through the link, exit 0
        "data-onto-sidecar": (
            ["simulate", "decay", "--out", "e.csv"], 2,
            "output error: e.json would overwrite the output e.csv\n"),
        # the last three ended in a RuntimeError traceback
        "loop-out": (
            ["plan", "--out", "loop"], 2,
            "output error: cannot write loop: "
            "Too many levels of symbolic links\n"),
        "loop-config": (
            ["plan", "--config", "loop", "--out", "s.csv"], 2,
            f"config error: cannot read config loop: [Errno {errno.ELOOP}] "
            "Too many levels of symbolic links: 'loop'\n"),
        "loop-fit-input": (
            ["fit", "exp_decay", "loop", "--out", "f.json"], 3,
            "input error: cannot read loop: "
            "Too many levels of symbolic links\n"),
    }


@pytest.mark.parametrize("case", ["dangling-manifest", "dangling-sidecar",
                                  "data-onto-sidecar", "loop-out",
                                  "loop-config", "loop-fit-input"])
def test_a_symlinked_output_is_judged_where_it_leads(tmp_path, capsys,
                                                    monkeypatch, case):
    def refuse(*args, **kwargs):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setattr("fpcavity.planner.sweep_grid", refuse)
    monkeypatch.setattr("fpcavity.fitting.fit", refuse)
    monkeypatch.setattr("fpcavity.config.Simulation.run", refuse)
    monkeypatch.chdir(tmp_path)
    argv, code, err = _symlinked_runs(tmp_path)[case]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == code
    assert capsys.readouterr().err == err
    assert sorted(tmp_path.iterdir()) == before
    assert not (tmp_path / "missing").exists()


def test_a_simulate_whose_manifest_is_a_directory_writes_nothing(tmp_path,
                                                                capsys):
    # the trace and its sidecar were written, then the manifest failed
    manifest = tmp_path / "d.csv.manifest.json"
    manifest.mkdir()
    assert main(["simulate", "decay", "--out", str(tmp_path / "d.csv")]) == 2
    assert capsys.readouterr().err == (
        f"output error: cannot write {manifest}: Is a directory\n")
    assert list(tmp_path.iterdir()) == [manifest]
    assert not any(manifest.iterdir())


def test_an_unwritable_sidecar_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "decay.json").mkdir()
    assert main(["simulate", "decay", "--out",
                 str(tmp_path / "decay.csv")]) == 2
    assert capsys.readouterr().err.startswith(
        f"output error: cannot write {tmp_path / 'decay.json'}: ")


def test_an_unwritable_manifest_exits_2_naming_it(tmp_path, capsys):
    manifest = tmp_path / "sweep.csv.manifest.json"
    manifest.mkdir()
    assert main(["plan", "--out", str(tmp_path / "sweep.csv")]) == 2
    assert capsys.readouterr().err.startswith(
        f"output error: cannot write {manifest}: ")


@pytest.mark.parametrize("model", ["linear", "exp_decay", "lorentzian"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
def test_fit_rejects_non_finite_trace_values(tmp_path, capsys, model, bad):
    # these used to exit 0 and write "NaN", which is not JSON
    trace = tmp_path / "trace.csv"
    trace.write_text(f"x,y\n0,1\n1,{bad}\n2,3\n3,4\n4,5\n5,7\n")
    out = tmp_path / "fit.json"
    assert main(["fit", model, str(trace), "--json", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("input error: y inside the fit window must be "
                            "finite\n")
    assert captured.out == "" and not out.exists()
    # a fit window that leaves the value out still fits
    assert main(["fit", "linear", str(trace), "--range", "2", "5"]) == 0


def _write_csv(path, x, y):
    write_trace_csv(Trace(x=x, y=y), path)
    return str(path)


def test_fit_without_spare_points_prints_no_error_bars(tmp_path, capsys):
    trace = _write_csv(tmp_path / "trace.csv", np.array([0.0, 1.0]),
                       np.array([1.0, 3.0]))
    assert main(["fit", "linear", trace]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == ["  slope = 2", "  intercept = 1"]
    # the NaN errors are null in the JSON report and in the written file
    out = tmp_path / "fit.json"
    printed = _json_run(capsys, ["fit", "linear", trace, "--json",
                                 "--out", str(out)])
    written = _strict_json(out.read_text(encoding="utf-8"))
    for report in (printed, written):
        assert report["standard_errors"] == {"slope": None,
                                             "intercept": None}


def test_fit_guess_overflow_exits_3(tmp_path, capsys):
    # it exited 1 with an OverflowError traceback
    trace = _write_csv(tmp_path / "trace.csv",
                       (np.linspace(0.0, 10.0, 20) + 0.1) * 1e300,
                       1e300 * np.cos(np.linspace(0.0, 10.0, 20)))
    assert main(["fit", "power_law", trace]) == 3
    assert capsys.readouterr().err.startswith(
        "input error: cannot guess initial parameters for model 'power_law'")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_fit_with_an_infinite_cost_exits_4(tmp_path, capsys, json_flag):
    # text mode printed "residual sum of squares: inf" and exited 0;
    # --json exited 2 on "Out of range float values are not JSON compliant"
    trace = _write_csv(tmp_path / "trace.csv",
                       np.array([1e300, 2e300, 3e300, 4e300]),
                       np.array([1e300, 3e300, 5e300, 8e300]))
    assert main(["fit", "power_law", trace, *json_flag]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "numerical failure: fit of model 'power_law' ended on non-finite")


@pytest.mark.parametrize("bounds", [["5", "1"], ["0", "nan"]])
def test_fit_range_must_be_finite_and_ordered(tmp_path, capsys, bounds):
    # both reported "model 'linear' needs at least 2 points"
    trace = _write_csv(tmp_path / "trace.csv", np.arange(6.0),
                       np.arange(6.0) + 1.0)
    assert main(["fit", "linear", trace, "--range", *bounds]) == 3
    assert capsys.readouterr().err.startswith(
        "input error: x_range must be finite with low <= high")


@pytest.mark.parametrize("command", ["cavity", "plan"])
@pytest.mark.parametrize("edit, message", [
    ({"plan": {"repetition_rates": [1000.0, 2e6]}},
     "plan.repetition_rates[1]: repetition period must exceed the "
     "excitation time"),
    ({"plan": {"modes": ["contact", "open_single"]}, "transitions": 1},
     "plan.modes[1]: mode 'open_single' needs exactly two transitions"),
], ids=["period-below-excitation", "open-mode-one-transition"])
def test_plan_rules_are_checked_at_load(tmp_path, capsys, command, edit,
                                        message):
    # both used to pass cavity and purcell and fail only plan, unnamed
    data = RunConfig.default().data
    data["plan"].update(edit["plan"])
    if "transitions" in edit:
        data["transitions"] = data["transitions"][:1]
        data["loss_budgets"] = data["loss_budgets"][:1]
    with pytest.raises(ConfigError) as info:
        RunConfig(data)
    assert str(info.value) == message
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    # without the offending entry the same config runs
    data["plan"] = RunConfig.default().data["plan"]
    data["plan"]["modes"] = ["contact"]
    config.write_text(json.dumps(data))
    assert main([command, "--config", str(config)]) == 0


@pytest.mark.parametrize("command", ["cavity", "purcell", "plan"])
def test_transitions_must_share_one_lifetime_at_load(tmp_path, capsys,
                                                     command):
    # cavity and purcell used to exit 0, and plan exited 2 with "error:
    # transitions must share one excited-state lifetime", naming no key
    data = RunConfig.default().data
    data["transitions"][1]["free_space_lifetime"] = 3e-3
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "config error: transitions[1].free_space_lifetime: transitions must "
        "share one excited-state lifetime\n")


def test_plan_json_without_dark_counts_is_strict_json(tmp_path, capsys):
    # with no dark counts every SNR is infinite; the report printed it as
    # Infinity, which is not JSON
    data = RunConfig.default().data
    data["detection"]["dark_rate"] = 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    report = _json_run(capsys, ["plan", "--json", "--config", str(config)])
    assert report["best"]["snr"] is None
    assert {row["snr"] for row in report["rows"]} == {None}
    # the library keeps the infinity
    loaded = RunConfig(data)
    sweep = sweep_grid((70e-9,), (1000.0,), ("contact",),
                       loaded.transitions, loaded.loss_budgets, 25e-6,
                       loaded.detection, 1e-6, 0.5)
    assert next(iter(sweep)).snr == math.inf


def test_plan_sweep_output(tmp_path, capsys, monkeypatch):
    out = tmp_path / "sweep.csv"
    report = _json_run(capsys, ["plan", "--json", "--out", str(out)])
    assert report["n_rows"] == 7 * 12 * 3
    config = RunConfig.default()
    rows = sweep_grid(
        config.plan_diameters, config.plan_repetition_rates,
        config.plan_modes, config.transitions, config.loss_budgets,
        config.geometry.radius_of_curvature, config.detection,
        config.excitation_time, config.excited_population,
        integration_time=config.plan_integration_time)
    assert report["rows"] == [row.to_dict() for row in rows]
    best = report["best"]
    assert best["mode"] == "contact"
    assert best["diameter"] == pytest.approx(40e-9, rel=1e-12)
    assert best["repetition_rate"] == pytest.approx(6000.0, rel=1e-12)
    assert best["rate"] == pytest.approx(313.5, abs=0.06)

    lines = out.read_text().splitlines()
    assert lines[0] == "d_np_nm,f_rep_hz,mode,rate_cps,snr"
    assert len(lines) == 1 + report["n_rows"]

    manifest = json.loads(
        (tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["config_sha256"] == RunConfig.default().config_hash()

    first = out.read_bytes()

    def no_report(row):
        raise AssertionError("plan without --json built a report row")

    # without --json the report is never printed, so it is never built
    monkeypatch.setattr(SweepRow, "to_dict", no_report)
    assert main(["plan", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == first


def test_plan_empty_grid(tmp_path, capsys):
    data = RunConfig.default().data
    data["plan"]["diameters"] = []
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(data))
    assert main(["plan", "--config", str(empty)]) == 2


def test_plan_without_a_usable_point_exits_2_writing_nothing(tmp_path,
                                                           capsys):
    # no light leaves the output mirror, and both modes use that budget
    data = RunConfig.default().data
    data["loss_budgets"][0]["transmission_out"] = 0
    data["plan"]["modes"] = ["contact", "open_single"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["plan", "--config", str(config),
                 "--out", str(out / "sweep.csv")]) == 2
    assert capsys.readouterr().err == (
        "plan error: sweep produced no usable operating point\n")
    assert not any(out.iterdir())


def test_a_data_file_that_cannot_be_written_exits_2_without_a_manifest(
        tmp_path, capsys, monkeypatch):
    def full(sweep, path):
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr("fpcavity.planner.write_sweep_csv", full)
    out = tmp_path / "sweep.csv"
    assert main(["plan", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"output error: cannot write {out}: No space left on device\n")
    assert captured.out == "" and not any(tmp_path.iterdir())


def test_numerical_failures_exit_4(capsys, monkeypatch):
    def boom(args, config, seed):
        raise NumericalError("quadrature failed to converge")

    monkeypatch.setitem(cli._HANDLERS, "cavity", boom)
    assert main(["cavity"]) == 4
    assert "numerical failure" in capsys.readouterr().err


def test_sqrt_offset_at_one_x_exits_3_and_writes_nothing(tmp_path, capsys):
    # lstsq's min-norm line (slope 1.5, offset 1.5) was reported as a
    # converged fit, exit 0
    data = tmp_path / "one_x.csv"
    data.write_text("x,y\n1.0,2.0\n1.0,3.0\n1.0,4.0\n")
    out = tmp_path / "fit.json"
    assert main(["fit", "sqrt_offset", str(data), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("input error: cannot guess a line through points "
                            "at one x\n")
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["one_x.csv"]


def test_power_law_at_one_x_exits_3_without_lapack_noise(tmp_path, capfd):
    # np.polyfit printed six LAPACK "DLASCL ... illegal value" lines to
    # fd 2, then raised LinAlgError, so the CLI exited 4
    data = tmp_path / "one_x.csv"
    data.write_text("x,y\n1.0,2.0\n1.0,3.0\n1.0,4.0\n")
    assert main(["fit", "power_law", str(data)]) == 3
    err = capfd.readouterr().err
    assert err == ("input error: power-law guess needs positive points at "
                   "two distinct x\n")
    assert "DLASCL" not in err
