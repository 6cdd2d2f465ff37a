"""End-to-end command-line behavior: outputs, exit codes, reproducibility."""
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import fpcavity
from fpcavity import RunConfig, SweepRow, cli, sweep_grid
from fpcavity.cli import main
from fpcavity.config import ConfigError, file_sha256
from fpcavity.core import NumericalError


def _json_run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


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


def test_purcell_seed_override(capsys):
    base = _json_run(capsys, ["purcell", "--json"])
    seeded = _json_run(capsys, ["purcell", "--json", "--seed", "5"])
    assert seeded["ensemble"]["seed"] == 5
    assert seeded["ensemble"]["mean"] != base["ensemble"]["mean"]
    assert seeded["table"] == base["table"]  # deterministic part unchanged


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


def test_simulate_requires_out(capsys):
    assert main(["simulate", "decay"]) == 2
    assert "--out" in capsys.readouterr().err


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
    assert "effective Purcell factor must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, key, value, message", [
    ("decay", "effective_purcell", "abc", "must be a number"),
    ("decay", "points", "12", "must be an integer"),
    ("decay", "points", 2.7, "must be an integer"),
    ("decay", "shots", True, "must be an integer"),
    ("decay", "effective_purcell", -1.0,
     "effective Purcell factor must be >= 0"),
    ("hole", "n_teeth", 200.0, "must be an integer"),
    ("saturation", "background", False, "must be a number"),
    ("ple", "probe_fwhm", None, "must be a number"),
    ("ple", "span_multiple", 0, "must be a positive number"),
    ("saturation", "exponent", 2, "must be in (0, 1]"),
    ("ple", "amplitude", -5, "must be a number >= 0"),
    ("hole", "hole_fwhm", -1, "must be a positive number"),
    ("decay", "time_span_multiple", -1, "must be a positive number"),
    ("saturation", "min_power", -1, "must be a positive number"),
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
    ("decay", ("simulate", "decy"), {}, "unknown key"),
    ("decay", ("simulate", "decay", "noize"), "poisson", "unknown key"),
    ("ple", ("simulate", "ple", "use_population"), "false",
     "must be true or false"),
    ("decay", ("transitions", 0, "wavelength"), "abc", "must be a number"),
    ("decay", ("nanoparticle", "diameter"), None, "must be a number"),
    ("decay", ("simulate", "decay", "points"), 0, "must be an integer >= 1"),
    ("decay", ("simulate", "decay", "points"), -3, "must be an integer >= 1"),
    ("decay", ("simulate", "decay", "noise"), "gaussian",
     "must be 'none' or 'poisson', got 'gaussian'"),
], ids=["mode-order-bool", "mode-order-float", "unknown-mc-key",
        "unknown-section", "unknown-kind", "unknown-decay-key",
        "population-string", "wavelength-string", "diameter-null",
        "points-zero", "points-negative", "noise-unknown"])
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
    assert main(["fit", "linear", str(tmp_path / "nope.csv")]) == 3
    assert "input error" in capsys.readouterr().err


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


def test_numerical_failures_exit_4(capsys, monkeypatch):
    def boom(args, config, seed):
        raise NumericalError("quadrature failed to converge")

    monkeypatch.setitem(cli._HANDLERS, "cavity", boom)
    assert main(["cavity"]) == 4
    assert "numerical failure" in capsys.readouterr().err

    def singular(args, config, seed):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setitem(cli._HANDLERS, "cavity", singular)
    assert main(["cavity"]) == 4
    assert "numerical failure" in capsys.readouterr().err
