"""Layers load on first use: ``import fpcavity``, ``fpcavity cavity``,
``fpcavity purcell``, ``fpcavity plan``, ``ensemble_purcell_stats`` and
``sidecar_path`` run without numpy, the three subcommands also without
``dataclasses``, and the package namespace stays what it was."""
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fpcavity
from fpcavity import optics
from fpcavity.cli import main

SRC = Path(fpcavity.__file__).resolve().parents[1]
BUNDLED = SRC / "fpcavity" / "data" / "hole_width_vs_power.csv"

# what ``from fpcavity import *`` bound when every layer was imported
# eagerly: the nine layers and the names re-exported from them, plus the
# exact-moment names added to ``ensemble`` since
STAR_NAMES = {
    "ExactMoments", "ensemble_moments", "ion_count_moments",
    "core", "optics", "purcell", "ensemble", "spectra", "fitting", "planner",
    "trace", "config",
    "CONTACT_LENGTH", "CavityGeometry", "ChannelStrength", "ConfigError",
    "CouplingReport", "DetectionChain", "DoubleResonance", "EnsembleStats",
    "FitResult", "HBAR", "IonCountStats", "LossBudget", "MODELS",
    "Nanoparticle", "NumericalError", "PLAN_MODES", "PulseScheme",
    "RunConfig", "RunManifest", "SPEED_OF_LIGHT", "SpectralPopulation",
    "SweepRow", "TOOLKIT_VERSION", "Trace", "TraceFormatError", "Transition",
    "YTTRIA_CATION_DENSITY", "auto_initial_guess", "bad_emitter_factor",
    "best_operating_point", "build_manifest", "cavity_branching",
    "cavity_lifetime", "cavity_linewidth", "channel_strengths",
    "cooperativity", "coupling_rate", "coupling_report", "decay_histogram",
    "default_config_data", "default_hyperfine_classes", "double_resonance",
    "ensemble_purcell_stats", "expected_ions_in_bandwidth", "finesse", "fit",
    "free_spectral_range", "frequency_to_wavelength", "hole_spectrum",
    "hole_width_to_homogeneous", "ideal_purcell_from_effective",
    "ions_in_bandwidth", "jitter_suppression", "linewidth_to_coherence_time",
    "lorentzian_profile", "lorentzian_suppression", "mode_detected_rate",
    "mode_waist", "multimodal_sum", "nominal_purcell",
    "outcoupling_efficiency", "particle_scattering_loss",
    "photon_path_efficiency", "ple_scan", "power_broadening",
    "purcell_from_lifetimes", "read_trace_csv", "resonance_length",
    "sample_height", "sample_orientation_factor", "saturation_curve",
    "saturation_intensity", "saturation_power", "sfs_spectrum",
    "sidecar_path", "snr", "standing_wave_factor", "sweep_grid",
    "total_ion_count", "wavelength_to_frequency", "write_sweep_csv",
    "write_trace", "write_trace_csv",
}


def _python(*args, cwd=None):
    """A fresh interpreter with ``src`` on the path and no bytecode cache."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def _imported(importtime_log: str) -> set:
    """Module names in the stderr of ``python -X importtime``."""
    return {line.rsplit("|", 1)[1].strip()
            for line in importtime_log.splitlines()
            if line.startswith("import time:")}


def _without_timestamp(report: dict) -> dict:
    manifest = dict(report.pop("manifest"))
    manifest.pop("created_utc")
    return {**report, "manifest": manifest}


@pytest.mark.parametrize("command", ["cavity", "purcell", "plan"])
def test_subcommand_runs_without_numpy(command, capsys, tmp_path):
    proc = _python("-X", "importtime", "-m", "fpcavity.cli", command,
                   "--json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    imported = _imported(proc.stderr)
    assert "json" in imported  # the log is read right
    assert not {name for name in imported
                if name == "numpy" or name.startswith("numpy.")}
    # a record imports dataclasses only to raise FrozenInstanceError
    assert not imported & {"dataclasses", "inspect", "datetime"}
    assert main([command, "--json"]) == 0
    in_process = json.loads(capsys.readouterr().out)
    assert _without_timestamp(json.loads(proc.stdout)) \
        == _without_timestamp(in_process)


# runs the CLI, then prints the executed layers and whether numpy loaded;
# a layer not yet executed is still a fpcavity._Layer
_LOADED = ("import json, sys, types; from fpcavity.cli import main; "
           "code = main(sys.argv[1:]); "
           "print(json.dumps([sorted(name for name, module "
           "in sys.modules.items() if name.startswith('fpcavity.') "
           "and type(module) is types.ModuleType), 'numpy' in sys.modules]), "
           "file=sys.stderr); sys.exit(code)")


@pytest.mark.parametrize("argv, layers", [
    (["cavity"], {"config", "core", "optics"}),
    (["purcell"], {"config", "core", "optics", "purcell", "ensemble"}),
    (["fit", "sqrt_offset", str(BUNDLED)],
     {"config", "core", "optics", "fitting", "trace"}),
    (["plan"], {"config", "core", "optics", "purcell", "planner"}),
    # the decay trace takes its lifetime from purcell.cavity_lifetime
    (["simulate", "decay", "--out", "decay.csv"],
     {"config", "core", "optics", "purcell", "spectra", "trace"}),
], ids=["cavity", "purcell", "fit", "plan", "simulate"])
def test_each_subcommand_executes_only_the_layers_it_uses(argv, layers,
                                                          tmp_path):
    proc = _python("-c", _LOADED, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded, numpy = json.loads(proc.stderr)
    assert loaded == sorted(f"fpcavity.{layer}"
                            for layer in {*layers, "cli"})
    # of these, only fit and simulate load numpy
    assert numpy is (argv[0] in ("fit", "simulate"))


def test_fit_power_law_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique in the power-law guess imported numpy.ma, about 10 ms of
    # every `fit power_law` process
    assert _python("-m", "fpcavity.cli", "simulate", "saturation", "--out",
                   "saturation.csv", cwd=tmp_path).returncode == 0
    proc = _python("-c", "import sys; from fpcavity.cli import main; "
                   "code = main(sys.argv[1:]); "
                   "print('numpy.ma' in sys.modules, file=sys.stderr); "
                   "sys.exit(code)", "fit", "power_law", "saturation.csv",
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "False\n"


def test_the_peak_and_dip_guesses_leave_numpy_ma_unloaded():
    # their far level is a median, and np.median imports numpy.ma
    proc = _python("-c", "import sys, numpy as np; "
                   "from fpcavity import auto_initial_guess; "
                   "x = np.linspace(-1.0, 1.0, 41); y = 1.0 / (1.0 + x * x); "
                   "auto_initial_guess('lorentzian', x, y); "
                   "auto_initial_guess('inverted_lorentzian', x, -y); "
                   "print('numpy.ma' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_import_leaves_numpy_and_the_layers_unloaded():
    proc = _python("-c", "import sys, types, fpcavity; print('numpy' in "
                   "sys.modules, sorted(name for name, module in "
                   "sys.modules.items() if name.startswith('fpcavity') "
                   "and type(module) is types.ModuleType))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "['fpcavity']"]


def test_two_threads_can_touch_a_layer_first_together():
    # the second thread waits for the whole run; it must not read a name
    # the layer has not defined yet
    proc = _python("-c", """if True:
        import threading, fpcavity
        failures = []

        def touch(barrier, name):
            barrier.wait()
            try:
                getattr(fpcavity, name)
            except BaseException as exc:
                failures.append(f"{name}: {exc!r}")

        for names in fpcavity._EXPORTS.values():
            barrier = threading.Barrier(2)
            threads = [threading.Thread(target=touch,
                                        args=(barrier, names[-1]))
                       for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        print(failures)""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_the_sidecar_rule_leaves_numpy_unloaded():
    proc = _python("-c", "import sys, fpcavity; "
                   "print(fpcavity.sidecar_path('t.csv'), "
                   "'numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["t.json", "False"]


def test_ensemble_purcell_stats_leaves_numpy_unloaded():
    proc = _python("-c", "import sys; import fpcavity as fp; "
                   "config = fp.RunConfig.default(); "
                   "stats = fp.ensemble_purcell_stats(config.nanoparticle, "
                   "config.geometry, config.transitions, "
                   "config.loss_budgets, n_samples=200_000, seed=3); "
                   "print(stats.mean > 0.0, 'numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


def test_module_run_prints_no_warning(tmp_path):
    # runpy warns when fpcavity.cli is in sys.modules before it runs
    proc = _python("-X", "dev", "-W", "error", "-m", "fpcavity.cli",
                   "cavity", cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("cavity length")


def test_every_exported_name_resolves_and_is_listed():
    assert set(fpcavity.__all__) == STAR_NAMES
    assert len(fpcavity.__all__) == len(STAR_NAMES)
    listed = dir(fpcavity)
    for name in fpcavity.__all__:
        assert name in listed
        getattr(fpcavity, name)
    assert fpcavity.__version__ == fpcavity.TOOLKIT_VERSION
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        fpcavity.missing


def test_star_import_binds_the_same_names():
    namespace = {}
    exec("from fpcavity import *", namespace)
    assert set(namespace) - {"__builtins__"} == STAR_NAMES


def test_layers_are_their_modules():
    for layer in ("core", "optics", "purcell", "ensemble", "spectra",
                  "fitting", "planner", "trace", "config"):
        module = sys.modules[f"fpcavity.{layer}"]
        assert getattr(fpcavity, layer) is module
        assert isinstance(module, types.ModuleType)


def test_names_are_read_from_their_layer_on_every_access(monkeypatch):
    # the benchmark wraps layer functions after import and calls them
    # through the package; a cached name would miss the wrapper
    assert fpcavity.finesse is optics.finesse
    assert "finesse" not in vars(fpcavity)

    def wrapped(budget):
        return 1.0

    monkeypatch.setattr(optics, "finesse", wrapped)
    assert fpcavity.finesse is wrapped


def test_unknown_fit_model_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "bogus", "x.csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown model 'bogus'" in err and "exp_decay" in err


def test_trace_format_error_exits_3(tmp_path, capsys):
    broken = tmp_path / "broken.csv"
    broken.write_text("x,y\n1.0,oops\n")
    assert main(["fit", "linear", str(broken)]) == 3
    assert "input error: line 2" in capsys.readouterr().err


def test_a_layer_that_fails_to_run_reports_its_error(tmp_path, monkeypatch):
    # an import statement raises the layer's own error, not "cannot import
    # name", and a failed layer runs again and raises again on every read
    (tmp_path / "fpcavity_failing_layer.py").write_text(
        "VALUE = 1\nraise RuntimeError('the layer failed')\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    module = fpcavity._lazy("fpcavity_failing_layer")
    try:
        with pytest.raises(RuntimeError, match="the layer failed"):
            exec("from fpcavity_failing_layer import name", {})
        with pytest.raises(RuntimeError, match="the layer failed"):
            module.name
        with pytest.raises(RuntimeError, match="the layer failed"):
            module.VALUE
    finally:
        del sys.modules["fpcavity_failing_layer"]
