"""The process entry: ``python -m fpcavity.cli`` and the console script run
``main()`` with the cyclic collector off and then freeze the heap, so
finalization's collections skip what the run made; ``main(argv)`` called in
process freezes nothing and leaves the collector as it found it, and the
exit codes are the same either way.  Turning the collector off is safe
because a run leaves the same few hundred unreachable objects whatever its
size."""
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fpcavity
from fpcavity import default_config_data
from fpcavity.cli import main

SRC = Path(fpcavity.__file__).resolve().parents[1]

# imported at start-up from PYTHONPATH: prints the freeze count from an
# atexit handler, which runs after the entry returns and before
# finalization collects
_PROBE = ("import atexit, gc, sys\n"
          "atexit.register(lambda: print('frozen', gc.get_freeze_count(), "
          "file=sys.stderr))\n")


def _module_run(tmp_path, *argv):
    """``python -m fpcavity.cli *argv`` with the atexit probe installed."""
    probe = tmp_path / "probe"
    probe.mkdir(exist_ok=True)
    (probe / "sitecustomize.py").write_text(_PROBE, encoding="utf-8")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(probe), str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "fpcavity.cli", *argv],
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)


def _frozen(stderr: str) -> int:
    last = stderr.splitlines()[-1].split()
    assert last[0] == "frozen", stderr
    return int(last[1])


def _exit_code(argv) -> int:
    """``main(argv)`` in process, an argparse exit included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, code", [
    (["cavity", "--json"], 0),
    (["cavity", "--bogus"], 2),
    (["cavity", "--config", "missing.json"], 2),
    (["fit", "linear", "missing.csv"], 3),
], ids=["success", "argparse-error", "config-error", "input-error"])
def test_module_run_freezes_the_heap_and_keeps_its_exit_code(
        tmp_path, capsys, monkeypatch, argv, code):
    proc = _module_run(tmp_path, *argv)
    assert proc.returncode == code, proc.stderr
    assert _frozen(proc.stderr) > 0
    monkeypatch.chdir(tmp_path)
    assert _exit_code(argv) == code
    # the same stderr in process, less the probe's line
    assert capsys.readouterr().err == proc.stderr.rsplit("frozen", 1)[0]


def test_main_in_process_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    for argv in (["cavity", "--json"], ["cavity", "--config", "missing.json"],
                 ["cavity", "--bogus"]):
        _exit_code(argv)
    capsys.readouterr()
    assert gc.get_freeze_count() == before


# calls the entry with a fit argv and prints the collections the entry ran
# and whether the collector is on once it has returned
_ENTRY_PROBE = """import gc, sys
from fpcavity.cli import entry
def collections():
    return sum(stats["collections"] for stats in gc.get_stats())
before = collections()
sys.argv[1:] = ["fit", "sqrt_offset", sys.argv[1], "--json"]
code = entry()
print("collections", collections() - before, "enabled", gc.isenabled(),
      "code", code, file=sys.stderr)
"""


def test_entry_runs_no_collection():
    # numpy's import alone ran about 30 young collections in a fit process
    data = Path(fpcavity.__file__).parent / "data" / "hole_width_vs_power.csv"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _ENTRY_PROBE, str(data)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["model"] == "sqrt_offset"
    assert proc.stderr.splitlines()[-1] == (
        "collections 0 enabled False code 0")


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_in_process_leaves_the_collector_as_it_found_it(capsys,
                                                             enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv in (["cavity", "--json"],
                     ["cavity", "--config", "missing.json"],
                     ["cavity", "--bogus"]):
            _exit_code(argv)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


def _garbage(argv) -> int:
    """Unreachable objects ``main(argv)`` leaves with the collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("command, key, large", [
    (["simulate", "decay"], ("simulate", "decay", "points"), 200_000),
    # 120 rates in place of the bundled 12: 2,520 rows in place of 252
    (["plan"], ("plan", "repetition_rates"),
     [500.0 * k for k in range(1, 121)]),
], ids=["simulate-decay", "plan"])
def test_a_runs_cyclic_garbage_does_not_grow_with_its_size(
        tmp_path, command, key, large):
    document = default_config_data()
    section = document
    for name in key[:-1]:
        section = section[name]
    section[key[-1]] = large
    config = tmp_path / "large.json"
    config.write_text(json.dumps(document), encoding="utf-8")
    argv = [*command, "--out", str(tmp_path / "out.csv")]
    # the first run also leaves what the layers' imports made
    _garbage(argv)
    counts = [_garbage(argv), _garbage([*argv, "--config", str(config)])]
    assert abs(counts[0] - counts[1]) <= 10, counts
