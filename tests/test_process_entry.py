"""The process entry: ``python -m fpcavity.cli`` and the console script run
``main()`` and then freeze the heap, so finalization's collections skip what
the run made; ``main(argv)`` called in process freezes nothing, and the exit
codes are the same either way."""
import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fpcavity
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
