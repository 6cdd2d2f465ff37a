"""Golden data files: the CLI's outputs, byte for byte, against pinned
sha256 digests.

Every data file a run writes is meant to be byte-reproducible, so a change
that should not alter results is checked here rather than by hand.  The
digests were taken with numpy 2.4.6 on CPython 3.11.7, Linux x86_64
(glibc 2.36).  A change that alters an output by design updates its pin and
names the output and the reason in CHANGES.md.  If a digest differs on
another platform, find the operation that differs (``np.exp``,
``math.atan``, ``repr``) before anything else.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import fpcavity
from fpcavity import RunConfig, default_config_data
from fpcavity.cli import main

PINNED = {
    "ple-0.csv":
        "091ef0e521546458c30741b185966edf491d7fd90ceb7e4fc772d6ae1b19d77a",
    "ple-0.json":
        "cf9b888530f338209c35383748887fe61cdf66118b9035a249dbc7d734f0f398",
    "ple-population-0.csv":
        "0b625c17ae9f8cf18b412be1bc1d27f0e03ba875b3d76550ca9ad9ec3847f915",
    "ple-population-0.json":
        "0ae9383020410921492cd8bbee542fc365dcd1ab64197a32936d3bfccefc7cbf",
    "saturation-0.csv":
        "64835214561cdc02df1c59ac8cec473c4a397e642d44060975dbb195168a0c5d",
    "saturation-0.json":
        "bbcfd2450d5794a97f87da259a04b8154d7d2f7ad7e6c53d9ce07a0e15be8b5b",
    "hole-0.csv":
        "97ac9bb8bfd801dd64045006b52d6fee161a9cd5c5d717982a06e12ed733587d",
    "hole-0.json":
        "56038f72fa45b588974040385de61fc4499e997e33f1db73eef1e08886ff91cc",
    "decay-0.csv":
        "be33f7dfdc96dd4c94fa539ecc7ec86f481e6fc2fc255cd631ea7f34e9bbc591",
    "decay-0.json":
        "7bae44d8ef2dfe201140027acef57e91218a13fea08c2129a7065befb6ac1aac",
    "ple-7.csv":
        "091ef0e521546458c30741b185966edf491d7fd90ceb7e4fc772d6ae1b19d77a",
    "ple-7.json":
        "093246d883046d931261ffa6b1ba7d094f725a016080c0494021175bd7df5b9c",
    "ple-population-7.csv":
        "89f63c8b3494588f9b550c6b944fbe42d7f56d1126dc79ed3719d58172fb9830",
    "ple-population-7.json":
        "f9932cff9c07a725a4e4f03c53ae30b334bc057cb94ba5769311b7ccefe3ab9a",
    "saturation-7.csv":
        "64835214561cdc02df1c59ac8cec473c4a397e642d44060975dbb195168a0c5d",
    "saturation-7.json":
        "e2ee2ee3d9b05d346a32aa4c8a8326fc65ce30db8dd47710097d3e18616ff407",
    "hole-7.csv":
        "97ac9bb8bfd801dd64045006b52d6fee161a9cd5c5d717982a06e12ed733587d",
    "hole-7.json":
        "032a475c9dd15e4e32d912006d9ed4242f02d57064c1d6af290533675a0873e6",
    "decay-7.csv":
        "7fad6e9666c158f788e58dda563328fe1dcb96b2444fa4c26327b90464206495",
    "decay-7.json":
        "04bcea5d5fb7f4a04f2986913dd5e642e7b52fb7c5a6039b4d10733f1bb41ab0",
    "plan.csv":
        "0204cfd5d454d54a930e38d8056bceffb38b3512dbe2a622807372cf05f11b52",
    "purcell.json":
        "ca4d727460127cbb9d4256ee1a6b2aeb2f59ae99efc2f52fd503d0ee6b63cce7",
    "fit.json":
        "3f652adf812c4760f3929a9cc7a462b7d2b32a26d71944ba77263133431e03b0",
    "fit-ple-population-0.json":
        "8e4e7ff7f002f73c3baa8d513e7d384a8c6ae4961ba13d077b4d5fabd144e6ef",
    "fit-saturation-0.json":
        "8e974251a62a5c084784339439db2ddcc64dcc8d0ee3ccb19106d3688dd72420",
    "fit-hole-0.json":
        "4167d6f6d4f5a12310a9cc840be296f65b1aeaf67507d4527477cde312c52f36",
    "fit-decay-0.json":
        "4bd5c3f4ca99951d68794c445a7a0a5d8fae6df7ab9cc66247385dbb0928894a",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _strict_json(text: str):
    """Parse ``text`` as JSON, which has no NaN or Infinity."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def _report_without_manifest(text: str) -> bytes:
    report = _strict_json(text)
    del report["manifest"]
    return json.dumps(report, indent=2, sort_keys=True).encode()


def _outputs(tmp_path, capsys) -> dict:
    """name -> sha256 of every golden output, each run in ``tmp_path``."""
    population = RunConfig.default().data
    population["simulate"]["ple"]["use_population"] = True
    (tmp_path / "population.json").write_text(json.dumps(population))
    digests = {}

    def run(*argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    for seed in ("0", "7"):
        for kind, config in (("ple", None), ("ple-population",
                                             "population.json"),
                             ("saturation", None), ("hole", None),
                             ("decay", None)):
            name = f"{kind}-{seed}"
            extra = ("--config", config) if config else ()
            _strict_json(run("simulate", kind.split("-")[0], "--seed", seed,
                             "--out", f"{name}.csv", "--json", *extra))
            for suffix in ("csv", "json"):
                path = tmp_path / f"{name}.{suffix}"
                digests[path.name] = _digest(path.read_bytes())
    run("plan", "--out", "plan.csv")
    digests["plan.csv"] = _digest((tmp_path / "plan.csv").read_bytes())
    digests["purcell.json"] = _digest(
        _report_without_manifest(run("purcell", "--json")))
    dataset = Path(fpcavity.__file__).parent / "data" \
        / "hole_width_vs_power.csv"
    shutil.copy(dataset, tmp_path / dataset.name)
    digests["fit.json"] = _digest(_report_without_manifest(
        run("fit", "sqrt_offset", dataset.name, "--json")))
    # each simulated kind fitted with its model, as simulate-then-fit runs
    for name, *argv in (("ple-population-0", "lorentzian"),
                        ("saturation-0", "power_law"),
                        ("hole-0", "inverted_lorentzian"),
                        ("decay-0", "exp_decay", "--weights", "poisson")):
        digests[f"fit-{name}.json"] = _digest(_report_without_manifest(
            run("fit", argv[0], f"{name}.csv", "--json", *argv[1:])))
    return digests


def test_cli_outputs_match_their_pinned_digests(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = _outputs(tmp_path, capsys)
    assert set(digests) == set(PINNED)
    changed = sorted(name for name in PINNED if digests[name] != PINNED[name])
    assert not changed, f"outputs changed: {changed}"


def test_module_run_writes_the_pinned_files(tmp_path):
    # the tests above call main(argv); `python -m fpcavity.cli` goes through
    # the process entry, which freezes the heap before the process exits
    src = str(Path(fpcavity.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    for argv in (["simulate", "decay", "--seed", "0", "--out", "decay-0.csv"],
                 ["plan", "--out", "plan.csv"]):
        proc = subprocess.run([sys.executable, "-m", "fpcavity.cli", *argv],
                              env=env, cwd=tmp_path, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    for name in ("decay-0.csv", "decay-0.json", "plan.csv"):
        assert _digest((tmp_path / name).read_bytes()) == PINNED[name], name


def test_bundled_config_is_pinned():
    # the bundled tree is declared key by key next to its rules; the README
    # tells users to print it, so the printed bytes, key order included,
    # are pinned with the hash that every manifest records
    assert RunConfig.default().config_hash() == (
        "fbc9a26e9dda7140be2083823066239a4262d22c8ddc27c8b958a9041bcf20b7")
    printed = json.dumps(default_config_data(), indent=2)
    assert _digest(printed.encode()) == (
        "830aa0d75f081f439f6e84269b27622c5235cb00289b8c6df505f9cb69aace2b")
