"""Property tests of the config loader on fuzzed copies of the default.

One or two leaves are replaced by a NaN, an infinity, a bool, a string,
null, a negative or a large number, a key is deleted, or a stray key is
added.  The loader must reject the document with ``ConfigError`` or hold
only finite numbers and known keys, and the CLI must exit 0 or 2 without
raising.  The documents come from a seeded ``random.Random``, so every run
checks the same ones.
"""
import contextlib
import copy
import hashlib
import io
import json
import math
import random
import re
import tracemalloc
from pathlib import Path

import pytest

from fpcavity.cli import main
from fpcavity.config import (
    MAX_COUNT,
    SIMULATIONS,
    ConfigError,
    RunConfig,
    build_manifest,
    default_config_data,
    file_sha256,
)
from fpcavity.core import (
    _Record,
    _require_count,
    _require_diameter,
    _require_fraction,
    _require_non_negative,
    _require_positive,
)

DEFAULT = default_config_data()
# fuzzed documents per test
N_DOCUMENTS = 100


def _paths(node, prefix=()):
    """Key path of every value under ``node``, depth first."""
    children = node.items() if isinstance(node, dict) \
        else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(document, path):
    for key in path:
        document = document[key]
    return document


PATHS = list(_paths(DEFAULT))
LEAVES = [path for path in PATHS
          if not isinstance(_at(DEFAULT, path), (dict, list))]
KEYS = [path for path in PATHS if isinstance(path[-1], str)]
OBJECTS = [()] + [path for path in PATHS
                  if isinstance(_at(DEFAULT, path), dict)]

# negative and large numbers, float and int, each range by its endpoints
RANGES = ((-1e6, -1e-12), (-10**6, -1), (1e3, 1e6), (10**3, 10**6))
BAD_VALUES = [math.nan, math.inf, -math.inf, True, False, None, "1.0",
              "abc"] + [end for bounds in RANGES for end in bounds]
STRAY_KEYS = ["extra", "n_sampels", "noize"]


def _bad_value(rng):
    """A value from the pool, or half the time one inside a range."""
    if rng.random() < 0.5:
        return rng.choice(BAD_VALUES)
    low, high = rng.choice(RANGES)
    if isinstance(low, int):
        return rng.randint(low, high)
    return rng.uniform(low, high)


def _edit(rng):
    action = rng.choice(["replace", "delete", "add"])
    if action == "replace":
        return action, rng.choice(LEAVES), _bad_value(rng)
    if action == "delete":
        return action, rng.choice(KEYS), None
    return action, rng.choice(OBJECTS), rng.choice(STRAY_KEYS)


def fuzzed_documents(seed):
    """``N_DOCUMENTS`` copies of the default, each with one or two edits."""
    rng = random.Random(seed)
    for _ in range(N_DOCUMENTS):
        yield _edited([_edit(rng) for _ in range(rng.randint(1, 2))])


def _edited(edits):
    """A copy of the default with each ``(action, path, value)`` applied."""
    document = copy.deepcopy(DEFAULT)
    for action, path, value in edits:
        try:
            if action == "add":
                _at(document, path)[value] = 1.0
            elif action == "replace":
                _at(document, path[:-1])[path[-1]] = value
            else:
                del _at(document, path[:-1])[path[-1]]
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed or replaced the path
    return document


def _replaced(path, value):
    """A copy of the default with the leaf at ``path`` set to ``value``."""
    return _edited([("replace", path, value)])


def _numbers(value):
    """Every int and float held by a loaded config attribute."""
    if isinstance(value, _Record):
        value = value._values()
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)):
        yield value


def test_numbers_reach_inside_records():
    config = RunConfig(DEFAULT)
    wavelength = DEFAULT["transitions"][0]["wavelength"]
    assert wavelength in list(_numbers(list(vars(config).values())))


def test_loader_rejects_or_holds_finite_numbers():
    for document in fuzzed_documents("loader"):
        try:
            config = RunConfig(document)
        except ConfigError:
            continue
        numbers = list(_numbers(list(vars(config).values())))
        assert numbers and all(math.isfinite(number) for number in numbers)
        config.canonical_json()  # refuses NaN and inf
        # no key silently ignored
        assert set(_paths(document)) <= set(PATHS), document


COUNTS = [("simulate", kind, "points") for kind in DEFAULT["simulate"]] \
    + [("monte_carlo", "n_samples"), ("ion_estimate", "n_draws")]


@pytest.mark.parametrize("path", COUNTS, ids=".".join)
def test_counts_that_size_arrays_are_bounded(path):
    # loaded only: nothing is allocated at any of these sizes
    assert MAX_COUNT == 10**7
    RunConfig(_replaced(path, MAX_COUNT))
    for value in (MAX_COUNT + 1, 10**30):
        with pytest.raises(ConfigError) as info:
            RunConfig(_replaced(path, value))
        assert str(info.value) == (
            f"{'.'.join(path)}: must be an integer <= {MAX_COUNT}")


@pytest.mark.parametrize("document, message", [
    ([], "config root: must be an object"),
    (_replaced(("loss_budgets",), DEFAULT["loss_budgets"][:1]),
     "loss_budgets: need one budget per transition"),
], ids=["root-list", "one-budget-for-two-transitions"])
def test_document_shape_is_checked_at_load(document, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        RunConfig(document)


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


EXAMPLES = [
    # diameters past MAX_DIAMETER once put the ion count past the binomial
    # draw's 2**63 - 1 (about 5 mm) or overflowed the D^6 scattering loss
    # or the volume (1e200 m); the config now refuses them with their path
    _replaced(("ion_estimate", "diameter"), 1000.0),
    _replaced(("ion_estimate", "diameter"), 1e200),
    _replaced(("nanoparticle", "diameter"), 1e200),
    _replaced(("plan", "diameters", 0), 1e200),
    # a cation density above any solid once put the ion count past the
    # binomial draw's int64 and was reported against ion_estimate.diameter
    _replaced(("nanoparticle", "cation_density"), 1e45),
]


@pytest.mark.parametrize(
    "command", ["cavity", "plan", "purcell", "simulate ple",
                "simulate saturation", "simulate hole", "simulate decay"],
    ids=lambda command: command.replace(" ", "-"))
def test_cli_exits_0_or_2_on_fuzzed_config(config_file, command):
    argv = [*command.split(), "--config", str(config_file)]
    if argv[0] == "simulate":
        argv += ["--out", str(config_file.with_name("trace.csv"))]
    for document in [*EXAMPLES, *fuzzed_documents(command)]:
        config_file.write_text(json.dumps(document))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2), document


def test_readme_states_each_simulate_key_as_declared():
    # each kind's keys, bundled defaults and left-out values are declared
    # once in SIMULATIONS; the README table is written from it
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+\.\w+)` \| (.+?) \| (.+?) \|$", readme,
                      flags=re.MULTILINE)
    expected = []
    for kind, simulation in SIMULATIONS.items():
        bundled, omitted = simulation.bundled, simulation.omitted
        for key in {**bundled, **omitted}:
            expected.append((
                f"{kind}.{key}",
                f"`{json.dumps(bundled[key])}`" if key in bundled
                else "not bundled",
                f"`{json.dumps(omitted[key])}`" if key in omitted
                else "required"))
    assert [(key, bundled, left_out.split(":")[0])
            for key, bundled, left_out in rows] == expected


@pytest.mark.parametrize("seed, message", [
    (math.nan, "seed: must be an integer"),
    (-3, "seed: must be >= 0"),
    (1.5, "seed: must be an integer"),
    (True, "seed: must be an integer"),
], ids=["nan", "negative", "fraction", "bool"])
def test_manifest_holds_the_seed_to_the_seed_rule(seed, message):
    # a NaN seed used to be written as "seed": NaN, which is not JSON, and
    # -3 was recorded as given
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build_manifest(["fpcavity", "cavity"], RunConfig.default(), seed)


@pytest.mark.parametrize("size", [0, 1000, 3 * 2**20 + 17],
                         ids=["empty", "one-chunk", "multi-chunk"])
def test_file_sha256_is_the_digest_of_the_whole_file(tmp_path, size):
    data = random.Random(size).randbytes(size)
    path = tmp_path / "out.bin"
    path.write_bytes(data)
    assert file_sha256(path) == hashlib.sha256(data).hexdigest()


def test_file_sha256_does_not_hold_the_file(tmp_path):
    # it read the whole file into one bytes object: a 54 MB trace CSV
    # raised the run's peak RSS by its own size
    path = tmp_path / "out.bin"
    path.write_bytes(bytes(8 * 2**20))
    tracemalloc.start()
    try:
        file_sha256(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


# The core rule of every number outside the value-type sections, whose
# constructors check their own fields; a list stands for its first entry.
CORE_RULES = {
    ("seed",): (_require_count, 0),
    ("pulse", "excitation_time"): (_require_positive,),
    ("pulse", "excited_population"): (_require_fraction,),
    ("monte_carlo", "n_samples"): (_require_count, 2),
    ("monte_carlo", "antinode_offset_fraction"): (_require_positive,),
    ("ion_estimate", "diameter"): (_require_diameter,),
    ("ion_estimate", "inhomogeneous_fwhm"): (_require_positive,),
    ("ion_estimate", "probe_bandwidth"): (_require_positive,),
    ("ion_estimate", "n_draws"): (_require_count, 2),
    ("plan", "diameters", 0): (_require_diameter,),
    ("plan", "repetition_rates", 0): (_require_positive,),
    ("plan", "integration_time"): (_require_positive,),
    **{("simulate", kind, key): rule for kind, keys in {
        "ple": {"inhomogeneous_fwhm": (_require_positive,),
                "amplitude": (_require_non_negative,),
                "background": (_require_non_negative,),
                "span_multiple": (_require_positive,),
                "points": (_require_count, 1),
                "probe_fwhm": (_require_positive,)},
        "saturation": {"scale": (_require_non_negative,),
                       "exponent": (_require_fraction,),
                       "background": (_require_non_negative,),
                       "min_power": (_require_positive,),
                       "max_power": (_require_positive,),
                       "points": (_require_count, 1)},
        "hole": {"n_teeth": (_require_count, 1),
                 "tooth_power": (_require_positive,),
                 "hole_fwhm": (_require_positive,),
                 "rate_scale": (_require_non_negative,),
                 "span_multiple": (_require_positive,),
                 "points": (_require_count, 1)},
        "decay": {"effective_purcell": (_require_non_negative,),
                  "shots": (_require_count, 1),
                  "amplitude": (_require_non_negative,),
                  "background": (_require_non_negative,),
                  "time_span_multiple": (_require_positive,),
                  "points": (_require_count, 1)},
    }.items() for key, rule in keys.items()},
}
VALUE_TYPES = ("transitions", "geometry", "loss_budgets", "nanoparticle",
               "detection")


def test_core_rules_cover_every_number_outside_the_value_types():
    numbers = {path for path in LEAVES
               if type(_at(DEFAULT, path)) in (int, float)
               and path[0] not in (*VALUE_TYPES, "schema_version")
               and (isinstance(path[-1], str) or path[-1] == 0)}
    assert numbers == set(CORE_RULES)


def _violations():
    """(path, rule, its bounds, a value the rule refuses) per number."""
    refused = {_require_positive: (0, -1.0), _require_non_negative: (-1e-9,),
               _require_fraction: (0.0, 1.5), _require_diameter: (0.0, 2e-6)}
    for path, (rule, *bounds) in CORE_RULES.items():
        for value in refused.get(rule) or (bounds[0] - 1,):
            yield pytest.param(path, rule, bounds, value,
                               id=f"{'.'.join(map(str, path))}={value!r}")


@pytest.mark.parametrize("path, rule, bounds, value", _violations())
def test_each_range_rule_is_stated_once_in_core(path, rule, bounds, value):
    # the config reports the core rule's own message after the key's path,
    # without the key again; each key once had a wording of its own
    name = path[-2] if path[-1] == 0 else path[-1]
    with pytest.raises(ValueError) as core:
        rule(name, value, *bounds)
    with pytest.raises(ConfigError) as loaded:
        RunConfig(_replaced(path, value))
    dotted = "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                     for key in path).lstrip(".")
    assert str(loaded.value) == (
        f"{dotted}: {str(core.value).removeprefix(name + ' ')}")
