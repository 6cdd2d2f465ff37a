"""Property tests of the config loader on fuzzed copies of the default.

One or two leaves are replaced by a NaN, an infinity, a bool, a string,
null, a negative or a large number, a key is deleted, or a stray key is
added.  The loader must reject the document with ``ConfigError`` or hold
only finite numbers and known keys, and the CLI must exit 0 or 2 without
raising.
"""
import contextlib
import copy
import dataclasses
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcavity.cli import main
from fpcavity.config import ConfigError, RunConfig, default_config_data

DEFAULT = default_config_data()
FUZZ = settings(derandomize=True, database=None, deadline=None)


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

BAD_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, None,
                     "1.0", "abc"]),
    st.floats(-1e6, -1e-12),
    st.integers(-10**6, -1),
    st.floats(1e3, 1e6),
    st.integers(10**3, 10**6),
)

EDITS = st.one_of(
    st.tuples(st.just("replace"), st.sampled_from(LEAVES), BAD_VALUES),
    st.tuples(st.just("delete"), st.sampled_from(KEYS), st.none()),
    st.tuples(st.just("add"), st.sampled_from(OBJECTS),
              st.sampled_from(["extra", "n_sampels", "noize"])),
)


@st.composite
def fuzzed_documents(draw):
    document = copy.deepcopy(DEFAULT)
    for action, path, value in draw(st.lists(EDITS, min_size=1,
                                             max_size=2)):
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


def _numbers(value):
    """Every int and float held by a loaded config attribute."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)):
        yield value


@FUZZ
@given(fuzzed_documents())
def test_loader_rejects_or_holds_finite_numbers(document):
    try:
        config = RunConfig(document)
    except ConfigError:
        return
    numbers = list(_numbers(list(vars(config).values())))
    assert numbers and all(math.isfinite(number) for number in numbers)
    config.canonical_json()  # refuses NaN and inf
    assert set(_paths(document)) <= set(PATHS)  # no key silently ignored


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@pytest.mark.parametrize("command", ["cavity", "plan"])
@FUZZ
@given(document=fuzzed_documents())
def test_cli_exits_0_or_2_on_fuzzed_config(config_file, command, document):
    config_file.write_text(json.dumps(document))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--config", str(config_file)])
    assert code in (0, 2)
