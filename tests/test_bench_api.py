"""The benchmark harness under ``bench/`` still fits the package's API.

``bench/selfcheck.py`` runs the harness end to end but takes minutes;
these checks read ``bench/study.py`` and ``bench/spans.py`` as source
(nothing under ``bench/`` is imported or written) and fail at once when a
deleted or renamed function would break the library study or leave a
per-layer metric silently at zero.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

import fpcavity

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(), filename=name)


def _fp_chain(node) -> list[str] | None:
    """``["RunConfig", "from_file"]`` for ``fp.RunConfig.from_file``."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "fp" and names:
        return names[::-1]
    return None


def _study_calls():
    """(dotted name, keyword names) of each ``fp.<name>(...)`` call."""
    calls = []
    for node in ast.walk(_tree("study.py")):
        if isinstance(node, ast.Call):
            chain = _fp_chain(node.func)
            if chain is not None:
                calls.append((".".join(chain),
                              [k.arg for k in node.keywords if k.arg]))
    return calls


def _spans_keys(table: str) -> list[str]:
    for node in _tree("spans.py").body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == [table]):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError(f"bench/spans.py defines no {table}")


def _resolve(owner, dotted: str):
    for name in dotted.split("."):
        owner = getattr(owner, name)
    return owner


def test_the_study_reads_the_harness_sources():
    names = {name for name, _ in _study_calls()}
    assert {"ensemble_purcell_stats", "sweep_grid", "channel_strengths",
            "RunConfig.from_file"} <= names


@pytest.mark.parametrize("name, keywords", _study_calls(),
                         ids=lambda value: value
                         if isinstance(value, str) else None)
def test_every_study_call_resolves_with_its_keywords(name, keywords):
    target = _resolve(fpcavity, name)
    parameters = inspect.signature(target).parameters
    takes_any = any(p.kind is p.VAR_KEYWORD for p in parameters.values())
    assert takes_any or set(keywords) <= set(parameters), (
        f"fp.{name} no longer takes {sorted(set(keywords) - set(parameters))}")


@pytest.mark.parametrize("key", sorted(set(_spans_keys("NAMED"))
                                       | set(_spans_keys("COUNTERS"))))
def test_every_span_metric_names_a_wrapped_function(key):
    layer, attr = key.split(".", 1)
    module = importlib.import_module(f"fpcavity.{layer}")
    if "." in attr:
        # RunConfig.from_file and .default are wrapped as classmethods
        owner, method = attr.split(".")
        assert isinstance(vars(getattr(module, owner))[method], classmethod)
        return
    # the condition under which spans.install() wraps a function
    value = vars(module).get(attr)
    assert not attr.startswith("_") and inspect.isfunction(value), key
    assert value.__module__ == module.__name__, key
