"""The frozen value types share one set of methods from ``fpcavity.core``.

Each record type is checked against a twin declared with a plain
``@dataclass(frozen=True)`` from the same fields and ``__post_init__``,
which serves as the oracle for every behaviour the package relies on:
the record's own API (``core.replace``, ``_values``, ``__match_args__``)
must do what the ``dataclasses`` functions do to the twin.
"""
import copy
import dataclasses
import importlib
import pickle
import pkgutil
import sys
import types

import numpy as np
import pytest

import fpcavity
from fpcavity import core
from fpcavity.config import RunManifest
from fpcavity.core import (CavityGeometry, Nanoparticle, Transition,
                           _JsonRecord, _Record)
from fpcavity.ensemble import (ChannelStrength, EnsembleStats, ExactMoments,
                               IonCountStats, SpectralPopulation)
from fpcavity.fitting import MODELS, FitResult, ModelSpec
from fpcavity.optics import DoubleResonance, LossBudget
from fpcavity.planner import DetectionChain, PulseScheme, SweepRow
from fpcavity.purcell import CouplingReport
from fpcavity.trace import Trace

_SPEC = MODELS["exp_decay"]

# (type, sample arguments, changes that its __post_init__ rejects or None)
_SAMPLES = [
    (Transition, (580.8e-9, 0.007, 3.3e6, 2.0e-3),
     {"branching_ratio": 1.5}),
    (CavityGeometry, (25e-6, 5.808e-6, 20), {"cavity_length": 30e-6}),
    (Nanoparticle, (70e-9, 0.003), {"dopant_concentration": 1.0}),
    # toolkit_version, created_utc and outputs (defaulted) omitted
    (RunManifest, (("fpcavity", "cavity"), "ab" * 32, 3), None),
    (ChannelStrength, (580.8e-9, 2.5), None),
    (EnsembleStats, (1.5, 0.25, 3.0, "exact"), None),
    (ExactMoments, (1.5, 0.25, "exact"), None),
    (SpectralPopulation, (10**6, 34e9, 0.0, [(0, 1)]), {"total_ions": 0}),
    (IonCountStats, (2.0, 1.5, 300, 11), None),
    (ModelSpec, _SPEC._values(), None),
    (FitResult, ("linear", {"slope": 2.0}, {"slope": 0.1}, 0.5, True, 4),
     None),
    (LossBudget, (25.0, 200.0, 134.04), {"particle_scatter": -1.0}),
    (DoubleResonance, (5.808e-6, 20, 19, 2.9e11), None),
    (DetectionChain, (0.8, 0.65, 20.0), {"dark_rate": -1.0}),
    (PulseScheme, (1e-6, 1e-3, 0.5), {"detection_time": 0.0}),
    (SweepRow, (6e-8, 4000, "contact", 12.5, -0.0, 0.82), None),
    (CouplingReport, (580.8e-9, 1.2, 0.8, 1e8, 1.5e9, 3.3e6, 0.4, 0.45),
     {"cooperativity": -1.0}),
    (Trace, (np.linspace(0.0, 1.0, 3), np.arange(3.0), "poisson", 5),
     None),
]


def _record_types():
    """Every ``_Record`` subclass of the package that has fields."""
    for module in pkgutil.iter_modules(fpcavity.__path__):
        importlib.import_module(f"fpcavity.{module.name}")
    found, bases = set(), [_Record]
    while bases:
        for cls in bases.pop().__subclasses__():
            bases.append(cls)
            if cls.__module__.startswith("fpcavity.") \
                    and hasattr(cls, "__match_args__"):
                found.add(cls)
    return found


def _shares_the_record_methods(cls) -> bool:
    return all(getattr(cls, name) is getattr(_Record, name)
               for name in ("__init__", "__repr__", "__setattr__",
                            "__delattr__", "__reduce__"))


# what dataclass and _Record put on a class, left out of its twin
_MACHINERY = {"__dict__", "__weakref__", "__slots__", "__match_args__",
              "__eq__", "__hash__"}


def _twin(cls, module):
    """``cls`` declared as a plain frozen dataclass with the same fields,
    defaults and methods, put in ``module`` under the same name so that it
    pickles."""
    namespace = {name: value for name, value in vars(cls).items()
                 if name not in _MACHINERY}
    namespace.update(__annotations__=dict(cls.__annotations__),
                     __module__=module.__name__)
    twin = dataclasses.dataclass(
        type(cls.__name__, (), namespace), frozen=True,
        eq=cls.__eq__ is not object.__eq__,
        slots="__slots__" in vars(cls))
    setattr(module, cls.__name__, twin)
    return twin


def _outcome(action):
    """What ``action()`` returned, or the type of what it raised."""
    try:
        return "returned", action()
    except Exception as error:  # the type is the observation
        return "raised", type(error)


# the record API, by the name of the dataclasses function it stands in for;
# asdict and astuple copy deeply, which can reorder a rebuilt set's repr
_RECORD_API = types.SimpleNamespace(
    replace=core.replace,
    asdict=lambda record: copy.deepcopy(
        dict(zip(record.__match_args__, record._values()))),
    astuple=lambda record: copy.deepcopy(record._values()),
    fields=lambda cls: [(name, cls.__annotations__[name])
                        for name in cls.__match_args__])
_DATACLASS_API = types.SimpleNamespace(
    replace=dataclasses.replace, asdict=dataclasses.asdict,
    astuple=dataclasses.astuple,
    fields=lambda cls: [(f.name, f.type) for f in dataclasses.fields(cls)])


def _observe(make, args, bad, api=_RECORD_API):
    """Every observable behaviour of ``make``'s records, varied and taken
    apart through ``api``."""
    names = make.__match_args__
    record = make(*args)
    same = make(*args)
    different = type("Different", (), {})()
    observed = {
        "repr": repr(record),
        "eq": (record == same, record != same, record == record),
        "eq other class": (record == different, record != different),
        "hash": _outcome(lambda: hash(record) == hash(same)),
        "hash value": _outcome(
            lambda: hash(record) if record == same else "identity"),
        "mixed": repr(make(*args[:1], **dict(zip(names[1:], args[1:])))),
        "keywords": repr(make(**dict(zip(names, args)))),
        "no arguments": _outcome(lambda: repr(make())),
        "extra positional": _outcome(
            lambda: repr(make(*args, *[None] * len(names)))),
        "extra keyword": _outcome(lambda: repr(make(*args, extra=1))),
        "repeated": _outcome(
            lambda: repr(make(*args, **{names[0]: args[0]}))),
        "all repeated": _outcome(
            lambda: repr(make(*args, **dict(zip(names, args))))),
        "missing": _outcome(lambda: repr(make(**{names[-1]: args[-1]}))),
        "pickle": repr(pickle.loads(pickle.dumps(record))),
        "deepcopy": repr(copy.deepcopy(record)),
        "copy": repr(copy.copy(record)),
        "replace": repr(api.replace(record)),
        "replace one": repr(api.replace(
            record, **{names[-1]: getattr(record, names[-1])})),
        "asdict": repr(api.asdict(record)),
        "astuple": repr(api.astuple(record)),
        "fields": api.fields(make),
    }
    for name in names:
        observed[f"set {name}"] = _outcome(
            lambda: setattr(record, name, None))
        observed[f"delete {name}"] = _outcome(lambda: delattr(record, name))
    if bad is not None:
        observed["replace bad"] = _outcome(
            lambda: repr(api.replace(record, **bad)))
        changed = dict(zip(names, args), **bad)
        observed["construct bad"] = _outcome(lambda: repr(make(**changed)))
    return observed


def test_every_record_type_has_a_sample():
    assert {cls for cls, _, _ in _SAMPLES} == _record_types()


@pytest.mark.parametrize("cls, args, bad", _SAMPLES,
                         ids=[cls.__name__ for cls, _, _ in _SAMPLES])
def test_record_behaves_as_a_frozen_dataclass(cls, args, bad, monkeypatch):
    module = types.ModuleType("fpcavity_record_twins")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    twin = _twin(cls, module)
    observed = _observe(cls, args, bad)
    assert observed == _observe(twin, args, bad, _DATACLASS_API)
    # the checks the comparison rests on
    assert cls(*args) != twin(*args) and twin(*args) != cls(*args)
    if bad is not None:
        assert observed["replace bad"] == ("raised", ValueError)
        assert observed["construct bad"] == ("raised", ValueError)
    for name in cls.__match_args__:
        for action in ("set", "delete"):
            assert observed[f"{action} {name}"] == (
                "raised", dataclasses.FrozenInstanceError)
    required = [f for f in dataclasses.fields(twin)
                if f.default is f.default_factory is dataclasses.MISSING]
    for key in ("extra positional", "extra keyword", "repeated",
                "all repeated") + (
            ("no arguments", "missing") if required else ()):
        assert observed[key] == ("raised", TypeError), key


def test_replace_reruns_post_init():
    replace = core.replace
    population = SpectralPopulation(10**6, 34e9)
    changed = replace(population, hyperfine_offsets=[(1, 1)])
    assert changed.hyperfine_offsets == ((1.0, 1.0),)
    with pytest.raises(TypeError):
        replace(population, extra=1)
    for cls, args, bad in _SAMPLES:
        record = cls(*args)
        assert repr(replace(record)) == repr(record)
        if bad is not None:
            with pytest.raises(ValueError):
                replace(record, **bad)


# to_dict of every JSON record, and a manifest whose outputs are dicts
_JSON_SAMPLES = [(cls, args) for cls, args, _ in _SAMPLES
                 if issubclass(cls, _JsonRecord)] + [
    (RunManifest, (("fpcavity", "plan", "--out", "sweep.csv"), "ab" * 32, 3,
                   "0.1.0", "2026-01-01T00:00:00+00:00",
                   ({"path": "sweep.csv", "sha256": "cd" * 32},))),
]


def _mutable_parts(value) -> set:
    """The ids of every list, dict and set in ``value``, a record or a
    nest of containers."""
    if isinstance(value, _Record):
        value = value._values()
    found = {id(value)} if isinstance(value, (list, dict, set)) else set()
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    if isinstance(value, (list, tuple, set)):
        for item in value:
            found |= _mutable_parts(item)
    return found


@pytest.mark.parametrize("cls, args", _JSON_SAMPLES,
                         ids=[cls.__name__ for cls, _ in _JSON_SAMPLES])
def test_to_dict_is_the_deep_copy_asdict_makes(cls, args, monkeypatch):
    module = types.ModuleType("fpcavity_record_twins")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    record = cls(*args)
    plain = record.to_dict()
    deep = dataclasses.asdict(_twin(cls, module)(*args))
    assert plain == deep
    assert repr(plain) == repr(deep)  # order, types
    assert not _mutable_parts(plain) & _mutable_parts(record)
    if cls is RunManifest and record.outputs:
        assert len(_mutable_parts(record)) == 1  # the outputs dict
    if cls is SpectralPopulation:
        assert plain["hyperfine_offsets"] == ((0.0, 1.0),)


def test_unpickled_trace_stays_read_only():
    trace = Trace(x=np.arange(3.0), y=np.ones(3))
    for back in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace)):
        assert back is not trace and back != trace  # identity equality
        assert back.x.tolist() == trace.x.tolist()
        assert not back.x.flags.writeable and not back.y.flags.writeable


def test_every_record_type_takes_the_shared_methods():
    for cls in _record_types():
        assert _shares_the_record_methods(cls), cls
        assert cls.__match_args__ == tuple(vars(cls)["__annotations__"]), cls
        # a record's fields are its own annotations: no base adds any
        assert not any(vars(base).get("__annotations__")
                       for base in cls.__mro__[1:]), cls


def test_no_record_is_a_dataclass():
    assert _record_types()
    for cls, args, _ in _SAMPLES:
        assert not dataclasses.is_dataclass(cls), cls
        assert not dataclasses.is_dataclass(cls(*args)), cls
        with pytest.raises(TypeError):
            dataclasses.replace(cls(*args))


def test_a_plain_frozen_dataclass_fails_the_guard():
    @dataclasses.dataclass(frozen=True)
    class Plain(_Record):
        value: float

    assert not _shares_the_record_methods(Plain)


def test_a_subclass_that_annotates_fields_is_a_record():
    # no decorator: annotating the fields is what makes a record
    class P(_JsonRecord):
        x: float
        y: float = 0.0

    assert P(1.0) == P(1.0, 0.0) == P(x=1.0)
    assert P.__match_args__ == ("x", "y")
    assert P(1.0)._values() == (1.0, 0.0)
    assert P(1.0, 2.0).to_dict() == {"x": 1.0, "y": 2.0}
    assert "__match_args__" not in vars(_JsonRecord)
    assert not hasattr(_JsonRecord, "__dataclass_fields__")
