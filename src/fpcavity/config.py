"""Run configuration and manifests.

A run is described by one JSON document holding the full parameter tree:
transitions, cavity geometry, mirror loss budgets, nanoparticle, detection
chain, pulse timing, Monte Carlo settings, sweep grids, simulation blocks,
and the seed.  One nested declaration (``_DOCUMENT``) states each key
once, with its rule and its bundled value.  :class:`RunConfig` checks
every key against it at load, whatever the subcommand, so an unknown or
missing key, a wrongly typed or non-finite value, or an out-of-range one
is reported with its path before any computation.  Range rules are
core's; value-type sections take their shapes from the record fields,
and their constructors then check the domain.  The canonical
serialization is hashed so a result can be tied to the exact inputs that
produced it.

:class:`RunManifest` is the record written next to every output: config
hash, toolkit version, seed, creation time, and the output files with
their checksums.  Re-running the same command with the same config and
seed reproduces the data files byte for byte; the manifest's timestamp is
the only field that differs between such runs.

Loading and checking a config needs no numpy: the ``simulate`` kinds
import numpy and their generators only when they run.
"""
from __future__ import annotations

import copy
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from .core import (
    NOISE_MODELS,
    PLAN_MODES,
    TOOLKIT_VERSION,
    CavityGeometry,
    DetectionChain,
    Nanoparticle,
    Transition,
    _check_mode,
    _detection_window,
    _json_text,
    _JsonRecord,
    _require_count,
    _require_diameter,
    _require_fraction,
    _require_non_negative,
    _require_positive,
    _shared_lifetime,
)
from .optics import LossBudget

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


# A rule takes a value and its path in the document, and returns the value
# to keep or raises ConfigError naming the path.  Config states only the
# JSON shape of a value, and the one bound of its own, MAX_COUNT; every
# range rule is core's.

@contextmanager
def _reported_at(path: str):
    """Re-raise a domain check's ValueError as a ConfigError at ``path``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _number(value, path: str):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: must be a number")
    if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int past it
        raise ConfigError(f"{path}: must be finite")
    return value


def _integer(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}: must be an integer")
    return value


def _core(require, *args, kind=_number):
    """A JSON value of ``kind`` that the core rule ``require(name, value,
    *args)`` accepts.  The rule is called with an empty name, so its
    message, " must ...", reads after the path: ``plan.diameters[0]: must
    be in (0, 1e-06] m``."""
    def rule(value, path: str):
        kind(value, path)
        try:  # inline: a with-block per number costs more than its check
            require("", value, *args)
        except ValueError as exc:
            raise ConfigError(f"{path}:{exc}") from None
        return value
    return rule


def _float(rule):
    """``rule``, keeping the value as a float."""
    def checked(value, path: str) -> float:
        return float(rule(value, path))
    return checked


_positive = _core(_require_positive)
_non_negative = _core(_require_non_negative)
_fraction = _core(_require_fraction)
_positive_float = _float(_positive)
_diameter = _float(_core(_require_diameter))


def _at_least(minimum: int):
    return _core(_require_count, minimum, kind=_integer)


# Upper bound on every count.  simulate.<kind>.points sizes a trace, 80 MB
# per float array at the bound, and fails past it with its path instead of
# inside numpy; monte_carlo.n_samples and ion_estimate.n_draws size nothing
# since the ensemble statistics became exact.
MAX_COUNT = 10**7


def _count(minimum: int):
    at_least = _at_least(minimum)

    def rule(value, path: str) -> int:
        if at_least(value, path) > MAX_COUNT:
            raise ConfigError(f"{path}: must be an integer <= {MAX_COUNT}")
        return value
    return rule


# The config ``seed`` key and ``--seed`` share this rule.
valid_seed = _at_least(0)


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: must be true or false")
    return value


def _choice(options: tuple):
    def rule(value, path: str):
        if value not in options:
            allowed = " or ".join(map(repr, options))
            raise ConfigError(f"{path}: must be {allowed}, got {value!r}")
        return value
    return rule


def _list(item_rule):
    """A non-empty list, each item checked by ``item_rule``, as a tuple."""
    def rule(value, path: str) -> tuple:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: must be a non-empty list")
        return tuple(item_rule(item, f"{path}[{i}]")
                     for i, item in enumerate(value))
    return rule


class Section:
    """One object of the config document, declared once.

    Each keyword names a key as ``(rule, bundled)``, or ``(rule, bundled,
    value when left out)`` if it may be left out; a ``bundled`` of None
    keeps the key out of the bundled config.  A key given a
    :class:`Section` is a nested object bundled with the section's own
    tree.  Called with a value and its path, a section is the object's
    rule: only its keys, every one not left out, each checked by its rule.
    The checked values are returned as written, with nothing filled in.
    """

    def __init__(self, **keys):
        keys = {key: (spec, spec.bundled) if isinstance(spec, Section)
                else spec for key, spec in keys.items()}
        self.rules = {key: spec[0] for key, spec in keys.items()}
        self.bundled = {key: spec[1] for key, spec in keys.items()
                        if spec[1] is not None}
        self.omitted = {key: spec[2] for key, spec in keys.items()
                        if len(spec) == 3}

    def __call__(self, value, path: str) -> dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'config root'}: must be an object")
        prefix = f"{path}." if path else ""
        for key in value:
            if key not in self.rules:
                raise ConfigError(f"{prefix}{key}: unknown key")
        for key in self.rules:
            if key not in value and key not in self.omitted:
                raise ConfigError(f"{prefix}{key}: required key is missing")
        return {key: self.rules[key](item, prefix + key)
                for key, item in value.items()}


def _record(cls, *derived: str):
    """Rules read off a value type's fields: an ``int`` field takes a JSON
    integer, any other a finite number, and a field with a default (a class
    attribute) may be left out; a ``derived`` one is no key and keeps its
    default.  The constructor then checks the domain."""
    types, defaults = cls.__annotations__, vars(cls)
    check = Section(**{
        name: (_integer if types[name] == "int" else _number, None,
               *((defaults[name],) if name in defaults else ()))
        for name in cls.__match_args__ if name not in derived})

    def rule(value, path: str):
        checked = check(value, path)
        with _reported_at(path):
            return cls(**checked)
    return rule


def _population(particle: Nanoparticle, inhomogeneous_fwhm: float,
                path: str):
    """The particle's ions over the line, a ``SpectralPopulation``; no ion
    at all is an error at path."""
    from .ensemble import (SpectralPopulation, default_hyperfine_classes,
                           total_ion_count)
    with _reported_at(path):
        return SpectralPopulation(
            total_ions=total_ion_count(particle),
            inhomogeneous_fwhm=inhomogeneous_fwhm,
            hyperfine_offsets=default_hyperfine_classes())


def _centered(span: float, points: int):
    import numpy as np
    return np.linspace(-0.5 * span, 0.5 * span, points)


def _ple(p: dict, config: "RunConfig", seed: int):
    from .spectra import ple_scan
    span = p["span_multiple"] * p["inhomogeneous_fwhm"]
    population = None
    if p["use_population"]:
        population = _population(config.nanoparticle,
                                 p["inhomogeneous_fwhm"],
                                 "nanoparticle.diameter")
    trace = ple_scan(p["inhomogeneous_fwhm"], 0.0, p["amplitude"],
                     p["background"], _centered(span, p["points"]),
                     population=population, probe_fwhm=p["probe_fwhm"],
                     noise=p["noise"], seed=seed)
    return trace, {"span": span}


def _saturation(p: dict, config: "RunConfig", seed: int):
    import numpy as np

    from .spectra import saturation_curve
    powers = np.geomspace(p["min_power"], p["max_power"], p["points"])
    trace = saturation_curve(powers, p["scale"], p["exponent"],
                             p["background"], noise=p["noise"], seed=seed)
    return trace, {}


def _hole(p: dict, config: "RunConfig", seed: int):
    from .spectra import hole_spectrum
    span = p["span_multiple"] * p["hole_fwhm"]
    trace = hole_spectrum(_centered(span, p["points"]), p["n_teeth"],
                          p["tooth_power"], p["hole_fwhm"], p["rate_scale"],
                          noise=p["noise"], seed=seed)
    return trace, {"span": span}


def _decay(p: dict, config: "RunConfig", seed: int):
    import numpy as np

    from .purcell import cavity_lifetime
    from .spectra import decay_histogram
    free = config.transitions[0].free_space_lifetime
    lifetime = cavity_lifetime(free, p["effective_purcell"])
    grid = np.linspace(0.0, p["time_span_multiple"] * lifetime, p["points"])
    trace = decay_histogram(lifetime, grid, p["shots"], p["amplitude"],
                            p["background"], noise=p["noise"], seed=seed)
    return trace, {"effective_lifetime": lifetime,
                   "free_space_lifetime": free}


class Simulation(Section):
    """One ``simulate`` kind: its ``simulate.<kind>`` block declared as a
    :class:`Section`, whose values are kept as written since the trace's
    sidecar records them, and ``generate(params, config, seed)``, which
    builds the grid, calls the generator and returns the trace with its
    derived values."""

    def __init__(self, generate, **keys):
        super().__init__(**keys)
        self.generate = generate

    def run(self, params: dict, config: "RunConfig", seed: int):
        """(trace, derived values) of the checked ``params``."""
        return self.generate({**self.omitted, **params}, config, seed)


_noise = _choice(NOISE_MODELS)

SIMULATIONS = {
    "ple": Simulation(
        _ple, inhomogeneous_fwhm=(_positive, 34e9),
        amplitude=(_non_negative, 1000.0), background=(_non_negative, 50.0),
        span_multiple=(_positive, 4.0), points=(_count(1), 401),
        use_population=(_flag, False, False),
        probe_fwhm=(_positive, 13e6, None), noise=(_noise, None, "none")),
    "saturation": Simulation(
        _saturation, scale=(_non_negative, 1000.0),
        exponent=(_fraction, 0.5), background=(_non_negative, 0.0, 0.0),
        min_power=(_positive, 1e-9), max_power=(_positive, 1e-5),
        points=(_count(1), 25), noise=(_noise, None, "none")),
    "hole": Simulation(
        _hole, n_teeth=(_at_least(1), 200),
        tooth_power=(_positive, 1e-7), hole_fwhm=(_positive, 12e6),
        rate_scale=(_non_negative, 100.0), span_multiple=(_positive, 10.0),
        points=(_count(1), 401), noise=(_noise, None, "none")),
    "decay": Simulation(
        _decay, effective_purcell=(_non_negative, 0.82),
        shots=(_at_least(1), 20000), amplitude=(_non_negative, 0.05),
        background=(_non_negative, 0.002, 0.0),
        time_span_multiple=(_positive, 5.0), points=(_count(1), 120),
        noise=(_noise, None, "poisson")),
}

# The whole document, in the order the bundled config prints: the reference
# cavity and emitter setup.
_DOCUMENT = Section(
    schema_version=(_choice((SCHEMA_VERSION,)), SCHEMA_VERSION),
    seed=(valid_seed, 0, 0),
    # two transitions sharing one excited state: the pumped narrow line
    # first, then the strong red branch whose fast dephasing keeps it far
    # from the cavity linewidth
    transitions=(_list(_record(Transition)), [
        {"wavelength": 580.8e-9, "branching_ratio": 0.007,
         "homogeneous_linewidth": 3.3e6, "free_space_lifetime": 2.0e-3},
        {"wavelength": 611.0e-9, "branching_ratio": 0.36,
         "homogeneous_linewidth": 680e9, "free_space_lifetime": 2.0e-3},
    ]),
    geometry=(_record(CavityGeometry), {
        "radius_of_curvature": 25e-6, "cavity_length": 5.808e-6,
        "mode_order": 20, "rms_length_jitter": 8e-12}),
    # bare-cavity mirror budgets in ppm, one per transition; nanoparticle
    # scattering comes from nanoparticle.diameter, added per computation
    loss_budgets=(_list(_record(LossBudget, "particle_scatter")), [
        {"transmission_in": 25.0, "transmission_out": 200.0,
         "absorption_scatter": 134.04},
        {"transmission_in": 25.0, "transmission_out": 200.0,
         "absorption_scatter": 436.39},
    ]),
    nanoparticle=(_record(Nanoparticle), {
        "diameter": 70e-9, "dopant_concentration": 0.003}),
    detection=(_record(DetectionChain), {"path_transmission": 0.8,
               "detector_efficiency": 0.65, "dark_rate": 20.0}),
    pulse=Section(excitation_time=(_positive_float, 1e-6),
                  excited_population=(_float(_fraction), 0.5)),
    monte_carlo=Section(n_samples=(_count(2), 20000),
                        antinode_offset_fraction=(_positive_float, 0.15)),
    ion_estimate=Section(
        diameter=(_diameter, 90e-9),
        inhomogeneous_fwhm=(_positive_float, 34e9),
        probe_bandwidth=(_positive_float, 13e6), n_draws=(_count(2), 300)),
    plan=Section(
        diameters=(_list(_diameter),
                   [d * 1e-9 for d in range(40, 101, 10)]),
        repetition_rates=(_list(_positive_float),
                          [float(f) for f in range(500, 6001, 500)]),
        modes=(_list(_choice(PLAN_MODES)), list(PLAN_MODES)),
        integration_time=(_positive_float, 1.0)),
    # a kind's block is needed only to run it
    simulate=Section(**{kind: (simulation, simulation.bundled, None)
                        for kind, simulation in SIMULATIONS.items()}),
)


def default_config_data() -> dict:
    """The bundled parameter tree, as declared in ``_DOCUMENT``."""
    return copy.deepcopy(_DOCUMENT.bundled)


class RunConfig:
    """Parameter tree for one toolkit run, checked whole by ``_DOCUMENT``
    at construction, so no computation ever sees an unchecked value."""

    def __init__(self, data: dict):
        doc = {**_DOCUMENT.omitted, **_DOCUMENT(data, "")}
        transitions = doc["transitions"]
        if len(doc["loss_budgets"]) != len(transitions):
            raise ConfigError("loss_budgets: need one budget per transition")
        for i in range(1, len(transitions)):
            with _reported_at(f"transitions[{i}].free_space_lifetime"):
                _shared_lifetime(transitions[:i + 1])
        excitation_time = doc["pulse"]["excitation_time"]
        for key, check in (
                ("repetition_rates",
                 lambda f_rep: _detection_window(f_rep, excitation_time)),
                ("modes", lambda mode: _check_mode(mode, transitions))):
            for i, value in enumerate(doc["plan"][key]):
                with _reported_at(f"plan.{key}[{i}]"):
                    check(value)
        ple = doc["simulate"].get("ple", {})
        if ple.get("use_population") and "probe_fwhm" not in ple:
            raise ConfigError("simulate.ple.probe_fwhm: required key is "
                              "missing when use_population is true")
        self.data = data  # as written; hashed and recorded verbatim
        self.seed: int = doc["seed"]
        self.transitions = transitions
        self.loss_budgets = doc["loss_budgets"]
        self.geometry = doc["geometry"]
        self.nanoparticle = doc["nanoparticle"]
        self.detection = doc["detection"]
        pulse, mc, ion = doc["pulse"], doc["monte_carlo"], doc["ion_estimate"]
        self.excitation_time = pulse["excitation_time"]
        self.excited_population = pulse["excited_population"]
        # no subcommand reads it; ensemble_purcell_stats checks it and
        # neither keeps it nor changes a number for it
        self.mc_samples = mc["n_samples"]
        self.antinode_offset_fraction = mc["antinode_offset_fraction"]
        self.ion_diameter = ion["diameter"]
        self.ion_inhomogeneous_fwhm = ion["inhomogeneous_fwhm"]
        self.ion_probe_bandwidth = ion["probe_bandwidth"]
        plan = doc["plan"]
        self.plan_diameters = plan["diameters"]
        self.plan_repetition_rates = plan["repetition_rates"]
        self.plan_modes = plan["modes"]
        self.plan_integration_time = plan["integration_time"]
        self.simulate = doc["simulate"]

    @classmethod
    def default(cls) -> "RunConfig":
        return cls(default_config_data())

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: "
                              f"{exc}") from None
        return cls(data)

    def simulate_params(self, kind: str) -> dict:
        """The ``simulate.<kind>`` block, as written and checked at load."""
        try:
            return dict(self.simulate[kind])
        except KeyError:
            raise ConfigError(
                f"simulate.{kind}: no parameters configured") from None

    def canonical_json(self) -> str:
        return json.dumps(self.data, sort_keys=True,
                          separators=(",", ":"), allow_nan=False)

    def config_hash(self) -> str:
        digest = hashlib.sha256(self.canonical_json().encode())
        return digest.hexdigest()


def file_sha256(path) -> str:
    """The file's SHA-256, read in 512 KiB chunks, so hashing a large
    output holds at most two chunks, never the whole file."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 19):
            digest.update(chunk)
    return digest.hexdigest()


class RunManifest(_JsonRecord):
    """Provenance record of one command invocation.

    ``outputs`` maps written files to their SHA-256 checksums; replaying
    the recorded command with the same config and seed regenerates those
    files byte for byte (the manifest's own timestamp excepted).
    """

    command: tuple
    config_sha256: str
    seed: int
    toolkit_version: str = TOOLKIT_VERSION
    created_utc: str = ""
    outputs: tuple = ()


def build_manifest(command, config: RunConfig, seed: int,
                   output_paths=()) -> RunManifest:
    """The run's manifest; ``seed`` is held to the config's seed rule."""
    seed = valid_seed(seed, "seed")
    outputs = tuple(
        {"path": str(path), "sha256": file_sha256(path)}
        for path in output_paths)
    return RunManifest(
        command=tuple(str(part) for part in command),
        config_sha256=config.config_hash(),
        seed=seed,
        created_utc=time.strftime("%Y-%m-%dT%H:%M:%S+00:00",
                                  time.gmtime()),
        outputs=outputs,
    )


def write_manifest(manifest: RunManifest, path) -> Path:
    path = Path(path)
    path.write_text(_json_text(manifest.to_dict()), encoding="utf-8",
                    newline="\n")
    return path


def manifest_path_for(output_path) -> Path:
    output_path = Path(output_path)
    return output_path.with_name(output_path.name + ".manifest.json")
