"""Run configuration and manifests.

A run is described by one JSON document holding the full parameter tree:
transitions, cavity geometry, mirror loss budgets, nanoparticle, detection
chain, pulse timing, Monte Carlo settings, sweep grids, simulation blocks,
and the seed.  :class:`RunConfig` checks every key at load, whatever the
subcommand, against one nested table of rules (``_DOCUMENT``), so an
unknown or missing key, a wrongly typed or non-finite value, or an
out-of-range count is reported with its path before any computation.
Value-type sections take their rules from the dataclass fields, and their
constructors then check the domain.  The canonical serialization is hashed
so a result can be tied to the exact inputs that produced it.

:class:`RunManifest` is the record written next to every output: config
hash, toolkit version, seed, creation time, and the output files with
their checksums.  Re-running the same command with the same config and
seed reproduces the data files byte for byte; the manifest's timestamp is
the only field that differs between such runs.
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

from .core import (
    TOOLKIT_VERSION,
    CavityGeometry,
    Nanoparticle,
    Transition,
    _JsonRecord,
)
from .optics import LossBudget
from .planner import PLAN_MODES, DetectionChain
from .spectra import NOISE_MODELS

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def default_config_data() -> dict:
    """Parameter tree for the reference cavity and emitter setup.

    Two transitions sharing one excited state: the pumped narrow line
    first, then the strong red branch whose fast dephasing keeps it far
    from the cavity linewidth.  Mirror budgets are bare-cavity values in
    ppm; nanoparticle scattering is added per computation.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": 0,
        "transitions": [
            {
                "wavelength": 580.8e-9,
                "branching_ratio": 0.007,
                "homogeneous_linewidth": 3.3e6,
                "free_space_lifetime": 2.0e-3,
            },
            {
                "wavelength": 611.0e-9,
                "branching_ratio": 0.36,
                "homogeneous_linewidth": 680e9,
                "free_space_lifetime": 2.0e-3,
            },
        ],
        "geometry": {
            "radius_of_curvature": 25e-6,
            "cavity_length": 5.808e-6,
            "mode_order": 20,
            "rms_length_jitter": 8e-12,
        },
        "loss_budgets": [
            {
                "transmission_in": 25.0,
                "transmission_out": 200.0,
                "absorption_scatter": 134.04,
            },
            {
                "transmission_in": 25.0,
                "transmission_out": 200.0,
                "absorption_scatter": 436.39,
            },
        ],
        "nanoparticle": {
            "diameter": 70e-9,
            "dopant_concentration": 0.003,
        },
        "detection": {
            "path_transmission": 0.8,
            "detector_efficiency": 0.65,
            "dark_rate": 20.0,
        },
        "pulse": {
            "excitation_time": 1e-6,
            "excited_population": 0.5,
        },
        "monte_carlo": {
            "n_samples": 20000,
            "antinode_offset_fraction": 0.15,
        },
        "ion_estimate": {
            "diameter": 90e-9,
            "inhomogeneous_fwhm": 34e9,
            "probe_bandwidth": 13e6,
            "n_draws": 300,
        },
        "plan": {
            "diameters": [d * 1e-9 for d in range(40, 101, 10)],
            "repetition_rates": [float(f) for f in range(500, 6001, 500)],
            "modes": list(PLAN_MODES),
            "integration_time": 1.0,
        },
        "simulate": {
            "ple": {
                "inhomogeneous_fwhm": 34e9,
                "amplitude": 1000.0,
                "background": 50.0,
                "span_multiple": 4.0,
                "points": 401,
                "use_population": False,
                "probe_fwhm": 13e6,
            },
            "saturation": {
                "scale": 1000.0,
                "exponent": 0.5,
                "background": 0.0,
                "min_power": 1e-9,
                "max_power": 1e-5,
                "points": 25,
            },
            "hole": {
                "n_teeth": 200,
                "tooth_power": 1e-7,
                "hole_fwhm": 12e6,
                "rate_scale": 100.0,
                "span_multiple": 10.0,
                "points": 401,
            },
            "decay": {
                "effective_purcell": 0.82,
                "shots": 20000,
                "amplitude": 0.05,
                "background": 0.002,
                "time_span_multiple": 5.0,
                "points": 120,
            },
        },
    }


# A rule takes a value and its path in the document, and returns the value
# to keep or raises ConfigError naming the path.

def _number(value, path: str):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: must be a number")
    if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int past it
        raise ConfigError(f"{path}: must be finite")
    return value


def _positive(value, path: str):
    if _number(value, path) <= 0.0:
        raise ConfigError(f"{path}: must be a positive number")
    return value


def _non_negative(value, path: str):
    if _number(value, path) < 0.0:
        raise ConfigError(f"{path}: must be a number >= 0")
    return value


def _fraction(value, path: str):
    if not 0.0 < _number(value, path) <= 1.0:
        raise ConfigError(f"{path}: must be in (0, 1]")
    return value


def _float(rule):
    """``rule``, keeping the value as a float."""
    def checked(value, path: str) -> float:
        return float(rule(value, path))
    return checked


_positive_number = _float(_positive)


def _integer(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}: must be an integer")
    return value


def _int_at_least(minimum: int):
    def rule(value, path: str) -> int:
        if _integer(value, path) < minimum:
            raise ConfigError(f"{path}: must be an integer >= {minimum}")
        return value
    return rule


# The config ``seed`` key and ``--seed`` share this rule.
valid_seed = _int_at_least(0)


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


def _object(rules: dict, optional=()):
    """An object holding only the keys of ``rules``, every one of them
    except those in ``optional``; each value is checked by its rule."""
    def rule(value, path: str) -> dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'config root'}: must be an object")
        prefix = f"{path}." if path else ""
        for key in value:
            if key not in rules:
                raise ConfigError(f"{prefix}{key}: unknown key")
        for key in rules:
            if key not in value and key not in optional:
                raise ConfigError(f"{prefix}{key}: required key is missing")
        return {key: rules[key](item, prefix + key)
                for key, item in value.items()}
    return rule


def _record(cls):
    """Rules read off a value type's dataclass fields: an ``int`` field
    takes a JSON integer, any other a finite number, and a field with a
    default may be left out.  The constructor then checks the domain."""
    check = _object(
        {f.name: _integer if f.type == "int" else _number
         for f in fields(cls)},
        optional={f.name for f in fields(cls) if f.default is not MISSING})

    def rule(value, path: str):
        checked = check(value, path)
        try:
            return cls(**checked)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    return rule


def _simulation(rules: dict, optional=()):
    """A ``simulate.<kind>`` block: the kind's own ``rules``, which state
    the domain its simulator needs, plus ``points`` >= 1 and an optional
    ``noise`` model.  Values are kept as written, since the trace's
    sidecar records them.  The optional keys are the ones
    ``cli._simulate_trace`` gives a default."""
    return _object({**rules, "points": _int_at_least(1),
                    "noise": _choice(NOISE_MODELS)},
                   optional=("noise", *optional))


_SIMULATE = {
    "ple": _simulation({"inhomogeneous_fwhm": _positive,
                        "amplitude": _non_negative,
                        "background": _non_negative,
                        "span_multiple": _positive, "use_population": _flag,
                        "probe_fwhm": _positive},
                       ("use_population", "probe_fwhm")),
    "saturation": _simulation({"scale": _non_negative, "exponent": _fraction,
                               "background": _non_negative,
                               "min_power": _positive, "max_power": _positive},
                              ("background",)),
    "hole": _simulation({"n_teeth": _int_at_least(1), "tooth_power": _positive,
                         "hole_fwhm": _positive, "rate_scale": _non_negative,
                         "span_multiple": _positive}),
    # the Purcell factor's domain is cavity_lifetime's, checked in the CLI
    "decay": _simulation({"effective_purcell": _number,
                          "shots": _int_at_least(1),
                          "amplitude": _non_negative,
                          "background": _non_negative,
                          "time_span_multiple": _positive}, ("background",)),
}

_DOCUMENT = _object({
    "schema_version": _choice((SCHEMA_VERSION,)),
    "seed": valid_seed,
    "transitions": _list(_record(Transition)),
    "loss_budgets": _list(_record(LossBudget)),
    "geometry": _record(CavityGeometry),
    "nanoparticle": _record(Nanoparticle),
    "detection": _record(DetectionChain),
    "pulse": _object({"excitation_time": _positive_number,
                      "excited_population": _float(_fraction)}),
    "monte_carlo": _object({"n_samples": _int_at_least(2),
                            "antinode_offset_fraction": _positive_number}),
    "ion_estimate": _object({
        "diameter": _positive_number, "inhomogeneous_fwhm": _positive_number,
        "probe_bandwidth": _positive_number, "n_draws": _int_at_least(2)}),
    "plan": _object({"diameters": _list(_positive_number),
                     "repetition_rates": _list(_positive_number),
                     "modes": _list(_choice(PLAN_MODES)),
                     "integration_time": _positive_number}),
    "simulate": _object(_SIMULATE, optional=_SIMULATE),
}, optional=("seed",))


class RunConfig:
    """Parameter tree for one toolkit run, checked whole by ``_DOCUMENT``
    at construction, so no computation ever sees an unchecked value."""

    def __init__(self, data: dict):
        doc = _DOCUMENT(data, "")
        if len(doc["loss_budgets"]) != len(doc["transitions"]):
            raise ConfigError("loss_budgets: need one budget per transition")
        self.data = data  # as written; hashed and recorded verbatim
        self.seed: int = doc.get("seed", 0)
        self.transitions = doc["transitions"]
        self.loss_budgets = doc["loss_budgets"]
        self.geometry = doc["geometry"]
        self.nanoparticle = doc["nanoparticle"]
        self.detection = doc["detection"]
        pulse, mc, ion = doc["pulse"], doc["monte_carlo"], doc["ion_estimate"]
        self.excitation_time = pulse["excitation_time"]
        self.excited_population = pulse["excited_population"]
        self.mc_samples = mc["n_samples"]
        self.antinode_offset_fraction = mc["antinode_offset_fraction"]
        self.ion_diameter = ion["diameter"]
        self.ion_inhomogeneous_fwhm = ion["inhomogeneous_fwhm"]
        self.ion_probe_bandwidth = ion["probe_bandwidth"]
        self.ion_draws = ion["n_draws"]
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
            text = path.read_text()
        except OSError as exc:
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
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True)
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
    outputs: tuple = field(default_factory=tuple)


def build_manifest(command, config: RunConfig, seed: int,
                   output_paths=()) -> RunManifest:
    outputs = tuple(
        {"path": str(path), "sha256": file_sha256(path)}
        for path in output_paths)
    return RunManifest(
        command=tuple(str(part) for part in command),
        config_sha256=config.config_hash(),
        seed=seed,
        created_utc=datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        outputs=outputs,
    )


def write_manifest(manifest: RunManifest, path) -> Path:
    path = Path(path)
    path.write_text(manifest.to_json(indent=2) + "\n")
    return path


def manifest_path_for(output_path) -> Path:
    output_path = Path(output_path)
    return output_path.with_name(output_path.name + ".manifest.json")
