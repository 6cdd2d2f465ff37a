"""Run configuration and manifests.

A run is described by one JSON document holding the full parameter tree:
transitions, cavity geometry, mirror loss budgets, nanoparticle, detection
chain, pulse timing, Monte Carlo settings, sweep grids, and the seed.
:class:`RunConfig` validates the document by feeding every section through
the domain-model constructors before any computation happens, and hashes
its canonical serialization so a result can be tied to the exact inputs
that produced it.

:class:`RunManifest` is the record written next to every output: config
hash, toolkit version, seed, creation time, and the output files with
their checksums.  Re-running the same command with the same config and
seed reproduces the data files byte for byte; the manifest's timestamp is
the only field that differs between such runs.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
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


def valid_seed(value) -> bool:
    """The seed rule for config files and ``--seed``: a non-negative int."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def _section(data: dict, key: str, kind=dict):
    try:
        value = data[key]
    except KeyError:
        raise ConfigError(f"{key}: section is missing") from None
    if not isinstance(value, kind):
        raise ConfigError(f"{key}: expected {kind.__name__}")
    return value


def _check_finite(value, path: str) -> None:
    """Reject a NaN or infinite number anywhere under ``value``."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite(item, f"{path}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite")


def _build(path: str, constructor, fields: dict):
    if not isinstance(fields, dict):
        raise ConfigError(f"{path}: expected an object")
    try:
        return constructor(**fields)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


class RunConfig:
    """Validated parameter tree for one toolkit run.

    Construction walks the whole document through the domain constructors,
    so any reported error carries the path of the offending field and no
    computation ever sees an unchecked number.
    """

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        _check_finite(data, "")
        self._data = data
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
        seed = data.get("seed", 0)
        if not valid_seed(seed):
            raise ConfigError("seed: must be a non-negative integer")
        self.seed: int = seed

        raw_transitions = _section(data, "transitions", list)
        if not raw_transitions:
            raise ConfigError("transitions: must not be empty")
        self.transitions = tuple(
            _build(f"transitions[{i}]", Transition, entry)
            for i, entry in enumerate(raw_transitions))

        raw_budgets = _section(data, "loss_budgets", list)
        if len(raw_budgets) != len(raw_transitions):
            raise ConfigError("loss_budgets: need one budget per transition")
        self.loss_budgets = tuple(
            _build(f"loss_budgets[{i}]", LossBudget, entry)
            for i, entry in enumerate(raw_budgets))

        self.geometry = _build("geometry", CavityGeometry,
                               _section(data, "geometry"))
        self.nanoparticle = _build("nanoparticle", Nanoparticle,
                                   _section(data, "nanoparticle"))
        self.detection = _build("detection", DetectionChain,
                                _section(data, "detection"))

        pulse = _section(data, "pulse")
        self.excitation_time = self._positive(pulse, "pulse",
                                              "excitation_time")
        self.excited_population = self._positive(pulse, "pulse",
                                                 "excited_population")
        if self.excited_population > 1.0:
            raise ConfigError("pulse.excited_population: must be <= 1")

        mc = _section(data, "monte_carlo")
        self.mc_samples = self._count(mc, "monte_carlo", "n_samples", 2)
        self.antinode_offset_fraction = self._positive(
            mc, "monte_carlo", "antinode_offset_fraction")

        ion = _section(data, "ion_estimate")
        self.ion_diameter = self._positive(ion, "ion_estimate", "diameter")
        self.ion_inhomogeneous_fwhm = self._positive(
            ion, "ion_estimate", "inhomogeneous_fwhm")
        self.ion_probe_bandwidth = self._positive(
            ion, "ion_estimate", "probe_bandwidth")
        self.ion_draws = self._count(ion, "ion_estimate", "n_draws", 2)

        plan = _section(data, "plan")
        self.plan_diameters = self._number_list(plan, "plan", "diameters")
        self.plan_repetition_rates = self._number_list(
            plan, "plan", "repetition_rates")
        modes = _section(plan, "modes", list)
        for mode in modes:
            if mode not in PLAN_MODES:
                raise ConfigError(f"plan.modes: unknown mode {mode!r}")
        if not modes:
            raise ConfigError("plan.modes: must not be empty")
        self.plan_modes = tuple(modes)
        self.plan_integration_time = self._positive(plan, "plan",
                                                    "integration_time")

        self.simulate = _section(data, "simulate")
        for kind, params in self.simulate.items():
            if not isinstance(params, dict):
                raise ConfigError(f"simulate.{kind}: expected an object")

    @staticmethod
    def _positive(section: dict, path: str, key: str) -> float:
        value = section.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or value <= 0.0:
            raise ConfigError(f"{path}.{key}: must be a positive number")
        return float(value)

    @staticmethod
    def _count(section: dict, path: str, key: str, minimum: int) -> int:
        value = section.get(key)
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < minimum:
            raise ConfigError(f"{path}.{key}: must be an integer "
                              f">= {minimum}")
        return value

    @staticmethod
    def _number_list(section: dict, path: str, key: str) -> tuple:
        values = section.get(key)
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{path}.{key}: must be a non-empty list")
        out = []
        for i, value in enumerate(values):
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or value <= 0.0:
                raise ConfigError(f"{path}.{key}[{i}]: must be a positive "
                                  "number")
            out.append(float(value))
        return tuple(out)

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

    @property
    def data(self) -> dict:
        return self._data

    def simulate_params(self, kind: str) -> dict:
        try:
            return dict(self.simulate[kind])
        except KeyError:
            raise ConfigError(
                f"simulate.{kind}: no parameters configured") from None

    def canonical_json(self) -> str:
        return json.dumps(self._data, sort_keys=True,
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
