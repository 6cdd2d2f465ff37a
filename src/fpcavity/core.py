"""Shared value types, constants and unit conventions.

Unit conventions used across the package:

* lengths in m, times in s, powers in W, intensities in W/m^2
* frequencies and linewidths in ordinary-frequency Hz; every linewidth is a
  full width at half maximum (FWHM), never a half width
* angular rates (rad/s) never cross a function boundary; formulas that need
  them convert at the point of use via :func:`hz_to_angular`
* mirror and scattering losses are dimensionless and carried in parts per
  million (ppm)

All types are immutable and serialize to JSON with the field names below,
verbatim.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

TOOLKIT_VERSION = "0.1.0"

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact
HBAR = 1.054_571_817e-34  # J s
TWO_PI = 2.0 * math.pi

# cation site density of the cubic yttria host
YTTRIA_CATION_DENSITY = 5.34e28  # m^-3


class NumericalError(RuntimeError):
    """An internal numerical routine failed to produce a finite result."""


def hz_to_angular(frequency):
    """Ordinary frequency (Hz) to angular rate (rad/s)."""
    return TWO_PI * frequency


def wavelength_to_frequency(wavelength: float) -> float:
    """Vacuum wavelength (m) to optical frequency (Hz)."""
    if wavelength <= 0.0:
        raise ValueError("wavelength must be positive")
    return SPEED_OF_LIGHT / wavelength


def frequency_to_wavelength(frequency: float) -> float:
    """Optical frequency (Hz) to vacuum wavelength (m)."""
    if frequency <= 0.0:
        raise ValueError("frequency must be positive")
    return SPEED_OF_LIGHT / frequency


def linewidth_to_coherence_time(fwhm: float) -> float:
    """Coherence time 1/(pi * FWHM) of a Lorentzian line of width ``fwhm`` Hz."""
    if fwhm <= 0.0:
        raise ValueError("linewidth must be positive")
    return 1.0 / (math.pi * fwhm)


class _JsonRecord:
    """JSON serialization helpers shared by the value types."""

    # Empty, so a subclass that declares slots carries no ``__dict__``.
    __slots__ = ()

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


def _require_finite(record) -> None:
    """Reject a NaN or infinite number in any field of a value type."""
    for name, value in vars(record).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class Transition(_JsonRecord):
    """One optical transition of the emitter.

    wavelength: vacuum wavelength (m)
    branching_ratio: fraction of spontaneous decay through this transition
    homogeneous_linewidth: FWHM (Hz), bounded below by the lifetime limit
    free_space_lifetime: excited-state lifetime T1 away from the cavity (s)
    """

    wavelength: float
    branching_ratio: float
    homogeneous_linewidth: float
    free_space_lifetime: float

    def __post_init__(self):
        _require_finite(self)
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")
        if not 0.0 < self.branching_ratio <= 1.0:
            raise ValueError("branching_ratio must be in (0, 1]")
        if self.free_space_lifetime <= 0.0:
            raise ValueError("free_space_lifetime must be positive")
        floor = 1.0 / (TWO_PI * self.free_space_lifetime)
        if self.homogeneous_linewidth < floor:
            raise ValueError(
                "homogeneous_linewidth is below the lifetime limit "
                f"1/(2 pi T1) = {floor:.3g} Hz"
            )

    @property
    def frequency(self) -> float:
        return wavelength_to_frequency(self.wavelength)


@dataclass(frozen=True)
class CavityGeometry(_JsonRecord):
    """Plano-concave cavity geometry.

    radius_of_curvature: concave mirror radius (m)
    cavity_length: mirror separation (m), must stay inside the stability range
    mode_order: longitudinal mode number q of the design resonance
    rms_length_jitter: residual rms length noise of the lock (m)
    """

    radius_of_curvature: float
    cavity_length: float
    mode_order: int
    rms_length_jitter: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.radius_of_curvature <= 0.0:
            raise ValueError("radius_of_curvature must be positive")
        if not 0.0 < self.cavity_length < self.radius_of_curvature:
            raise ValueError(
                "cavity_length must lie in (0, radius_of_curvature) for a "
                "stable plano-concave resonator"
            )
        if int(self.mode_order) != self.mode_order or self.mode_order < 1:
            raise ValueError("mode_order must be a positive integer")
        if self.rms_length_jitter < 0.0:
            raise ValueError("rms_length_jitter must be >= 0")


@dataclass(frozen=True)
class Nanoparticle(_JsonRecord):
    """Doped dielectric nanosphere resting on the flat mirror.

    diameter: m
    dopant_concentration: dopant fraction of cation sites, in (0, 1)
    cation_density: host cation site density (m^-3)
    refractive_index: bulk index of the particle host
    """

    diameter: float
    dopant_concentration: float
    cation_density: float = YTTRIA_CATION_DENSITY
    refractive_index: float = 1.93

    def __post_init__(self):
        _require_finite(self)
        if self.diameter <= 0.0:
            raise ValueError("diameter must be positive")
        if not 0.0 < self.dopant_concentration < 1.0:
            raise ValueError("dopant_concentration must be in (0, 1)")
        if self.cation_density <= 0.0:
            raise ValueError("cation_density must be positive")
        if self.refractive_index < 1.0:
            raise ValueError("refractive_index must be >= 1")

    @property
    def volume(self) -> float:
        return math.pi / 6.0 * self.diameter**3
