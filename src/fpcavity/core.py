"""Shared value types, constants and unit conventions.

Unit conventions used across the package:

* lengths in m, times in s, powers in W, intensities in W/m^2
* frequencies and linewidths in ordinary-frequency Hz; every linewidth is a
  full width at half maximum (FWHM), never a half width
* angular rates (rad/s) never cross a function boundary; formulas that need
  them convert at the point of use via :func:`hz_to_angular`
* mirror and scattering losses are dimensionless and carried in parts per
  million (ppm)

All types are immutable values and serialize to JSON with the field names
below, verbatim; ``to_dict`` is a deep copy of the fields, and
:func:`_json_text` writes it, each NaN or infinity as ``null``.  Each is a
:class:`_Record` subclass that annotates its fields; its methods come from
that base, and ``__match_args__`` names its fields.  :func:`replace` is
the one way to vary a record, with its checks run again.

The vocabulary the run configuration checks lives here too, so loading a
config needs no numpy: the plan modes and their rules, the detection
chain, and the noise models.  ``planner`` and ``spectra`` re-export it.
So does the rule naming a trace's JSON sidecar, which ``trace`` re-exports.
"""
from __future__ import annotations

import copy
import json
import math
from pathlib import Path

TOOLKIT_VERSION = "0.1.0"

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact
HBAR = 1.054_571_817e-34  # J s
TWO_PI = 2.0 * math.pi

# cation site density of the cubic yttria host
YTTRIA_CATION_DENSITY = 5.34e28  # m^-3
# largest particle diameter (m): the Rayleigh D^6 loss needs D << lambda
MAX_DIAMETER = 1e-6
# largest cation site density (m^-3), above that of any solid
MAX_CATION_DENSITY = 1e30

# cavity operating modes of the detection plan; see ``planner``
PLAN_MODES = ("contact", "open_single", "open_double")
_OPEN_MODES = ("open_single", "open_double")
# mirror separation (m) of the contact mode
CONTACT_LENGTH = 2.5e-6

# noise models of the simulated traces; see ``spectra``
NOISE_MODELS = ("none", "poisson")


class NumericalError(RuntimeError):
    """An internal numerical routine failed to produce a finite result."""


def hz_to_angular(frequency):
    """Ordinary frequency (Hz) to angular rate (rad/s)."""
    return TWO_PI * frequency


def wavelength_to_frequency(wavelength: float) -> float:
    """Vacuum wavelength (m) to optical frequency (Hz)."""
    _require_positive("wavelength", wavelength)
    return SPEED_OF_LIGHT / wavelength


def frequency_to_wavelength(frequency: float) -> float:
    """Optical frequency (Hz) to vacuum wavelength (m)."""
    _require_positive("frequency", frequency)
    return SPEED_OF_LIGHT / frequency


def linewidth_to_coherence_time(fwhm: float) -> float:
    """Coherence time 1/(pi * FWHM) of a Lorentzian line of width ``fwhm`` Hz."""
    _require_positive("linewidth", fwhm)
    return 1.0 / (math.pi * fwhm)


def sidecar_path(csv_path) -> Path:
    """JSON sidecar path for a trace CSV."""
    return Path(csv_path).with_suffix(".json")


def written_sidecar_path(path) -> Path:
    """The sidecar path of a trace to be written at ``path``; a ``path``
    ending in ``.json`` is its own sidecar path and raises ``ValueError``."""
    side = sidecar_path(path)
    if side == Path(path):
        raise ValueError(f"trace path {path} is its own sidecar path")
    return side


class _Record:
    """A frozen value.  A subclass that annotates fields is a record of
    them, in order, each with its class attribute as the default;
    ``__match_args__`` names them.  ``__post_init__``, if defined, checks a
    new record; unpickling and copying rebuild one through ``__init__``.
    Assignment raises ``FrozenInstanceError``."""

    def __init_subclass__(cls):
        if fields := cls.__annotations__:  # the class's own, not its bases'
            cls.__match_args__ = tuple(fields)

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            args = _bind(type(self), args, kwargs)
        self.__dict__.update(zip(names, args))
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__match_args__, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def _bind(cls, args: tuple, kwargs: dict) -> list:
    """Field values in order: the arguments, else the field defaults,
    which are class attributes."""
    names = cls.__match_args__
    defaults = vars(cls)
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
    if len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments")
    if kwargs:
        raise TypeError(f"{cls.__qualname__}() got an unexpected or repeated "
                        f"argument {next(iter(kwargs))!r}")
    return values


def replace(record, **changes):
    """``record`` with ``changes``, rebuilt through its constructor so that
    ``__post_init__`` checks it again."""
    return type(record)(**dict(zip(record.__match_args__, record._values()),
                               **changes))


class _JsonRecord(_Record):
    """A record that serializes to JSON through :func:`_json_text`."""

    def to_dict(self) -> dict:
        """A deep copy of the fields, none of which is a record."""
        return copy.deepcopy(vars(self))


def _json_text(data) -> str:
    """``data`` as the toolkit writes every JSON report and file: sorted
    keys, a two-space indent, a final newline, and each NaN or infinite
    float as ``null``, which JSON has no other way to write."""
    return json.dumps(_finite(data), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _finite(data):
    """``data`` with None for each non-finite float in it."""
    if isinstance(data, float):
        return data if math.isfinite(data) else None
    if isinstance(data, dict):
        return {key: _finite(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [_finite(value) for value in data]
    return data


def _require_finite(**values) -> None:
    """Reject a NaN or infinite real scalar (numpy's and 0-d arrays too)
    among the named values; a value type passes ``**vars(self)``."""
    for name, value in values.items():
        if not isinstance(value, float):
            if isinstance(value, int) or getattr(value, "ndim", 0) \
                    or not hasattr(value, "__float__"):
                continue
            value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


def _require_positive(name: str, value: float) -> None:
    """Reject a value that is not a finite number above zero."""
    if not 0.0 < value < math.inf:
        _require_finite(**{name: value})
        raise ValueError(f"{name} must be positive")


def _require_non_negative(name: str, value: float) -> None:
    """Reject a value that is not a finite number >= 0."""
    if not 0.0 <= value < math.inf:
        _require_finite(**{name: value})
        raise ValueError(f"{name} must be >= 0")


def _require_fraction(name: str, value: float) -> None:
    """Reject a value outside (0, 1]."""
    if not 0.0 < value <= 1.0:
        _require_finite(**{name: value})
        raise ValueError(f"{name} must be in (0, 1]")


def _require_probability(name: str, value: float) -> None:
    """Reject a value outside [0, 1]."""
    if not 0.0 <= value <= 1.0:
        _require_finite(**{name: value})
        raise ValueError(f"{name} must be in [0, 1]")


def _require_count(name: str, value, minimum: int) -> None:
    """Reject a count below ``minimum``, or one that is NaN or infinite
    (ValueError), and a number in range that is not an integer, or is a
    bool, as the config does (TypeError)."""
    if not minimum <= value < math.inf:
        _require_finite(**{name: value})
        raise ValueError(f"{name} must be >= {minimum}")
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer")


def _require_diameter(name: str, value: float) -> None:
    """Reject a particle diameter outside (0, ``MAX_DIAMETER``]."""
    if not 0.0 < value <= MAX_DIAMETER:
        _require_finite(**{name: value})
        raise ValueError(f"{name} must be in (0, {MAX_DIAMETER:g}] m")


def _require_each(name: str, values, rule=None) -> None:
    """Require every entry of a numpy array to be finite and to pass the
    scalar ``rule``, if one is given: the extremes carry any NaN, infinite
    or out-of-domain entry, and 1.0 passes every rule."""
    for extreme in (values.min(initial=1.0), values.max(initial=1.0)):
        _require_finite(**{name: extreme})
        if rule is not None:
            rule(name, extreme)


def _require_stable(cavity_length: float, radius_of_curvature: float) -> None:
    """Reject a plano-concave cavity outside its stability range."""
    _require_positive("radius_of_curvature", radius_of_curvature)
    if not 0.0 < cavity_length < radius_of_curvature:
        raise ValueError("cavity_length must lie in (0, radius_of_curvature) "
                         "for a stable plano-concave resonator")


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
        _require_finite(**vars(self))
        _require_positive("wavelength", self.wavelength)
        _require_fraction("branching_ratio", self.branching_ratio)
        _require_positive("free_space_lifetime", self.free_space_lifetime)
        floor = 1.0 / (TWO_PI * self.free_space_lifetime)
        if self.homogeneous_linewidth < floor:
            raise ValueError(
                "homogeneous_linewidth is below the lifetime limit "
                f"1/(2 pi T1) = {floor:.3g} Hz"
            )

    @property
    def frequency(self) -> float:
        return wavelength_to_frequency(self.wavelength)


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
        _require_finite(**vars(self))
        _require_stable(self.cavity_length, self.radius_of_curvature)
        _require_count("mode_order", self.mode_order, 1)
        _require_non_negative("rms_length_jitter", self.rms_length_jitter)


class Nanoparticle(_JsonRecord):
    """Doped dielectric nanosphere resting on the flat mirror.

    diameter: m, at most ``MAX_DIAMETER``
    dopant_concentration: dopant fraction of cation sites, in (0, 1)
    cation_density: host cation site density (m^-3), at most
    ``MAX_CATION_DENSITY``
    """

    diameter: float
    dopant_concentration: float
    cation_density: float = YTTRIA_CATION_DENSITY

    def __post_init__(self):
        _require_finite(**vars(self))
        _require_diameter("diameter", self.diameter)
        if not 0.0 < self.dopant_concentration < 1.0:
            raise ValueError("dopant_concentration must be in (0, 1)")
        if not 0.0 < self.cation_density <= MAX_CATION_DENSITY:
            raise ValueError("cation_density must be in "
                             f"(0, {MAX_CATION_DENSITY:g}] m^-3")

    @property
    def volume(self) -> float:
        return math.pi / 6.0 * self.diameter**3


class DetectionChain(_JsonRecord):
    """Photon path from the cavity output to counted clicks.

    path_transmission: fiber and filter transmission (fraction)
    detector_efficiency: detector quantum efficiency (fraction)
    dark_rate: detector dark counts (counts/s)
    """

    path_transmission: float
    detector_efficiency: float
    dark_rate: float

    def __post_init__(self):
        _require_fraction("path_transmission", self.path_transmission)
        _require_fraction("detector_efficiency", self.detector_efficiency)
        _require_non_negative("dark_rate", self.dark_rate)


def _check_mode(mode: str, transitions) -> None:
    """Reject a mode that is unknown or that ``transitions`` cannot fill."""
    if mode not in PLAN_MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {PLAN_MODES}")
    if mode in _OPEN_MODES and len(transitions) != 2:
        raise ValueError(f"mode {mode!r} needs exactly two transitions")


def _check_budgets(transitions, budgets) -> None:
    """Reject bare loss budgets that are not one per transition."""
    if len(budgets) != len(transitions):
        raise ValueError("need one budget per transition")


def _shared_lifetime(transitions) -> float:
    """The excited-state lifetime that ``transitions`` share, to 1e-9."""
    lifetimes = {t.free_space_lifetime for t in transitions}
    first = next(iter(lifetimes))
    if any(abs(t - first) > 1e-9 * first for t in lifetimes):
        raise ValueError("transitions must share one excited-state lifetime")
    return first


def _detection_window(repetition_rate: float,
                      excitation_time: float) -> float:
    """What the excitation pulse leaves of one repetition period."""
    _require_positive("repetition_rates", repetition_rate)
    window = 1.0 / repetition_rate - excitation_time
    if not window > 0.0:
        raise ValueError("repetition period must exceed the excitation time")
    return window
