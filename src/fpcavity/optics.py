"""Gaussian-mode resonator optics and the mirror loss budget.

Everything here is geometry and loss bookkeeping: spectral quantities of the
bare resonator, the fundamental mode waist, the two-color resonance condition
and the Rayleigh scattering penalty of a nanoparticle placed on the flat
mirror.  Linewidths are FWHM in Hz, losses are ppm per round trip.
"""
from __future__ import annotations

import math

from .core import (SPEED_OF_LIGHT, TWO_PI, _JsonRecord, _require_count,
                   _require_each, _require_finite, _require_non_negative,
                   _require_positive, _require_stable, replace,
                   wavelength_to_frequency)

# Rayleigh scattering reference point: loss of a single reference-size
# particle at the reference wavelength, scaling with d^6 and lambda^-4.
RAYLEIGH_REFERENCE_LOSS_PPM = 13.0
RAYLEIGH_REFERENCE_DIAMETER = 60e-9  # m
RAYLEIGH_REFERENCE_WAVELENGTH = 580.8e-9  # m
RAYLEIGH_WAVELENGTH_EXPONENT = -4.0

MAX_MODE_ORDER = 200  # highest longitudinal order double_resonance accepts


class LossBudget(_JsonRecord):
    """Round-trip loss budget of the cavity in ppm.

    transmission_in: input (fiber) mirror transmission
    transmission_out: output (flat) mirror transmission
    absorption_scatter: combined mirror absorption and surface scatter
    particle_scatter: a nanoparticle's scattering, set by loaded_budget
    """

    transmission_in: float
    transmission_out: float
    absorption_scatter: float
    particle_scatter: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            _require_non_negative(name, value)
        _require_positive("total loss", self.total)

    @property
    def total(self) -> float:
        """Total round-trip loss in ppm."""
        return (self.transmission_in + self.transmission_out
                + self.absorption_scatter + self.particle_scatter)

    @property
    def total_fraction(self) -> float:
        """Total round-trip loss as a dimensionless fraction."""
        return self.total * 1e-6


class DoubleResonance(_JsonRecord):
    """Joint resonance of two wavelengths in the same cavity.

    cavity_length: m; mode_order_1/2: longitudinal orders of the short and
    long wavelength; residual_detuning: leftover offset of the long
    wavelength from its nearest mode (Hz).
    """

    cavity_length: float
    mode_order_1: int
    mode_order_2: int
    residual_detuning: float


def free_spectral_range(cavity_length: float) -> float:
    """FSR = c / (2 d) in Hz."""
    _require_positive("cavity_length", cavity_length)
    return SPEED_OF_LIGHT / (2.0 * cavity_length)


def mode_waist(wavelength: float, radius_of_curvature: float,
               cavity_length: float) -> float:
    """Fundamental mode waist on the flat mirror of a plano-concave cavity.

    w0^2 = (lambda / pi) * sqrt(d (R - d)).  Grows with length up to
    d = R/2 and shrinks again beyond; only 0 < d < R is stable.

    Parameters
    ----------
    wavelength : vacuum wavelength (m)
    radius_of_curvature : concave mirror radius R (m)
    cavity_length : mirror separation d (m)
    """
    _require_positive("wavelength", wavelength)
    _require_stable(cavity_length, radius_of_curvature)
    w0_sq = wavelength / math.pi * math.sqrt(
        cavity_length * (radius_of_curvature - cavity_length))
    return math.sqrt(w0_sq)


def resonance_length(wavelength: float, mode_order: int) -> float:
    """Geometric length of longitudinal mode q: d = q lambda / 2.

    The mirrors are treated as hard boundaries, without field penetration
    into the coatings.
    """
    _require_positive("wavelength", wavelength)
    _require_count("mode_order", mode_order, 1)
    return mode_order * wavelength / 2.0


def double_resonance(wavelength_1: float,
                     wavelength_2: float) -> DoubleResonance:
    """Shortest cavity resonant with both wavelengths at adjacent orders.

    Modes q and q - 1 coincide for the two colors when
    q = round(lambda_2 / (lambda_2 - lambda_1)) with lambda_2 > lambda_1.
    The returned length makes mode q exactly resonant at lambda_1; the
    leftover offset of lambda_2 from mode q - 1 is reported as
    ``residual_detuning`` (Hz).  Orders above ``MAX_MODE_ORDER`` are
    rejected.
    """
    _require_finite(wavelength_2=wavelength_2)
    if not 0.0 < wavelength_1 < wavelength_2:
        raise ValueError("need 0 < wavelength_1 < wavelength_2")
    q = round(wavelength_2 / (wavelength_2 - wavelength_1))
    if q < 2:
        raise ValueError("wavelengths too far apart: no adjacent-order "
                         "double resonance exists")
    if q > MAX_MODE_ORDER:
        raise ValueError(
            f"no double resonance at mode order <= {MAX_MODE_ORDER} "
            f"(would need q = {q})")
    length = resonance_length(wavelength_1, q)
    fsr = free_spectral_range(length)
    residual = wavelength_to_frequency(wavelength_2) - (q - 1) * fsr
    return DoubleResonance(cavity_length=length, mode_order_1=q,
                           mode_order_2=q - 1, residual_detuning=residual)


def finesse(budget: LossBudget) -> float:
    """F = 2 pi / total round-trip loss."""
    return TWO_PI / budget.total_fraction


def cavity_linewidth(cavity_length: float, budget: LossBudget) -> float:
    """Cavity energy decay linewidth kappa = FSR / finesse, FWHM in Hz."""
    return free_spectral_range(cavity_length) / finesse(budget)


def particle_scattering_loss(diameter: float,
                             wavelength: float = RAYLEIGH_REFERENCE_WAVELENGTH
                             ) -> float:
    """Round-trip Rayleigh scattering loss of one nanoparticle, in ppm.

    Scales as diameter^6 and wavelength^-4 from the calibrated reference
    particle (13 ppm for 60 nm at 580.8 nm).
    """
    _require_positive("diameter", diameter)
    _require_positive("wavelength", wavelength)
    size = diameter / RAYLEIGH_REFERENCE_DIAMETER
    color = wavelength / RAYLEIGH_REFERENCE_WAVELENGTH
    return (RAYLEIGH_REFERENCE_LOSS_PPM * size**6
            * color**RAYLEIGH_WAVELENGTH_EXPONENT)


def loaded_budget(budget: LossBudget, diameter: float,
                  wavelength: float) -> LossBudget:
    """Bare-cavity ``budget`` with a nanoparticle's scattering loss at
    ``wavelength`` added."""
    return replace(budget, particle_scatter=particle_scattering_loss(
        diameter, wavelength))


def outcoupling_efficiency(budget: LossBudget) -> float:
    """Fraction of cavity photons leaving through the output mirror.

    transmission_out over the total round-trip loss of the same budget.
    """
    return budget.transmission_out / budget.total


def lorentzian_suppression(detuning_in_hwhm: float) -> float:
    """Lorentzian response 1 / (1 + x^2) at x half-widths of detuning."""
    _require_finite(detuning_in_hwhm=detuning_in_hwhm)
    if getattr(detuning_in_hwhm, "ndim", 0):  # each entry of a numpy array
        _require_each("detuning_in_hwhm", detuning_in_hwhm)
    try:
        return 1.0 / (1.0 + detuning_in_hwhm**2)
    except OverflowError:  # a square past the float range; numpy gives 0.0
        return 0.0
