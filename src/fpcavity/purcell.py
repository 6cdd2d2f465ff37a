"""Emitter-cavity coupling figures of merit.

The chain runs from the lossless single-mode Purcell factor through the
degradations every ion of a transition shares (branching, a cavity line
much narrower than the emitter line, residual length jitter) to the
coupling rate, cooperativity and saturation scales; :func:`coupling_report`
states it once.  Dipole orientation and standing-wave position differ from
ion to ion and are drawn in ``ensemble``.

Linewidths enter and leave in ordinary-frequency Hz (FWHM); conversions to
angular rates happen inside the formulas that need them.
"""
from __future__ import annotations

import math
import warnings

from .core import (
    HBAR,
    SPEED_OF_LIGHT,
    TWO_PI,
    CavityGeometry,
    Transition,
    _JsonRecord,
    _require_fraction,
    _require_non_negative,
    _require_positive,
    hz_to_angular,
)
from .optics import LossBudget, cavity_linewidth, finesse, mode_waist


def _require_effective(effective: float) -> None:
    """The effective Purcell factor's rule, which config applies at load."""
    _require_non_negative("effective Purcell factor", effective)


def nominal_purcell(wavelength: float, finesse_value: float,
                    waist: float) -> float:
    """Ideal single-mode Purcell factor for an emitter at a field antinode.

    F_P = (6 / pi^3) lambda^2 finesse / w0^2, with the vacuum wavelength:
    the emitter couples to the vacuum standing-wave field at the particle.
    """
    _require_positive("wavelength", wavelength)
    _require_positive("finesse", finesse_value)
    _require_positive("waist", waist)
    return 6.0 / math.pi**3 * wavelength**2 * finesse_value / waist**2


def _erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) erfc(x) for x >= 0.

    Below 25 the direct product is accurate to rounding.  Further out
    erfc heads for underflow and exp(x^2) for overflow, so the asymptotic
    series (Abramowitz & Stegun 7.1.23) takes over, truncated after the
    (2x^2)^-4 term; its error is below 4e-13 relative at 25 and falls as
    x^-10.
    """
    if x < 25.0:
        return math.exp(x * x) * math.erfc(x)
    t = 0.5 / (x * x)
    return (1.0 - t * (1.0 - 3.0 * t * (1.0 - 5.0 * t * (1.0 - 7.0 * t)))) \
        / (x * math.sqrt(math.pi))


def jitter_suppression(sigma_rms: float, wavelength: float,
                       finesse_value: float) -> float:
    """Purcell reduction from residual cavity length jitter.

    Expectation of the Lorentzian resonance factor 1 / (1 + (x / x_hw)^2)
    over a zero-mean Gaussian length error x of rms width ``sigma_rms``,
    where x_hw = lambda / (4 finesse) is the cavity half width in length
    units.  That expectation is the Voigt profile at zero detuning, with
    the closed form sqrt(pi/2) / r * erfcx(1 / (sqrt(2) r)) for
    r = sigma_rms / x_hw.
    """
    _require_non_negative("sigma_rms", sigma_rms)
    _require_positive("wavelength", wavelength)
    _require_positive("finesse", finesse_value)
    half_width = wavelength / (4.0 * finesse_value)
    ratio = sigma_rms / half_width
    if ratio < 1e-9:
        return 1.0
    return (math.sqrt(0.5 * math.pi) / ratio
            * _erfcx(1.0 / (math.sqrt(2.0) * ratio)))


def bad_emitter_factor(cavity_linewidth_fwhm: float,
                       homogeneous_linewidth_fwhm: float) -> float:
    """Overlap penalty kappa / (kappa + Gamma_h) for a broad emitter line.

    Approaches 1 when the cavity line dominates and suppresses the
    enhancement once the emitter line outgrows it.
    """
    _require_positive("cavity_linewidth_fwhm", cavity_linewidth_fwhm)
    _require_non_negative("homogeneous_linewidth_fwhm",
                          homogeneous_linewidth_fwhm)
    return cavity_linewidth_fwhm / (cavity_linewidth_fwhm
                                    + homogeneous_linewidth_fwhm)


def multimodal_sum(effective_values) -> float:
    """Total Purcell factor of independently enhanced transitions.

    Rate contributions add linearly; summed with ``math.fsum`` so the
    result does not depend on ordering.
    """
    values = list(effective_values)
    for value in values:
        _require_effective(value)
    return math.fsum(values)


def purcell_from_lifetimes(free_lifetime: float,
                           cavity_lifetime: float) -> float:
    """Effective Purcell factor implied by a lifetime reduction.

    F_eff = T1_free / T1_cavity - 1.  A cavity lifetime longer than the
    free-space one yields a negative value and a warning; that is a
    measurement inconsistency, not a valid operating point.
    """
    _require_positive("free_lifetime", free_lifetime)
    _require_positive("cavity_lifetime", cavity_lifetime)
    value = free_lifetime / cavity_lifetime - 1.0
    if value < 0.0:
        warnings.warn("cavity lifetime exceeds free-space lifetime; "
                      "negative effective Purcell factor", stacklevel=2)
    return value


def cavity_lifetime(free_lifetime: float, effective: float) -> float:
    """Shortened excited-state lifetime T1 / (F_eff + 1)."""
    _require_positive("free_lifetime", free_lifetime)
    _require_effective(effective)
    return free_lifetime / (effective + 1.0)


def ideal_purcell_from_effective(effective: float,
                                 branching_ratio: float) -> float:
    """Back out the ideal Purcell factor a measured F_eff corresponds to."""
    _require_effective(effective)
    _require_fraction("branching_ratio", branching_ratio)
    return effective / branching_ratio


def cavity_branching(effective: float, branching_ratio: float) -> float:
    """Fraction of decays emitting into the enhanced transition.

    (F_eff + zeta) / (F_eff + 1): cavity-stimulated decays plus the free
    branching of the same line, over the total enhanced decay rate.
    """
    _require_effective(effective)
    _require_fraction("branching_ratio", branching_ratio)
    return (effective + branching_ratio) / (effective + 1.0)


def coupling_rate(effective: float, cavity_linewidth_fwhm: float,
                  homogeneous_linewidth_fwhm: float,
                  free_lifetime: float) -> float:
    """Emitter-cavity coupling rate g in ordinary-frequency Hz.

    g^2 = F_eff * gamma * (kappa + Gamma_h) / 4 with gamma = 1 / T1 and
    kappa, Gamma_h as angular rates; the result is converted back to Hz.
    """
    _require_effective(effective)
    _require_positive("cavity_linewidth_fwhm", cavity_linewidth_fwhm)
    _require_non_negative("homogeneous_linewidth_fwhm",
                          homogeneous_linewidth_fwhm)
    _require_positive("free_lifetime", free_lifetime)
    kappa_ang = hz_to_angular(cavity_linewidth_fwhm)
    gamma_h_ang = hz_to_angular(homogeneous_linewidth_fwhm)
    g_ang = math.sqrt(effective / free_lifetime
                      * (kappa_ang + gamma_h_ang) / 4.0)
    return g_ang / TWO_PI


def cooperativity(coupling_rate_hz: float, cavity_linewidth_fwhm: float,
                  homogeneous_linewidth_fwhm: float) -> float:
    """Single-emitter cooperativity C = 4 g^2 / ((kappa + Gamma_h) Gamma_h).

    All three rates are converted to angular units before combining.
    """
    _require_non_negative("coupling_rate_hz", coupling_rate_hz)
    _require_positive("cavity_linewidth_fwhm", cavity_linewidth_fwhm)
    _require_positive("homogeneous_linewidth_fwhm",
                      homogeneous_linewidth_fwhm)
    g_ang = hz_to_angular(coupling_rate_hz)
    kappa_ang = hz_to_angular(cavity_linewidth_fwhm)
    gamma_h_ang = hz_to_angular(homogeneous_linewidth_fwhm)
    return 4.0 * g_ang**2 / ((kappa_ang + gamma_h_ang) * gamma_h_ang)


def saturation_intensity(homogeneous_linewidth_fwhm: float,
                         branching_ratio: float, wavelength: float) -> float:
    """Saturation intensity (W/m^2) of a weakly branching transition.

    I_sat = (4 pi^3 / 3) hbar c Gamma_h / (zeta lambda^3) with Gamma_h as
    an angular rate.  The branching ratio in the denominator reflects that
    only a small fraction of the decay returns through the driven line.
    """
    _require_positive("homogeneous_linewidth_fwhm",
                      homogeneous_linewidth_fwhm)
    _require_fraction("branching_ratio", branching_ratio)
    _require_positive("wavelength", wavelength)
    gamma_h_ang = hz_to_angular(homogeneous_linewidth_fwhm)
    return (4.0 * math.pi**3 / 3.0 * HBAR * SPEED_OF_LIGHT * gamma_h_ang
            / (branching_ratio * wavelength**3))


def saturation_power(intensity: float, waist: float) -> float:
    """Power of a Gaussian mode whose peak intensity is ``intensity``.

    P = I * pi w0^2 / 2.
    """
    _require_non_negative("intensity", intensity)
    _require_positive("waist", waist)
    return intensity * math.pi * waist**2 / 2.0


class CouplingReport(_JsonRecord):
    """Coupling summary of one transition in one cavity configuration."""

    wavelength: float
    nominal_purcell: float
    effective_purcell: float
    coupling_rate: float
    cavity_linewidth: float
    homogeneous_linewidth: float
    cooperativity: float
    cavity_branching: float

    def __post_init__(self):
        _require_fraction("cavity_branching", self.cavity_branching)
        _require_non_negative("cooperativity", self.cooperativity)

    def to_table_row(self) -> dict:
        """Flat summary row: wavelength, g, kappa, gamma_h, f_eff, C."""
        return {
            "wavelength": self.wavelength,
            "g": self.coupling_rate,
            "kappa": self.cavity_linewidth,
            "gamma_h": self.homogeneous_linewidth,
            "f_eff": self.effective_purcell,
            "cooperativity": self.cooperativity,
        }


def coupling_report(transition: Transition, geometry: CavityGeometry,
                    budget: LossBudget,
                    jitter_sigma: float = 0.0) -> CouplingReport:
    """Compose the full coupling chain for one transition.

    F_eff = branching * F_P * (jitter * bad-emitter) for an ion at a field
    antinode with its dipole on the cavity polarization; orientation and
    position are ensemble draws (see ``ensemble``).  The default
    ``jitter_sigma`` 0 is the best case; pass the geometry's
    ``rms_length_jitter`` for the lock residual of a running cavity.
    """
    finesse_value = finesse(budget)
    waist = mode_waist(transition.wavelength, geometry.radius_of_curvature,
                       geometry.cavity_length)
    kappa = cavity_linewidth(geometry.cavity_length, budget)
    nominal = nominal_purcell(transition.wavelength, finesse_value, waist)
    effective = transition.branching_ratio * nominal * (
        jitter_suppression(jitter_sigma, transition.wavelength, finesse_value)
        * bad_emitter_factor(kappa, transition.homogeneous_linewidth))
    g = coupling_rate(effective, kappa, transition.homogeneous_linewidth,
                      transition.free_space_lifetime)
    return CouplingReport(
        wavelength=transition.wavelength,
        nominal_purcell=nominal,
        effective_purcell=effective,
        coupling_rate=g,
        cavity_linewidth=kappa,
        homogeneous_linewidth=transition.homogeneous_linewidth,
        cooperativity=cooperativity(g, kappa,
                                    transition.homogeneous_linewidth),
        cavity_branching=cavity_branching(effective,
                                          transition.branching_ratio),
    )


def jittered_purcell(transition: Transition, geometry: CavityGeometry,
                     loaded: LossBudget) -> float:
    """One channel's strength, as ``ensemble`` and ``planner`` take it: the
    effective Purcell factor on a budget loaded with the particle's
    scattering, under the geometry's rms length jitter."""
    return coupling_report(transition, geometry, loaded,
                           geometry.rms_length_jitter).effective_purcell
