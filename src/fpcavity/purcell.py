"""Emitter-cavity coupling figures of merit.

The chain runs from the lossless single-mode Purcell factor through the
degradations a real emitter sees (branching, a cavity line much narrower
than the emitter line, residual length jitter, dipole orientation, standing
wave position) to the coupling rate, cooperativity and saturation scales.

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
    _require_positive,
    hz_to_angular,
    record,
)
from .optics import LossBudget, cavity_linewidth, finesse, mode_waist


def nominal_purcell(wavelength: float, finesse_value: float,
                    waist: float, refractive_index: float = 1.0) -> float:
    """Ideal single-mode Purcell factor for an emitter at a field antinode.

    F_P = (6 / pi^3) (lambda / n)^2 finesse / w0^2

    ``refractive_index`` rescales the emission wavelength for an emitter
    embedded in a bulk host; the default 1 describes coupling to the
    vacuum standing-wave field at the particle location.
    """
    if wavelength <= 0.0 or waist <= 0.0:
        raise ValueError("wavelength and waist must be positive")
    _require_positive("finesse", finesse_value)
    if refractive_index < 1.0:
        raise ValueError("refractive_index must be >= 1")
    reduced = wavelength / refractive_index
    return 6.0 / math.pi**3 * reduced**2 * finesse_value / waist**2


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
    if sigma_rms < 0.0:
        raise ValueError("sigma_rms must be >= 0")
    if wavelength <= 0.0 or finesse_value <= 0.0:
        raise ValueError("wavelength and finesse must be positive")
    if sigma_rms == 0.0:
        return 1.0
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
    if homogeneous_linewidth_fwhm < 0.0:
        raise ValueError("homogeneous_linewidth_fwhm must be >= 0")
    return cavity_linewidth_fwhm / (cavity_linewidth_fwhm
                                    + homogeneous_linewidth_fwhm)


@record
class CouplingDegradation(_JsonRecord):
    """Multiplicative degradations of the ideal Purcell factor.

    Each factor lives in [0, 1]; ``total`` is their product.  Build via
    :func:`degradation_factors` to fill the jitter and bad-emitter entries
    consistently from cavity parameters.
    """

    jitter_factor: float = 1.0
    bad_emitter_factor: float = 1.0
    orientation_factor: float = 1.0
    position_factor: float = 1.0

    def __post_init__(self):
        for name in ("jitter_factor", "bad_emitter_factor",
                     "orientation_factor", "position_factor"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    @property
    def total(self) -> float:
        return (self.jitter_factor * self.bad_emitter_factor
                * self.orientation_factor * self.position_factor)


def degradation_factors(transition: Transition,
                        cavity_linewidth_fwhm: float,
                        finesse_value: float | None = None,
                        jitter_sigma: float = 0.0,
                        orientation_factor: float = 1.0,
                        position_factor: float = 1.0) -> CouplingDegradation:
    """Assemble the degradation record for one transition.

    The bad-emitter factor comes from the cavity linewidth and the
    transition's homogeneous linewidth; the jitter factor needs the finesse
    to fix the resonance half width in length units.
    """
    if jitter_sigma > 0.0:
        if finesse_value is None:
            raise ValueError("finesse_value is required when jitter_sigma > 0")
        jitter = jitter_suppression(jitter_sigma, transition.wavelength,
                                    finesse_value)
    else:
        jitter = 1.0
    return CouplingDegradation(
        jitter_factor=jitter,
        bad_emitter_factor=bad_emitter_factor(
            cavity_linewidth_fwhm, transition.homogeneous_linewidth),
        orientation_factor=orientation_factor,
        position_factor=position_factor,
    )


def effective_purcell(transition: Transition, nominal: float,
                      degradation: CouplingDegradation | None = None) -> float:
    """Effective Purcell factor of one transition.

    branching_ratio * F_P * jitter * bad-emitter * orientation * position.
    With no degradation record the emitter is assumed ideal except for
    branching.
    """
    if nominal < 0.0:
        raise ValueError("nominal Purcell factor must be >= 0")
    factor = 1.0 if degradation is None else degradation.total
    return transition.branching_ratio * nominal * factor


def multimodal_sum(effective_values) -> float:
    """Total Purcell factor of independently enhanced transitions.

    Rate contributions add linearly; summed with ``math.fsum`` so the
    result does not depend on ordering.
    """
    values = list(effective_values)
    if any(v < 0.0 for v in values):
        raise ValueError("effective Purcell factors must be >= 0")
    return math.fsum(values)


def purcell_from_lifetimes(free_lifetime: float,
                           cavity_lifetime: float) -> float:
    """Effective Purcell factor implied by a lifetime reduction.

    F_eff = T1_free / T1_cavity - 1.  A cavity lifetime longer than the
    free-space one yields a negative value and a warning; that is a
    measurement inconsistency, not a valid operating point.
    """
    if free_lifetime <= 0.0 or cavity_lifetime <= 0.0:
        raise ValueError("lifetimes must be positive")
    value = free_lifetime / cavity_lifetime - 1.0
    if value < 0.0:
        warnings.warn("cavity lifetime exceeds free-space lifetime; "
                      "negative effective Purcell factor", stacklevel=2)
    return value


def cavity_lifetime(free_lifetime: float, effective: float) -> float:
    """Shortened excited-state lifetime T1 / (F_eff + 1)."""
    _require_positive("free_lifetime", free_lifetime)
    if effective < 0.0:
        raise ValueError("effective Purcell factor must be >= 0")
    return free_lifetime / (effective + 1.0)


def ideal_purcell_from_effective(effective: float,
                                 branching_ratio: float) -> float:
    """Back out the ideal Purcell factor a measured F_eff corresponds to."""
    if effective < 0.0:
        raise ValueError("effective Purcell factor must be >= 0")
    if not 0.0 < branching_ratio <= 1.0:
        raise ValueError("branching_ratio must be in (0, 1]")
    return effective / branching_ratio


def cavity_branching(effective: float, branching_ratio: float) -> float:
    """Fraction of decays emitting into the enhanced transition.

    (F_eff + zeta) / (F_eff + 1): cavity-stimulated decays plus the free
    branching of the same line, over the total enhanced decay rate.
    """
    if effective < 0.0:
        raise ValueError("effective Purcell factor must be >= 0")
    if not 0.0 < branching_ratio <= 1.0:
        raise ValueError("branching_ratio must be in (0, 1]")
    return (effective + branching_ratio) / (effective + 1.0)


def coupling_rate(effective: float, cavity_linewidth_fwhm: float,
                  homogeneous_linewidth_fwhm: float,
                  free_lifetime: float) -> float:
    """Emitter-cavity coupling rate g in ordinary-frequency Hz.

    g^2 = F_eff * gamma * (kappa + Gamma_h) / 4 with gamma = 1 / T1 and
    kappa, Gamma_h as angular rates; the result is converted back to Hz.
    """
    if effective < 0.0:
        raise ValueError("effective Purcell factor must be >= 0")
    _require_positive("free_lifetime", free_lifetime)
    kappa_ang = hz_to_angular(cavity_linewidth_fwhm)
    gamma_h_ang = hz_to_angular(homogeneous_linewidth_fwhm)
    if kappa_ang <= 0.0 or gamma_h_ang < 0.0:
        raise ValueError("linewidths must be positive")
    g_ang = math.sqrt(effective / free_lifetime
                      * (kappa_ang + gamma_h_ang) / 4.0)
    return g_ang / TWO_PI


def cooperativity(coupling_rate_hz: float, cavity_linewidth_fwhm: float,
                  homogeneous_linewidth_fwhm: float) -> float:
    """Single-emitter cooperativity C = 4 g^2 / ((kappa + Gamma_h) Gamma_h).

    All three rates are converted to angular units before combining.
    """
    if coupling_rate_hz < 0.0:
        raise ValueError("coupling rate must be >= 0")
    g_ang = hz_to_angular(coupling_rate_hz)
    kappa_ang = hz_to_angular(cavity_linewidth_fwhm)
    gamma_h_ang = hz_to_angular(homogeneous_linewidth_fwhm)
    if kappa_ang <= 0.0 or gamma_h_ang <= 0.0:
        raise ValueError("linewidths must be positive")
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
    if not 0.0 < branching_ratio <= 1.0:
        raise ValueError("branching_ratio must be in (0, 1]")
    _require_positive("wavelength", wavelength)
    gamma_h_ang = hz_to_angular(homogeneous_linewidth_fwhm)
    return (4.0 * math.pi**3 / 3.0 * HBAR * SPEED_OF_LIGHT * gamma_h_ang
            / (branching_ratio * wavelength**3))


def saturation_power(intensity: float, waist: float) -> float:
    """Power of a Gaussian mode whose peak intensity is ``intensity``.

    P = I * pi w0^2 / 2.
    """
    if intensity < 0.0:
        raise ValueError("intensity must be >= 0")
    _require_positive("waist", waist)
    return intensity * math.pi * waist**2 / 2.0


@record
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
        if not 0.0 < self.cavity_branching <= 1.0:
            raise ValueError("cavity_branching must be in (0, 1]")
        if self.cooperativity < 0.0:
            raise ValueError("cooperativity must be >= 0")

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
                    budget: LossBudget, jitter_sigma: float = 0.0,
                    orientation_factor: float = 1.0,
                    position_factor: float = 1.0,
                    refractive_index: float = 1.0) -> CouplingReport:
    """Compose the full coupling chain for one transition.

    The default arguments describe a best-case emitter: dipole aligned,
    sitting at an antinode, no length jitter.  Pass ``jitter_sigma`` to
    include the lock residual of a running cavity.
    """
    finesse_value = finesse(budget)
    waist = mode_waist(transition.wavelength, geometry.radius_of_curvature,
                       geometry.cavity_length)
    kappa = cavity_linewidth(geometry.cavity_length, budget)
    nominal = nominal_purcell(transition.wavelength, finesse_value, waist,
                              refractive_index)
    degradation = degradation_factors(
        transition, kappa, finesse_value=finesse_value,
        jitter_sigma=jitter_sigma, orientation_factor=orientation_factor,
        position_factor=position_factor)
    effective = effective_purcell(transition, nominal, degradation)
    ceiling = transition.branching_ratio * nominal
    if effective > ceiling * (1.0 + 1e-12):
        raise ValueError("effective Purcell factor exceeds its ceiling")
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
