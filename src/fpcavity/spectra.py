"""Synthetic spectroscopy signals.

Generators for the standard measurement set on a narrow-line emitter:
excitation scans across the inhomogeneous profile, saturation curves,
spectral-hole scans, power broadening, and pulsed-decay histograms.  Every
generator returns a :class:`~fpcavity.trace.Trace` whose noise model and
seed are recorded alongside the data, so a simulated file can be re-created
exactly.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (NOISE_MODELS, _require_count, _require_each,
                   _require_finite, _require_fraction, _require_non_negative,
                   _require_positive)
from .optics import lorentzian_suppression
from .trace import Trace, _grid


def _trace(x: np.ndarray, mean: np.ndarray, noise: str,
           seed: int | None) -> Trace:
    """The trace of the curve ``mean`` on ``x`` under the noise model."""
    if seed is not None:
        _require_count("seed", seed, 0)
    if noise == "poisson":
        rng = np.random.default_rng(seed)
        mean = rng.poisson(np.clip(mean, 0.0, None)).astype(float)
    elif noise != "none":
        raise ValueError(f"unknown noise model {noise!r}; "
                         f"choose from {NOISE_MODELS}")
    return Trace(x=x, y=mean, noise_model=noise, seed=seed)


def lorentzian_profile(x, center: float, fwhm: float):
    """Unit-peak Lorentzian 1 / (1 + (2 (x - c) / fwhm)^2)."""
    x = np.asarray(x, dtype=float)
    _require_finite(center=center)
    _require_positive("fwhm", fwhm)
    with np.errstate(over="ignore"):  # a square past 1e308 gives 0.0
        detuning = 2.0 * (x - center) / fwhm
        _require_each("2 (x - center) / fwhm", detuning)
        return lorentzian_suppression(detuning)


def ple_scan(inhomogeneous_fwhm: float, center_frequency: float,
             amplitude: float, background: float, grid,
             population: SpectralPopulation | None = None,
             probe_fwhm: float | None = None,
             noise: str = "none", seed: int | None = None) -> Trace:
    """Excitation spectrum across the inhomogeneous line.

    The smooth part is a Lorentzian of the given width on a flat
    background.  With a ``population`` (and a ``probe_fwhm``), the curve is
    additionally multiplied by each probe window's ion count over its
    expectation: the statistical fine structure a real scan over a fixed
    ion ensemble shows, drawn as in :func:`~fpcavity.ensemble.sfs_spectrum`.
    The expectations come from the same line CDF, so the factor has mean 1.
    """
    _require_non_negative("amplitude", amplitude)
    _require_non_negative("background", background)
    grid = _grid("grid", grid)
    mean = amplitude * lorentzian_profile(grid, center_frequency,
                                          inhomogeneous_fwhm)
    if population is not None:
        if probe_fwhm is None:
            raise ValueError("probe_fwhm is required with a population")
        from .ensemble import _window_counts
        counts, expected = _window_counts(population, probe_fwhm, grid,
                                          0 if seed is None else seed)
        mean = mean * np.divide(counts, expected, out=np.ones_like(counts),
                                where=expected > 0.0)
    mean = mean + background
    return _trace(grid, mean, noise, seed)


def saturation_curve(powers, scale: float, exponent: float,
                     background: float = 0.0, noise: str = "none",
                     seed: int | None = None) -> Trace:
    """Emission rate versus excitation power, R = scale * P^exponent + bg.

    A sub-linear exponent (0 < exponent <= 1) models the onset of
    saturation over the sampled power range.
    """
    powers = _grid("powers", powers, _require_positive)
    _require_fraction("exponent", exponent)
    _require_non_negative("scale", scale)
    _require_non_negative("background", background)
    mean = scale * powers**exponent + background
    return _trace(powers, mean, noise, seed)


def hole_spectrum(detunings, n_teeth: int, tooth_power: float,
                  hole_fwhm: float, rate_scale: float,
                  noise: str = "none", seed: int | None = None) -> Trace:
    """Spectral-hole scan after frequency-comb burning.

    Burning with ``n_teeth`` comb teeth of ``tooth_power`` each and probing
    with the full comb gives a baseline rate_scale * N * sqrt(P) away from
    the hole, dipping to rate_scale * sqrt(N P) when all teeth align with
    their holes; the dip has a Lorentzian shape of width ``hole_fwhm``.
    The off/on ratio is sqrt(N), the comb's ensemble-averaging gain.
    """
    _require_count("n_teeth", n_teeth, 1)
    _require_positive("tooth_power", tooth_power)
    _require_non_negative("rate_scale", rate_scale)
    detunings = _grid("detunings", detunings)
    baseline = rate_scale * n_teeth * math.sqrt(tooth_power)
    floor = rate_scale * math.sqrt(n_teeth * tooth_power)
    mean = baseline - (baseline - floor) * lorentzian_profile(
        detunings, 0.0, hole_fwhm)
    return _trace(detunings, mean, noise, seed)


def hole_width_to_homogeneous(hole_fwhm: float,
                              laser_fwhm: float = 0.0) -> float:
    """Homogeneous linewidth from a measured hole width.

    A hole is twice the homogeneous width plus the laser contribution per
    side: Gamma_h = hole/2 - laser.  The hole must be wider than twice the
    laser linewidth for the conversion to make sense.
    """
    _require_positive("hole_fwhm", hole_fwhm)
    _require_non_negative("laser_fwhm", laser_fwhm)
    if hole_fwhm <= 2.0 * laser_fwhm:
        raise ValueError("hole width must exceed twice the laser linewidth")
    return 0.5 * hole_fwhm - laser_fwhm


def power_broadening(power, sqrt_coefficient: float,
                     zero_power_fwhm: float):
    """Power-broadened linewidth coeff * sqrt(P) + Gamma_0."""
    power = np.asarray(power, dtype=float)
    _require_each("power", power, _require_non_negative)
    _require_non_negative("sqrt_coefficient", sqrt_coefficient)
    _require_non_negative("zero_power_fwhm", zero_power_fwhm)
    out = sqrt_coefficient * np.sqrt(power) + zero_power_fwhm
    return float(out) if out.ndim == 0 else out


def decay_histogram(effective_lifetime: float, time_bins, shots: int,
                    amplitude: float, background: float = 0.0,
                    noise: str = "poisson",
                    seed: int | None = None) -> Trace:
    """Photon-arrival histogram of a pulsed decay measurement.

    Per-bin mean counts are shots * (amplitude * exp(-t / tau) +
    background); with the default Poisson noise each bin is an independent
    draw, matching a counting experiment of ``shots`` repetitions.
    """
    _require_positive("effective_lifetime", effective_lifetime)
    _require_count("shots", shots, 1)
    _require_non_negative("amplitude", amplitude)
    _require_non_negative("background", background)
    time_bins = _grid("time_bins", time_bins, _require_non_negative)
    mean = shots * (amplitude * np.exp(-time_bins / effective_lifetime)
                    + background)
    return _trace(time_bins, mean, noise, seed)
