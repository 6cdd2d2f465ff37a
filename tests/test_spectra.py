"""Synthetic spectroscopy generators."""
import math
import warnings

import numpy as np
import pytest

from fpcavity import (
    SpectralPopulation,
    decay_histogram,
    hole_spectrum,
    hole_width_to_homogeneous,
    lorentzian_profile,
    ple_scan,
    power_broadening,
    saturation_curve,
)


def test_lorentzian_profile():
    x = np.array([-1.0, 0.0, 0.5, 1.0])
    y = lorentzian_profile(x, 0.0, 1.0)
    assert y[1] == 1.0
    assert y[2] == pytest.approx(0.5, rel=1e-15)  # half width at half max
    assert y[0] == y[3]
    with pytest.raises(ValueError):
        lorentzian_profile(x, 0.0, 0.0)


@pytest.mark.parametrize("form", [float, lambda value: [value]],
                         ids=["scalar", "array"])
def test_lorentzian_profile_refuses_an_overflowing_detuning(form):
    # both forms warned of an overflow; then the scalar blamed
    # detuning_in_hwhm, a name its caller never passed, and the array
    # returned [0.]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=r"^2 \(x - center\) / fwhm must be finite$"):
            lorentzian_profile(form(1e308), -1e308, 1.0)
        # a finite detuning whose square overflows has a profile of 0.0
        assert np.all(lorentzian_profile(form(1e200), 0.0, 1.0) == 0.0)


def test_ple_scan_noiseless():
    grid = np.linspace(-60e9, 60e9, 201)
    trace = ple_scan(34e9, 0.0, 1000.0, 50.0, grid)
    expected = 1000.0 * lorentzian_profile(grid, 0.0, 34e9) + 50.0
    assert np.array_equal(trace.y, expected)
    assert trace.noise_model == "none"
    assert trace.y[100] == pytest.approx(1050.0, rel=1e-15)


def test_ple_scan_poisson_reproducible():
    grid = np.linspace(-60e9, 60e9, 201)
    a = ple_scan(34e9, 0.0, 1000.0, 50.0, grid, noise="poisson", seed=9)
    b = ple_scan(34e9, 0.0, 1000.0, 50.0, grid, noise="poisson", seed=9)
    c = ple_scan(34e9, 0.0, 1000.0, 50.0, grid, noise="poisson", seed=10)
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)
    assert np.all(a.y == np.floor(a.y))  # counts


def test_ple_scan_population_modulation():
    population = SpectralPopulation(total_ions=5000,
                                    inhomogeneous_fwhm=34e9)
    grid = np.linspace(-1e9, 1e9, 101)
    smooth = ple_scan(34e9, 0.0, 1000.0, 0.0, grid)
    grainy = ple_scan(34e9, 0.0, 1000.0, 0.0, grid,
                      population=population, probe_fwhm=13e6, seed=2)
    assert not np.array_equal(smooth.y, grainy.y)
    # statistical fine structure keeps the scan nonnegative and centered
    # on the smooth curve
    assert np.all(grainy.y >= 0.0)
    ratio = np.mean(grainy.y) / np.mean(smooth.y)
    assert 0.5 < ratio < 1.5
    with pytest.raises(ValueError):
        ple_scan(34e9, 0.0, 1000.0, 0.0, grid, population=population)


def test_saturation_curve():
    powers = np.geomspace(1e-9, 1e-5, 25)
    trace = saturation_curve(powers, 1000.0, 0.5, background=2.0)
    assert np.array_equal(trace.y, 1000.0 * np.sqrt(powers) + 2.0)
    with pytest.raises(ValueError):
        saturation_curve(np.array([0.0, 1.0]), 1000.0, 0.5)
    with pytest.raises(ValueError):
        saturation_curve(powers, 1000.0, 1.5)
    with pytest.raises(ValueError):
        saturation_curve(powers, -1.0, 0.5)


def test_hole_spectrum_endpoints():
    fwhm = 12e6
    detunings = np.array([-1e6 * fwhm, 0.0, 1e6 * fwhm])
    n_teeth = 200
    trace = hole_spectrum(detunings, n_teeth, 1e-7, fwhm, 100.0)
    # off-hole to on-hole ratio is exactly sqrt(N)
    assert trace.y[0] / trace.y[1] == pytest.approx(math.sqrt(n_teeth),
                                                    rel=1e-9)
    assert trace.y[0] == pytest.approx(100.0 * n_teeth * math.sqrt(1e-7),
                                       rel=1e-9)
    assert trace.y[1] == pytest.approx(100.0 * math.sqrt(n_teeth * 1e-7),
                                       rel=1e-12)


def test_hole_spectrum_single_tooth_flat():
    detunings = np.linspace(-50e6, 50e6, 101)
    trace = hole_spectrum(detunings, 1, 1e-7, 12e6, 100.0)
    assert np.all(trace.y == trace.y[0])
    with pytest.raises(ValueError):
        hole_spectrum(detunings, 0, 1e-7, 12e6, 100.0)
    with pytest.raises(ValueError):
        hole_spectrum(detunings, 10, 0.0, 12e6, 100.0)


def test_hole_width_to_homogeneous():
    assert hole_width_to_homogeneous(6.6e6) == pytest.approx(3.3e6,
                                                             rel=1e-15)
    assert hole_width_to_homogeneous(7.0e6, 0.2e6) == pytest.approx(
        3.3e6, rel=1e-15)
    # round trip: Gamma_h -> hole -> Gamma_h
    gamma, laser = 3.3e6, 0.15e6
    hole = 2.0 * (gamma + laser)
    assert hole_width_to_homogeneous(hole, laser) == pytest.approx(
        gamma, rel=1e-12)
    with pytest.raises(ValueError):
        hole_width_to_homogeneous(0.4e6, 0.2e6)
    with pytest.raises(ValueError):
        hole_width_to_homogeneous(0.0)


def test_power_broadening():
    assert power_broadening(0.0, 6.4e9, 3.3e6) == 3.3e6
    assert power_broadening(1e-6, 6.4e9, 3.3e6) == pytest.approx(
        6.4e9 * 1e-3 + 3.3e6, rel=1e-12)
    out = power_broadening(np.array([0.0, 4e-6]), 6.4e9, 3.3e6)
    assert out.shape == (2,)
    assert out[1] == pytest.approx(6.4e9 * 2e-3 + 3.3e6, rel=1e-12)
    with pytest.raises(ValueError):
        power_broadening(-1.0, 6.4e9, 3.3e6)


def test_decay_histogram_mean():
    t = np.linspace(0.0, 5e-3, 60)
    trace = decay_histogram(1.1e-3, t, 20000, 0.05, background=0.002,
                            noise="none")
    expected = 20000 * (0.05 * np.exp(-t / 1.1e-3) + 0.002)
    assert np.array_equal(trace.y, expected)


def test_decay_histogram_poisson():
    t = np.linspace(0.0, 5e-3, 60)
    a = decay_histogram(1.1e-3, t, 20000, 0.05, seed=4)
    b = decay_histogram(1.1e-3, t, 20000, 0.05, seed=4)
    assert np.array_equal(a.y, b.y)
    assert a.noise_model == "poisson"
    assert np.all(a.y == np.floor(a.y))
    with pytest.raises(ValueError):
        decay_histogram(0.0, t, 20000, 0.05)
    with pytest.raises(ValueError):
        decay_histogram(1.1e-3, t, 0, 0.05)
    with pytest.raises(ValueError):
        decay_histogram(1.1e-3, np.array([-1e-3, 0.0]), 100, 0.05)


def test_unknown_noise_model():
    with pytest.raises(ValueError):
        ple_scan(34e9, 0.0, 1000.0, 50.0, np.linspace(-1, 1, 11),
                 noise="gaussian")


def test_ple_scan_rejects_non_finite_levels_and_grid():
    # amplitude=nan gave a NaN trace and background=inf an infinite one
    population = SpectralPopulation(total_ions=5000,
                                    inhomogeneous_fwhm=34e9)
    grid = np.linspace(-1e9, 1e9, 11)
    for amplitude, background, name in ((math.nan, 0.0, "amplitude"),
                                        (math.inf, 0.0, "amplitude"),
                                        (1000.0, math.inf, "background"),
                                        (1000.0, math.nan, "background")):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ple_scan(34e9, 0.0, amplitude, background, grid)
    # a NaN grid point counted 0 ions
    with pytest.raises(ValueError, match="^grid must be finite$"):
        ple_scan(34e9, 0.0, 1000.0, 0.0, np.append(grid, math.nan),
                 population=population, probe_fwhm=13e6)


@pytest.mark.parametrize("call, name", [
    (lambda bad: lorentzian_profile([0.0], 0.0, bad), "fwhm"),
    (lambda bad: lorentzian_profile([0.0], bad, 1e6), "center"),
    (lambda bad: ple_scan(34e9, bad, 1000.0, 0.0, [0.0]), "center"),
    (lambda bad: saturation_curve([1.0], bad, 0.5), "scale"),
    (lambda bad: saturation_curve([1.0], 1.0, 0.5, background=bad),
     "background"),
    (lambda bad: hole_spectrum([0.0], 4, bad, 1e6, 1.0), "tooth_power"),
    (lambda bad: hole_spectrum([0.0], 4, 1.0, 1e6, bad), "rate_scale"),
    (lambda bad: hole_width_to_homogeneous(bad), "hole_fwhm"),
    (lambda bad: hole_width_to_homogeneous(1e6, bad), "laser_fwhm"),
    (lambda bad: power_broadening(bad, 1e3, 1e6), "power"),
    (lambda bad: power_broadening([1.0, bad], 1e3, 1e6), "power"),
    (lambda bad: power_broadening(1.0, bad, 1e6), "sqrt_coefficient"),
    (lambda bad: power_broadening(1.0, 1e3, bad), "zero_power_fwhm"),
    (lambda bad: saturation_curve([1.0, bad], 1.0, 0.5), "powers"),
    (lambda bad: decay_histogram(bad, [0.0], 10, 1.0), "effective_lifetime"),
    (lambda bad: decay_histogram(1e-3, [0.0, bad], 10, 1.0), "time_bins"),
    (lambda bad: decay_histogram(1e-3, [0.0], 10, bad), "amplitude"),
    (lambda bad: decay_histogram(1e-3, [0.0], 10, 1.0, background=bad),
     "background"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_generators_reject_non_finite_parameters(call, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(bad)


@pytest.mark.parametrize("noise", ["poisson", "none"])
@pytest.mark.parametrize("call, name", [
    (lambda noise: decay_histogram(1e-3, 0.5, 1, 1.0, noise=noise),
     "time_bins"),
    (lambda noise: saturation_curve(1e-6, 1.0, 0.5, noise=noise), "powers"),
    (lambda noise: hole_spectrum(0.0, 4, 1.0, 1e6, 1.0, noise=noise),
     "detunings"),
    (lambda noise: ple_scan(34e9, 0.0, 1.0, 0.0, 0.0, noise=noise), "grid"),
], ids=["decay", "saturation", "hole", "ple"])
def test_generators_reject_a_scalar_grid(call, name, noise):
    # Poisson noise raised AttributeError: 'int' object has no attribute
    # 'astype', and no noise a ValueError that named only the trace's x, y
    with pytest.raises(ValueError, match=f"^{name} must be a 1-d array$"):
        call(noise)
