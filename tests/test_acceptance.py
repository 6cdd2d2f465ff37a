"""Acceptance gate: the headline design figures, one criterion per test.

Each test prints a single PASS line when its criterion holds; run with
``pytest -v`` (or ``-rA``) to see the per-criterion lines.
"""
import json
import math

import numpy as np
import pytest

from fpcavity import (
    CavityGeometry,
    DetectionChain,
    LossBudget,
    Nanoparticle,
    SpectralPopulation,
    Transition,
    auto_initial_guess,
    cavity_branching,
    channel_strengths,
    default_hyperfine_classes,
    double_resonance,
    ensemble_purcell_stats,
    fit,
    hole_spectrum,
    ideal_purcell_from_effective,
    ions_in_bandwidth,
    lorentzian_suppression,
    mode_waist,
    multimodal_sum,
    nominal_purcell,
    outcoupling_efficiency,
    photon_path_efficiency,
    purcell_from_lifetimes,
    resonance_length,
    sample_orientation_factor,
    saturation_intensity,
    saturation_power,
    snr,
    sweep_grid,
    total_ion_count,
)
from fpcavity.cli import main
from fpcavity.fitting import MODELS, _jacobian, _step_floors

T580 = Transition(wavelength=580.8e-9, branching_ratio=0.007,
                  homogeneous_linewidth=3.3e6, free_space_lifetime=2.0e-3)
T611 = Transition(wavelength=611e-9, branching_ratio=0.36,
                  homogeneous_linewidth=680e9, free_space_lifetime=2.0e-3)
BUDGETS = [LossBudget(25.0, 200.0, 134.04), LossBudget(25.0, 200.0, 436.39)]
GEOMETRY = CavityGeometry(25e-6, 5.808e-6, 20, 8e-12)
CHAIN = DetectionChain(path_transmission=0.8, detector_efficiency=0.65,
                       dark_rate=20.0)


def test_criterion_1_mode_geometry():
    open_waist = mode_waist(580.8e-9, 25e-6, 5.808e-6)
    contact_waist = mode_waist(580.8e-9, 25e-6, 2.5e-6)
    assert open_waist == pytest.approx(1.41e-6, rel=0.02)
    assert contact_waist == pytest.approx(1.18e-6, rel=0.02)
    solution = double_resonance(580.8e-9, 611e-9)
    assert solution.mode_order_1 == 20
    assert solution.cavity_length == pytest.approx(5.808e-6, rel=1e-3)
    print(f"criterion 1 PASS: waists {open_waist * 1e6:.3f}/"
          f"{contact_waist * 1e6:.3f} um, double resonance q=20 at "
          f"{solution.cavity_length * 1e6:.4f} um")


def test_criterion_2_purcell_factors():
    blue = nominal_purcell(580.8e-9, 17500.0,
                           mode_waist(580.8e-9, 25e-6, 5.808e-6))
    red_length = resonance_length(611e-9, 19)
    red = nominal_purcell(611e-9, 9500.0,
                          mode_waist(611e-9, 25e-6, red_length))
    assert blue == pytest.approx(580.0, rel=0.03)
    assert red == pytest.approx(330.0, rel=0.03)

    channels = channel_strengths(Nanoparticle(60e-9, 0.003), GEOMETRY,
                                 [T580, T611], BUDGETS)
    assert channels[0].strength == pytest.approx(2.5, rel=0.15)
    both = channels[0].strength + channels[1].strength
    assert both == pytest.approx(3.0, rel=0.15)

    assert multimodal_sum([2.5, 0.47]) == pytest.approx(2.97, abs=1e-12)
    print(f"criterion 2 PASS: nominal {blue:.1f}/{red:.1f}, 60 nm "
          f"jittered F_eff {channels[0].strength:.2f} (580), {both:.2f} "
          f"(both), sum 2.5+0.47={multimodal_sum([2.5, 0.47]):.2f}")


def test_criterion_3_lifetime_mapping():
    effective = purcell_from_lifetimes(2.0e-3, 1.0e-3)
    assert effective == pytest.approx(1.0, abs=1e-12)
    ideal = ideal_purcell_from_effective(effective, 0.007)
    assert round(ideal) == 143
    assert ideal == pytest.approx(140.0, rel=0.05)
    branching = cavity_branching(effective, 0.007)
    assert branching == pytest.approx(0.503, abs=0.001)
    print(f"criterion 3 PASS: F_eff {effective:.1f} -> ideal F_P "
          f"{ideal:.1f} (~140-fold), cavity branching {branching:.4f}")


def test_criterion_4_coupling_table(capsys):
    assert main(["purcell", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    row_580, row_611 = report["table"]
    assert row_580["g"] == pytest.approx(0.4e6, rel=0.25)
    assert row_611["g"] == pytest.approx(2.4e6, rel=0.25)
    assert row_580["cooperativity"] == pytest.approx(8e-5, rel=0.25)
    assert row_611["cooperativity"] == pytest.approx(5e-11, rel=0.25)
    assert row_580["kappa"] == pytest.approx(1.8e9, rel=0.25)
    assert row_611["kappa"] == pytest.approx(2.5e9, rel=0.25)
    print(f"criterion 4 PASS: g {row_580['g'] / 1e6:.2f}/"
          f"{row_611['g'] / 1e6:.2f} MHz, C "
          f"{row_580['cooperativity']:.1e}/"
          f"{row_611['cooperativity']:.1e}, kappa "
          f"{row_580['kappa'] / 1e9:.2f}/{row_611['kappa'] / 1e9:.2f} "
          f"GHz")


def test_criterion_5_saturation_scales():
    intensity = saturation_intensity(3.3e6, 0.007, 580.8e-9)
    power = saturation_power(intensity, 1.41e-6)
    assert intensity == pytest.approx(2.0e4, rel=0.05)
    assert power == pytest.approx(61e-9, rel=0.05)
    print(f"criterion 5 PASS: I_sat {intensity:.3g} W/m^2, P_sat "
          f"{power * 1e9:.1f} nW")


def test_criterion_6_detection_chain():
    # the quoted 0.29-0.30 window is a two-significant-figure statement:
    # the literal product 0.55 * 0.8 * 0.65 = 0.286 and the product with
    # the computed outcoupling 0.5570 both round to 0.29
    literal = 0.55 * 0.8 * 0.65
    outcoupling = outcoupling_efficiency(BUDGETS[0])
    computed = photon_path_efficiency(outcoupling, CHAIN)
    assert outcoupling == pytest.approx(0.55, rel=0.02)
    for efficiency in (literal, computed):
        assert 0.285 <= efficiency <= 0.305
        assert round(efficiency, 2) == 0.29
    value = snr(240.0, 20.0)
    assert round(value, 1) == 53.7
    print(f"criterion 6 PASS: end-to-end efficiency {computed:.4f} "
          f"(literal {literal:.4f}), SNR(240 cps, 20 Hz) = {value:.1f}")


def test_criterion_7_count_rate_plan():
    rates = tuple(float(f) for f in range(500, 6001, 500))
    rows = sweep_grid((40e-9, 70e-9), rates, "contact", [T580, T611],
                      BUDGETS, 25e-6, CHAIN, excitation_time=1e-6,
                      excited_population=0.5)
    best_70 = max(r.rate for r in rows if r.diameter == 70e-9)
    best_40 = max(r.rate for r in rows if r.diameter == 40e-9)
    assert best_70 > 240.0
    assert 192.0 <= best_70 <= 312.0
    assert best_40 > 300.0
    assert 240.0 <= best_40 <= 390.0
    max_purcell = max(r.effective_purcell for r in rows)
    assert max_purcell == pytest.approx(5.6, rel=0.15)
    print(f"criterion 7 PASS: contact rates {best_70:.1f} cps (70 nm), "
          f"{best_40:.1f} cps (40 nm), max contact F_eff "
          f"{max_purcell:.2f}")


def test_criterion_8_property_suites():
    # noiseless fit round trips
    for name, true in (("lorentzian", [1000.0, 2e6, 5e5, 50.0]),
                       ("exp_decay", [1000.0, 1.1e-3, 40.0]),
                       ("power_law", [1000.0, 0.5, 20.0])):
        spec = MODELS[name]
        if name == "lorentzian":
            x = np.linspace(-1e6, 5e6, 201)
        elif name == "exp_decay":
            x = np.linspace(0.0, 5.5e-3, 120)
        else:
            x = np.geomspace(1.0, 1e4, 50)
        y = spec.function(x, np.array(true))
        result = fit(name, x, y)
        assert result.converged
        fitted = [result.parameters[p] for p in spec.parameters]
        assert np.all(np.abs(np.array(fitted) / np.array(true) - 1.0)
                      < 1e-6)

    # central-difference Jacobian against the analytic Lorentzian one
    spec = MODELS["lorentzian"]
    x = np.linspace(-1e6, 5e6, 101)
    params = np.array([1000.0, 2e6, 5e5, 50.0])
    amplitude, center, fwhm, _ = params
    numeric = _jacobian(spec, x, params,
                        _step_floors(spec, x, spec.function(x, params)))
    shape = 1.0 / (1.0 + (2.0 * (x - center) / fwhm) ** 2)
    analytic = np.column_stack([
        shape,
        amplitude * shape**2 * 8.0 * (x - center) / fwhm**2,
        amplitude * shape**2 * 8.0 * (x - center) ** 2 / fwhm**3,
        np.ones_like(x),
    ])
    for j in range(4):
        scale = np.max(np.abs(analytic[:, j]))
        assert np.max(np.abs(numeric[:, j] - analytic[:, j])) < 1e-4 * scale

    # orientation sampling: mean 1/3 within 3 sigma at 1e5 samples
    factors = sample_orientation_factor(np.random.default_rng(21),
                                        size=100_000)
    assert abs(np.mean(factors) - 1.0 / 3.0) < 3.0 * math.sqrt(4.0 / 45.0e5)

    # seeded Monte Carlo is bitwise identical for a fixed seed
    particle = Nanoparticle(70e-9, 0.003)
    first = ensemble_purcell_stats(particle, GEOMETRY, [T580, T611],
                                   BUDGETS, n_samples=12_000, seed=7)
    again = ensemble_purcell_stats(particle, GEOMETRY, [T580, T611],
                                   BUDGETS, n_samples=12_000, seed=7)
    assert first == again

    # hole endpoint ratio sqrt(N), and the 6-HWHM Lorentzian leak 1/37
    detunings = np.array([-1e6 * 12e6, 0.0])
    trace = hole_spectrum(detunings, 200, 1e-7, 12e6, 100.0)
    assert trace.y[0] / trace.y[1] == pytest.approx(math.sqrt(200.0),
                                                    rel=1e-9)
    assert lorentzian_suppression(6.0) == pytest.approx(1.0 / 37.0,
                                                        rel=1e-12)
    assert lorentzian_suppression(6.0) == pytest.approx(0.027, abs=5e-4)
    print("criterion 8 PASS: fit round trips, Jacobian, orientation "
          "statistics, fixed-seed reproducible Monte Carlo, sqrt(N) hole "
          "contrast, 1/37 leakage")


def test_criterion_9_ion_statistics():
    particle = Nanoparticle(90e-9, 0.003)
    population = SpectralPopulation(
        total_ions=total_ion_count(particle),
        inhomogeneous_fwhm=34e9,
        hyperfine_offsets=default_hyperfine_classes())
    stats = ions_in_bandwidth(population, 0.0, 13e6, seed=0, n_draws=300)
    assert stats.mean == pytest.approx(15.0, abs=8.0)
    print(f"criterion 9 PASS: {stats.mean:.1f} +/- {stats.std:.1f} ions "
          f"in a 13 MHz probe window")
