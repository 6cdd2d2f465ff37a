"""Mirror budgets, mode geometry, and scattering."""
import math

import numpy as np
import pytest

from fpcavity import (
    LossBudget,
    cavity_linewidth,
    double_resonance,
    finesse,
    free_spectral_range,
    lorentzian_suppression,
    mode_waist,
    outcoupling_efficiency,
    particle_scattering_loss,
    resonance_length,
)
from fpcavity.optics import loaded_budget

BARE_580 = LossBudget(transmission_in=25.0, transmission_out=200.0,
                      absorption_scatter=134.04)
BARE_611 = LossBudget(transmission_in=25.0, transmission_out=200.0,
                      absorption_scatter=436.39)


def test_free_spectral_range_values():
    assert free_spectral_range(5.808e-6) == pytest.approx(
        25.80857937327824e12, rel=1e-12)
    assert free_spectral_range(1.0) == pytest.approx(149.896229e6, rel=1e-12)
    assert free_spectral_range(2.5e-6) == pytest.approx(
        59.9584916e12, rel=1e-12)
    with pytest.raises(ValueError):
        free_spectral_range(0.0)


def test_mode_waist_values():
    assert mode_waist(580.8e-9, 25e-6, 5.808e-6) == pytest.approx(
        1.3970922327466135e-6, rel=1e-12)
    assert mode_waist(580.8e-9, 25e-6, 2.5e-6) == pytest.approx(
        1.177521916660829e-6, rel=1e-12)
    assert mode_waist(611e-9, 25e-6, 5.8045e-6) == pytest.approx(
        1.432803817336121e-6, rel=1e-12)
    assert mode_waist(611e-9, 25e-6, 5.808e-6) == pytest.approx(
        1.4329544300190762e-6, rel=1e-12)


def test_mode_waist_stability_bounds():
    for bad_length in (0.0, 25e-6, 30e-6):
        with pytest.raises(ValueError):
            mode_waist(580.8e-9, 25e-6, bad_length)


def test_mode_waist_grows_toward_half_radius():
    # strictly increasing for d < R/2, maximal at R/2
    roc = 25e-6
    lengths = np.linspace(0.5e-6, roc / 2.0, 40)
    waists = [mode_waist(580.8e-9, roc, d) for d in lengths]
    assert all(a < b for a, b in zip(waists, waists[1:]))
    assert mode_waist(580.8e-9, roc, 0.7 * roc) < waists[-1]


def test_resonance_length():
    assert resonance_length(580.8e-9, 20) == pytest.approx(5.808e-6,
                                                           rel=1e-12)
    assert resonance_length(611e-9, 19) == pytest.approx(5.8045e-6,
                                                         rel=1e-12)


def test_double_resonance_solution():
    solution = double_resonance(580.8e-9, 611e-9)
    assert solution.mode_order_1 == 20
    assert solution.mode_order_2 == 19
    assert solution.cavity_length == pytest.approx(5.808e-6, rel=1e-12)
    assert solution.residual_detuning == pytest.approx(
        0.2956793054221875e12, rel=1e-9)


def test_double_resonance_rejects_bad_pairs():
    with pytest.raises(ValueError):
        double_resonance(611e-9, 580.8e-9)  # order matters
    with pytest.raises(ValueError):
        double_resonance(580.8e-9, 580.9e-9)  # q beyond the order cap
    with pytest.raises(ValueError, match="^wavelengths too far apart"):
        double_resonance(100e-9, 1000e-9)  # q = 1
    # the cap admits q = 200 and rejects q = 201
    assert double_resonance(580e-9, 580e-9 * 200 / 199).mode_order_1 == 200
    with pytest.raises(ValueError, match="mode order <= 200"):
        double_resonance(580e-9, 580e-9 * 201 / 200)


def test_finesse_from_budgets():
    assert finesse(BARE_580) == pytest.approx(
        2.0 * math.pi / 359.04e-6, rel=1e-12)
    assert finesse(BARE_580) == pytest.approx(17500.0, rel=1e-4)
    assert finesse(BARE_611) == pytest.approx(9500.0, rel=2e-4)


def test_cavity_linewidth_values():
    assert cavity_linewidth(5.808e-6, BARE_580) == pytest.approx(
        1.474779412855055e9, rel=1e-9)
    # oracle carried the loss total at slightly coarser rounding
    assert cavity_linewidth(5.808e-6, BARE_611) == pytest.approx(
        2.7169475340713456e9, rel=2e-4)


def test_particle_scattering_loss_reference():
    assert particle_scattering_loss(60e-9) == pytest.approx(13.0, rel=1e-12)
    assert particle_scattering_loss(70e-9) == pytest.approx(
        32.781142832647475, rel=1e-12)


def test_particle_scattering_sixth_power():
    ratio = particle_scattering_loss(120e-9) / particle_scattering_loss(60e-9)
    assert ratio == pytest.approx(64.0, rel=1e-12)


def test_particle_scattering_wavelength_dependence():
    blue = particle_scattering_loss(70e-9, 580.8e-9)
    red = particle_scattering_loss(70e-9, 611e-9)
    assert red == pytest.approx(blue * (580.8 / 611.0) ** 4, rel=1e-12)


def test_loss_budget_total_and_loading():
    assert BARE_580.total == pytest.approx(359.04, rel=1e-12)
    loaded = loaded_budget(BARE_580, 60e-9, 580.8e-9)  # the 13 ppm reference
    assert loaded.total == pytest.approx(372.04, rel=1e-12)
    assert BARE_580.particle_scatter == 0.0  # original untouched
    with pytest.raises(ValueError):
        LossBudget(-1.0, 200.0, 134.04)


def test_outcoupling_efficiency():
    assert outcoupling_efficiency(BARE_580) == pytest.approx(
        200.0 / 359.04, rel=1e-12)
    # extra particle loss lowers the escape probability
    assert outcoupling_efficiency(loaded_budget(BARE_580, 70e-9,
                                                580.8e-9)) < \
        outcoupling_efficiency(BARE_580)


def test_lorentzian_suppression():
    assert lorentzian_suppression(0.0) == 1.0
    assert lorentzian_suppression(1.0) == 0.5
    assert lorentzian_suppression(6.0) == pytest.approx(1.0 / 37.0,
                                                        rel=1e-15)


@pytest.mark.parametrize("value", [1.4e154, -1e200, 1.7e308, 10**400],
                         ids=["1.4e154", "-1e200", "1.7e308", "int"])
def test_lorentzian_suppression_far_out_is_0(value):
    # a float's square raised OverflowError, and so did an int's quotient
    assert lorentzian_suppression(value) == 0.0


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf,
    np.array([math.nan]), np.array([math.inf]), np.array([-math.inf]),
], ids=["nan", "inf", "-inf", "array-nan", "array-inf", "array--inf"])
def test_lorentzian_suppression_rejects_non_finite_detuning(value):
    # NaN came back as NaN and an infinite detuning as a suppression of 0.0;
    # in an array they still did
    with pytest.raises(ValueError, match="detuning_in_hwhm must be finite"):
        lorentzian_suppression(value)
