"""Domain value types and unit conversions."""
import dataclasses
import json
import math

import pytest

from fpcavity import (
    CavityGeometry,
    Nanoparticle,
    SpectralPopulation,
    Transition,
    decay_histogram,
    frequency_to_wavelength,
    hole_spectrum,
    linewidth_to_coherence_time,
    wavelength_to_frequency,
)
from fpcavity.core import (MAX_CATION_DENSITY, MAX_DIAMETER, TWO_PI,
                           _json_text, hz_to_angular)
from fpcavity.optics import (
    LossBudget,
    free_spectral_range,
    particle_scattering_loss,
    resonance_length,
)
from fpcavity.planner import DetectionChain, PulseScheme

_VALUE_TYPES = (
    Transition(580.8e-9, 0.007, 3.3e6, 2.0e-3),
    CavityGeometry(25e-6, 5.808e-6, 20, 8e-12),
    Nanoparticle(70e-9, 0.003),
    LossBudget(25.0, 200.0, 134.04),
    DetectionChain(0.8, 0.65, 20.0),
    PulseScheme(1e-6, 1e-3, 0.5),
)


def test_wavelength_to_frequency_reference_lines():
    assert wavelength_to_frequency(580.8e-9) == pytest.approx(
        516.1715874655647e12, rel=1e-12)
    assert wavelength_to_frequency(611e-9) == pytest.approx(
        490.65868739770866e12, rel=1e-12)


def test_wavelength_frequency_roundtrip():
    for wavelength in (193e-9, 580.8e-9, 611e-9, 1.55e-6):
        back = frequency_to_wavelength(wavelength_to_frequency(wavelength))
        assert back == pytest.approx(wavelength, rel=1e-14)


def test_wavelength_to_frequency_rejects_nonpositive():
    with pytest.raises(ValueError):
        wavelength_to_frequency(0.0)
    with pytest.raises(ValueError):
        frequency_to_wavelength(-1.0)


@pytest.mark.parametrize("value, message", [
    (math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite"),
    (0.0, "positive")], ids=["nan", "inf", "-inf", "zero"])
@pytest.mark.parametrize("function", [
    wavelength_to_frequency, frequency_to_wavelength,
    linewidth_to_coherence_time, free_spectral_range,
    particle_scattering_loss])
def test_unit_conversions_reject_non_finite_and_non_positive(function,
                                                              value, message):
    # NaN passed the old `<= 0` check and came back as a NaN result
    with pytest.raises(ValueError, match=f" must be {message}$"):
        function(value)


def test_coherence_time_from_linewidth():
    # 1 / (pi * FWHM)
    assert linewidth_to_coherence_time(3.3e6) == pytest.approx(
        96.45754126781534e-9, rel=1e-12)
    assert linewidth_to_coherence_time(116e3) == pytest.approx(
        2.7440507429637124e-6, rel=1e-12)
    assert hz_to_angular(1.0) == TWO_PI


def _transition(**overrides) -> Transition:
    fields = dict(wavelength=580.8e-9, branching_ratio=0.007,
                  homogeneous_linewidth=3.3e6, free_space_lifetime=2.0e-3)
    fields.update(overrides)
    return Transition(**fields)


def test_transition_properties():
    t = _transition()
    assert t.frequency == pytest.approx(516.1715874655647e12, rel=1e-12)


def test_transition_rejects_subnatural_linewidth():
    # lifetime limit: Gamma_h >= 1 / (2 pi T1)
    limit = 1.0 / (TWO_PI * 2.0e-3)
    with pytest.raises(ValueError):
        _transition(homogeneous_linewidth=0.5 * limit)
    _transition(homogeneous_linewidth=limit * (1.0 + 1e-9))


def test_transition_validation():
    with pytest.raises(ValueError):
        _transition(wavelength=-1e-9)
    with pytest.raises(ValueError):
        _transition(branching_ratio=0.0)
    with pytest.raises(ValueError):
        _transition(branching_ratio=1.5)
    with pytest.raises(ValueError):
        _transition(free_space_lifetime=0.0)


def test_transition_json_roundtrip():
    t = _transition()
    assert Transition(**json.loads(_json_text(t.to_dict()))) == t


def test_cavity_geometry_validation():
    CavityGeometry(25e-6, 5.808e-6, 20, 8e-12)
    with pytest.raises(ValueError):
        CavityGeometry(25e-6, 25e-6, 20)  # flat-out unstable
    with pytest.raises(ValueError):
        CavityGeometry(25e-6, 0.0, 20)
    with pytest.raises(ValueError):
        CavityGeometry(25e-6, 5.808e-6, 0)
    with pytest.raises(ValueError):
        CavityGeometry(25e-6, 5.808e-6, 20, rms_length_jitter=-1e-12)


# each count passes its range rule, so only the integer test refuses it
@pytest.mark.parametrize("call", [
    lambda: hole_spectrum([0.0, 1e6], 2.5, 1e-7, 12e6, 100.0),
    lambda: decay_histogram(1e-3, [0.0, 1e-3], 2.5, 1.0, noise="none"),
    lambda: resonance_length(580.8e-9, 2.5),
    lambda: SpectralPopulation(total_ions=1000.5, inhomogeneous_fwhm=34e9),
    lambda: CavityGeometry(25e-6, 5.808e-6, 20.5),
], ids=["hole_spectrum", "decay_histogram", "resonance_length",
        "SpectralPopulation", "CavityGeometry"])
def test_a_fractional_count_raises_type_error(call):
    with pytest.raises(TypeError, match=r" must be an integer$"):
        call()


# True == 1 passes each range rule; the config refuses a bool count too
@pytest.mark.parametrize("call", [
    lambda: hole_spectrum([0.0, 1e6], True, 1e-7, 12e6, 100.0),
    lambda: decay_histogram(1e-3, [0.0, 1e-3], True, 1.0, noise="none"),
    lambda: CavityGeometry(25e-6, 5.8e-6, True),
], ids=["hole_spectrum", "decay_histogram", "CavityGeometry"])
def test_a_bool_count_raises_type_error(call):
    with pytest.raises(TypeError, match=r" must be an integer$"):
        call()


def test_nanoparticle_volume():
    particle = Nanoparticle(diameter=60e-9, dopant_concentration=0.003)
    assert particle.volume == pytest.approx(
        math.pi / 6.0 * (60e-9) ** 3, rel=1e-15)


def test_nanoparticle_validation():
    with pytest.raises(ValueError):
        Nanoparticle(diameter=0.0, dopant_concentration=0.003)
    # one ceiling for the Rayleigh D << lambda scattering law
    assert MAX_DIAMETER == 1e-6
    Nanoparticle(diameter=MAX_DIAMETER, dopant_concentration=0.003)
    with pytest.raises(ValueError,
                       match=r"^diameter must be in \(0, 1e-06\] m$"):
        Nanoparticle(diameter=math.nextafter(MAX_DIAMETER, 1.0),
                     dopant_concentration=0.003)
    with pytest.raises(ValueError):
        Nanoparticle(diameter=60e-9, dopant_concentration=0.0)
    with pytest.raises(ValueError):
        Nanoparticle(diameter=60e-9, dopant_concentration=1.0)


def test_nanoparticle_cation_density_ceiling():
    # above any solid, and low enough that a 1 um particle holds at most
    # about 5e11 ions, far inside the binomial draw's int64 trial count
    assert MAX_CATION_DENSITY == 1e30
    Nanoparticle(diameter=MAX_DIAMETER, dopant_concentration=0.999,
                 cation_density=MAX_CATION_DENSITY)
    for density in (math.nextafter(MAX_CATION_DENSITY, math.inf), 1e45):
        with pytest.raises(ValueError, match=r"^cation_density must be in "
                           r"\(0, 1e\+30\] m\^-3$"):
            Nanoparticle(diameter=60e-9, dopant_concentration=0.003,
                         cation_density=density)
    with pytest.raises(ValueError):
        Nanoparticle(diameter=60e-9, dopant_concentration=0.003,
                     cation_density=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("record, name", [
    pytest.param(record, f.name, id=f"{type(record).__name__}.{f.name}")
    for record in _VALUE_TYPES
    for f in dataclasses.fields(record) if f.type == "float"
])
def test_value_types_reject_non_finite_fields(record, name, value):
    # NaN passed every `<` domain check, and inf most of them
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        dataclasses.replace(record, **{name: value})
