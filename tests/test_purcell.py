"""Purcell chain: nominal factor, degradations, coupling figures."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fpcavity import (
    CavityGeometry,
    LossBudget,
    Transition,
    bad_emitter_factor,
    cavity_branching,
    cavity_lifetime,
    cooperativity,
    coupling_rate,
    coupling_report,
    ideal_purcell_from_effective,
    jitter_suppression,
    mode_waist,
    multimodal_sum,
    nominal_purcell,
    purcell_from_lifetimes,
    saturation_intensity,
    saturation_power,
)
from fpcavity import purcell
from fpcavity.optics import loaded_budget

T580 = Transition(wavelength=580.8e-9, branching_ratio=0.007,
                  homogeneous_linewidth=3.3e6, free_space_lifetime=2.0e-3)
T611 = Transition(wavelength=611e-9, branching_ratio=0.36,
                  homogeneous_linewidth=680e9, free_space_lifetime=2.0e-3)
BARE_580 = LossBudget(25.0, 200.0, 134.04)
BARE_611 = LossBudget(25.0, 200.0, 436.39)
GEOMETRY = CavityGeometry(25e-6, 5.808e-6, 20, 8e-12)


def test_nominal_purcell_values():
    assert nominal_purcell(580.8e-9, 17500.0, 1.41e-6) == pytest.approx(
        574.5855118292628, rel=1e-12)
    waist = mode_waist(580.8e-9, 25e-6, 5.808e-6)
    assert nominal_purcell(580.8e-9, 17500.0, waist) == pytest.approx(
        585.2517756911926, rel=1e-12)
    assert nominal_purcell(611e-9, 9500.0, 1.44e-6) == pytest.approx(
        330.96546099044104, rel=1e-12)


def _erfcx_oracle(x):
    """exp(x^2) erfc(x) for x > 0 from Laplace's continued fraction
    1 / (sqrt(pi) (x + (1/2) / (x + (2/2) / (x + (3/2) / (x + ...))))),
    summed from its tail; 2000 terms converge to rounding for x >= 0.3."""
    tail = x
    for k in range(2000, 0, -1):
        tail = x + 0.5 * k / tail
    return 1.0 / (math.sqrt(math.pi) * tail)


def test_jitter_suppression_against_closed_form():
    # independent oracle: E[1/(1+(x/a)^2)] for x ~ N(0, sigma) has the
    # closed form sqrt(pi/2) erfcx(1/(r sqrt 2)) / r with r = sigma / a
    for sigma in (0.2e-12, 1e-12, 2e-12, 4e-12, 8e-12, 16e-12):
        for wavelength, fin in ((580.8e-9, 17500.0), (611e-9, 9500.0),
                                (580.8e-9, 16888.47)):
            r = sigma / (wavelength / (4.0 * fin))
            closed = math.sqrt(math.pi / 2.0) * _erfcx_oracle(
                1.0 / (r * math.sqrt(2.0))) / r
            assert jitter_suppression(sigma, wavelength, fin) == \
                pytest.approx(closed, rel=1e-8)


def test_jitter_suppression_values():
    assert jitter_suppression(8e-12, 580.8e-9, 17500.0) == pytest.approx(
        0.6669887417195267, rel=1e-9)
    assert jitter_suppression(8e-12, 611e-9, 9500.0) == pytest.approx(
        0.8437879705725319, rel=1e-9)
    # asymptotic erfcx branch: 1 / (sqrt(2) r) = 29.3
    assert jitter_suppression(0.2e-12, 580.8e-9, 17500.0) == pytest.approx(
        0.9994199741251936, rel=1e-9)
    assert jitter_suppression(0.0, 580.8e-9, 17500.0) == 1.0


def test_erfcx_branches_meet():
    below = math.nextafter(25.0, 0.0)
    assert purcell._erfcx(below) == pytest.approx(_erfcx_oracle(below),
                                                  rel=1e-12)
    assert purcell._erfcx(25.0) == pytest.approx(
        math.exp(625.0) * math.erfc(25.0), rel=1e-12)
    for x in (25.0, 40.0, 1e3, 1e8):
        assert purcell._erfcx(x) == pytest.approx(_erfcx_oracle(x),
                                                  rel=1e-12)


def test_import_leaves_scipy_unloaded():
    src = str(Path(purcell.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    # neither scipy nor the thread pool is part of the runtime path
    packages = ("scipy", "concurrent.futures")
    code = ("import sys, fpcavity; print(sorted(m for m in sys.modules "
            f"for p in {packages!r} if m == p or m.startswith(p + '.')))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_jitter_suppression_monotone_in_sigma():
    values = [jitter_suppression(s, 580.8e-9, 17500.0)
              for s in np.linspace(0.0, 30e-12, 16)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 for v in values[1:])


def test_bad_emitter_factor():
    assert bad_emitter_factor(1.5e9, 3.3e6) == pytest.approx(
        1.5e9 / (1.5e9 + 3.3e6), rel=1e-15)
    # deep bad-emitter regime: enhancement suppressed to kappa / Gamma_h
    assert bad_emitter_factor(2.8e9, 680e9) == pytest.approx(
        2.8e9 / 682.8e9, rel=1e-12)


def test_coupling_report_ideal_emitter_keeps_bad_emitter_only():
    # zeta = 1 and no jitter collapses F_eff to F_P times the bad-emitter
    # factor; zeta = 0.007 scales that by the branching ratio alone
    ideal = Transition(wavelength=580.8e-9, branching_ratio=1.0,
                       homogeneous_linewidth=3.3e6,
                       free_space_lifetime=2.0e-3)
    report = coupling_report(ideal, GEOMETRY, BARE_580)
    overlap = bad_emitter_factor(report.cavity_linewidth, 3.3e6)
    assert report.effective_purcell == report.nominal_purcell * overlap
    branched = coupling_report(T580, GEOMETRY, BARE_580)
    assert branched.effective_purcell == pytest.approx(
        0.007 * report.effective_purcell, rel=1e-15)


def _sum_of_two(first, second):
    return multimodal_sum([first, second])


# (function, valid arguments): each argument must be finite
_FINITE_ARGUMENTS = [
    (nominal_purcell, (580.8e-9, 17500.0, 1.41e-6)),
    (jitter_suppression, (8e-12, 580.8e-9, 17500.0)),
    (bad_emitter_factor, (1.5e9, 3.3e6)),
    (_sum_of_two, (2.5, 0.47)),
    (purcell_from_lifetimes, (2.0e-3, 1.0e-3)),
    (cavity_lifetime, (2.0e-3, 0.82)),
    (ideal_purcell_from_effective, (1.0, 0.007)),
    (cavity_branching, (1.0, 0.007)),
    (coupling_rate, (3.7, 1.6e9, 3.3e6, 2.0e-3)),
    (cooperativity, (3.5e5, 1.6e9, 3.3e6)),
    (saturation_intensity, (3.3e6, 0.007, 580.8e-9)),
    (saturation_power, (2.0e4, 1.41e-6)),
]


@pytest.mark.parametrize("value", [math.nan, math.inf],
                         ids=["nan", "inf"])
@pytest.mark.parametrize("function, args, position", [
    pytest.param(function, args, position,
                 id=f"{function.__name__.strip('_')}-{position}")
    for function, args in _FINITE_ARGUMENTS
    for position in range(len(args))
])
def test_purcell_helpers_reject_non_finite_arguments(function, args,
                                                     position, value):
    # NaN passed every `< 0` check and came back as a NaN result, and an
    # infinite jitter sigma gave a suppression of 0.0
    function(*args)
    bad = list(args)
    bad[position] = value
    with pytest.raises(ValueError):
        function(*bad)


def test_multimodal_sum():
    assert multimodal_sum([2.5, 0.47]) == pytest.approx(2.97, abs=1e-12)
    assert multimodal_sum([]) == 0.0
    with pytest.raises(ValueError):
        multimodal_sum([2.5, -0.1])


def test_purcell_from_lifetimes():
    assert purcell_from_lifetimes(2.0e-3, 1.0e-3) == pytest.approx(1.0,
                                                                   rel=1e-15)
    with pytest.warns(UserWarning):
        value = purcell_from_lifetimes(1.0e-3, 2.0e-3)
    assert value == pytest.approx(-0.5, rel=1e-15)


def test_lifetime_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        t1 = rng.uniform(1e-4, 1e-2)
        f_eff = rng.uniform(0.0, 10.0)
        shortened = cavity_lifetime(t1, f_eff)
        assert purcell_from_lifetimes(t1, shortened) == pytest.approx(
            f_eff, rel=1e-12, abs=1e-12)


def test_ideal_purcell_and_cavity_branching():
    assert ideal_purcell_from_effective(1.0, 0.007) == pytest.approx(
        1.0 / 0.007, rel=1e-15)
    assert cavity_branching(1.0, 0.007) == pytest.approx(1.007 / 2.0,
                                                         rel=1e-15)
    # no enhancement leaves the free-space branching
    assert cavity_branching(0.0, 0.36) == pytest.approx(0.36, rel=1e-15)


def test_coupling_rate_values():
    assert coupling_rate(3.746322497521133, 1.6094300216436288e9, 3.3e6,
                         2.0e-3) == pytest.approx(0.3466957260083598e6,
                                                  rel=1e-12)
    assert coupling_rate(0.47871306600238506, 2.826886060383636e9, 680e9,
                         2.0e-3) == pytest.approx(2.5501047455783206e6,
                                                  rel=1e-12)


def test_cooperativity_identity():
    # C == F_eff * gamma / Gamma_h (angular) when g comes from the same F_eff
    rng = np.random.default_rng(5)
    for _ in range(50):
        f_eff = rng.uniform(0.01, 10.0)
        kappa = rng.uniform(1e8, 1e10)
        gamma_h = rng.uniform(1e5, 1e12)
        t1 = rng.uniform(1e-4, 1e-2)
        g = coupling_rate(f_eff, kappa, gamma_h, t1)
        expected = f_eff * (1.0 / t1) / (2.0 * math.pi * gamma_h)
        assert cooperativity(g, kappa, gamma_h) == pytest.approx(
            expected, rel=1e-12)


def test_saturation_values():
    intensity = saturation_intensity(3.3e6, 0.007, 580.8e-9)
    assert intensity == pytest.approx(19760.647158636995, rel=1e-12)
    assert saturation_power(intensity, 1.41e-6) == pytest.approx(
        61.710528515288665e-9, rel=1e-12)
    waist = mode_waist(580.8e-9, 25e-6, 5.808e-6)
    assert saturation_power(intensity, waist) == pytest.approx(
        60.585848834606225e-9, rel=1e-9)


def test_coupling_report_table_values():
    loaded_580 = loaded_budget(BARE_580, 70e-9, 580.8e-9)
    report = coupling_report(T580, GEOMETRY, loaded_580)
    assert report.cavity_linewidth == pytest.approx(1.6094300216436288e9,
                                                    rel=1e-9)
    assert report.effective_purcell == pytest.approx(3.746322497521133,
                                                     rel=1e-9)
    assert report.coupling_rate == pytest.approx(0.3466957260083598e6,
                                                 rel=1e-9)
    assert report.cooperativity == pytest.approx(9.034026422679743e-05,
                                                 rel=1e-9)

    loaded_611 = loaded_budget(BARE_611, 70e-9, 611e-9)
    report = coupling_report(T611, GEOMETRY, loaded_611)
    # oracle carried the 611 loss total at coarser rounding
    assert report.cavity_linewidth == pytest.approx(2.826886060383636e9,
                                                    rel=2e-4)
    assert report.effective_purcell == pytest.approx(0.47871306600238506,
                                                     rel=2e-4)
    assert report.coupling_rate == pytest.approx(2.5501047455783206e6,
                                                 rel=2e-4)
    assert report.cooperativity == pytest.approx(5.602172851246789e-11,
                                                 rel=4e-4)


def test_coupling_report_row_shape():
    report = coupling_report(T580, GEOMETRY, BARE_580)
    row = report.to_table_row()
    assert set(row) == {"wavelength", "g", "kappa", "gamma_h", "f_eff",
                        "cooperativity"}
    assert row["gamma_h"] == T580.homogeneous_linewidth


def test_coupling_report_jitter_reduces_enhancement():
    best = coupling_report(T580, GEOMETRY, BARE_580)
    locked = coupling_report(T580, GEOMETRY, BARE_580, jitter_sigma=8e-12)
    assert locked.effective_purcell < best.effective_purcell
    assert locked.nominal_purcell == best.nominal_purcell


def test_jittered_purcell_takes_the_geometry_jitter():
    # the one channel-strength rule that ensemble and planner both call
    loaded = loaded_budget(BARE_580, 60e-9, T580.wavelength)
    locked = coupling_report(T580, GEOMETRY, loaded, jitter_sigma=8e-12)
    assert purcell.jittered_purcell(T580, GEOMETRY, loaded) \
        == locked.effective_purcell
