"""Monte Carlo ensemble statistics and spectral ion-count sampling."""
import math

import numpy as np
import pytest

from fpcavity import (
    CavityGeometry,
    LossBudget,
    Nanoparticle,
    SpectralPopulation,
    Transition,
    channel_strengths,
    default_hyperfine_classes,
    ensemble_purcell_stats,
    expected_ions_in_bandwidth,
    ions_in_bandwidth,
    sample_height,
    sample_orientation_factor,
    sfs_spectrum,
    standing_wave_factor,
    total_ion_count,
)

T580 = Transition(wavelength=580.8e-9, branching_ratio=0.007,
                  homogeneous_linewidth=3.3e6, free_space_lifetime=2.0e-3)
T611 = Transition(wavelength=611e-9, branching_ratio=0.36,
                  homogeneous_linewidth=680e9, free_space_lifetime=2.0e-3)
GEOMETRY = CavityGeometry(25e-6, 5.808e-6, 20, 8e-12)
BUDGETS = [LossBudget(25.0, 200.0, 134.04), LossBudget(25.0, 200.0, 436.39)]


def test_orientation_factor_statistics():
    rng = np.random.default_rng(11)
    factors = sample_orientation_factor(rng, size=100_000)
    assert np.all(factors >= 0.0)
    assert np.all(factors <= 1.0)
    # mean is exactly 1/3, variance 4/45: 3 sigma on 1e5 samples
    assert abs(np.mean(factors) - 1.0 / 3.0) < 3.0 * math.sqrt(4.0 / 45.0e5)


def test_orientation_factor_scalar():
    value = sample_orientation_factor(np.random.default_rng(0))
    assert isinstance(value, float)
    assert 0.0 <= value <= 1.0


def test_sample_height_statistics():
    rng = np.random.default_rng(12)
    heights = sample_height(70e-9, rng, size=100_000)
    assert np.all(heights >= 0.0)
    assert np.all(heights <= 70e-9)
    # Beta(2, 2) has mean 1/2 and variance 1/20
    assert abs(np.mean(heights) - 35e-9) < 3.0 * 70e-9 * math.sqrt(1 / 20e5)
    with pytest.raises(ValueError):
        sample_height(0.0, rng)


def test_standing_wave_factor_shape():
    lam = 580.8e-9
    z = np.linspace(0.0, lam, 101)
    values = standing_wave_factor(z, lam, 0.0)
    assert np.all(values >= 0.0)
    assert np.all(values <= 1.0)
    # half-wavelength periodicity
    assert np.allclose(values, standing_wave_factor(z + lam / 2.0, lam, 0.0),
                       atol=1e-12)
    # an offset of lambda/4 puts z = 0 on the antinode
    assert standing_wave_factor(0.0, lam, lam / 4.0) == pytest.approx(
        1.0, abs=1e-12)
    assert standing_wave_factor(0.0, lam, 0.0) == 0.0


def test_position_factor_means():
    # independent expectations from quadrature over the Beta(2, 2) profile
    rng = np.random.default_rng(13)
    for diameter, offset, expected in (
            (60e-9, 0.0, 0.11821395197042431),
            (70e-9, 0.15 * 580.8e-9, 0.9142816350941276)):
        heights = sample_height(diameter, rng, size=200_000)
        mean = np.mean(standing_wave_factor(heights, 580.8e-9, offset))
        assert mean == pytest.approx(expected, abs=1.5e-3)


def test_channel_strengths_values():
    particle = Nanoparticle(60e-9, 0.003)
    channels = channel_strengths(particle, GEOMETRY, [T580, T611], BUDGETS)
    assert [c.wavelength for c in channels] == [580.8e-9, 611e-9]
    assert channels[0].strength == pytest.approx(2.6744597928556337,
                                                 rel=1e-9)
    assert channels[1].strength == pytest.approx(0.4055910179510154,
                                                 rel=2e-4)
    assert channels[0].strength + channels[1].strength == pytest.approx(
        3.0800508108066493, rel=2e-4)


def test_channel_strengths_jitter_override():
    particle = Nanoparticle(60e-9, 0.003)
    with_lock = channel_strengths(particle, GEOMETRY, [T580, T611], BUDGETS)
    frozen = channel_strengths(particle, GEOMETRY, [T580, T611], BUDGETS,
                               jitter_sigma=0.0)
    assert frozen[0].strength > with_lock[0].strength
    with pytest.raises(ValueError):
        channel_strengths(particle, GEOMETRY, [T580, T611], BUDGETS[:1])


def test_ensemble_determinism_and_block_layout():
    particle = Nanoparticle(70e-9, 0.003)
    kwargs = dict(n_samples=10_000, seed=42)
    one = ensemble_purcell_stats(particle, GEOMETRY, [T580, T611], BUDGETS,
                                 **kwargs)
    again = ensemble_purcell_stats(particle, GEOMETRY, [T580, T611], BUDGETS,
                                   **kwargs)
    assert one == again
    # exact values pin the fixed 4096-sample blocks and their Philox streams
    assert one.mean == 0.9100898683893335
    assert one.std == 0.8284095025471709
    assert one.max == 3.0065425100341483
    other = ensemble_purcell_stats(particle, GEOMETRY, [T580, T611], BUDGETS,
                                   n_samples=10_000, seed=43)
    assert other.mean != one.mean


@pytest.mark.parametrize("diameter, n_samples, seed, fraction, expected", [
    # two full blocks and a partial one of 3712 samples
    (70e-9, 12_000, 7, 0.15,
     (0.9080731886688715, 0.8291551521617512, 3.0065425100341483)),
    # exactly two full blocks
    (55e-9, 8192, 123, 0.3,
     (0.6902569116251958, 0.6403153227031227, 3.100317156547685)),
], ids=["partial-last-block", "full-blocks"])
def test_ensemble_stats_are_pinned_bit_for_bit(diameter, n_samples, seed,
                                               fraction, expected):
    # the per-sample arithmetic may be reordered in memory, never in value
    stats = ensemble_purcell_stats(
        Nanoparticle(diameter, 0.003), GEOMETRY, [T580, T611], BUDGETS,
        n_samples=n_samples, seed=seed, antinode_offset_fraction=fraction)
    assert (stats.mean, stats.std, stats.max) == expected
    assert (stats.n_samples, stats.seed) == (n_samples, seed)


def test_orientation_factor_matches_normalised_gaussians_bitwise():
    for size in (1, 7, 4096):
        vectors = np.random.default_rng(size).normal(size=(size, 3))
        expected = vectors[:, 0] ** 2 / np.sum(vectors**2, axis=1)
        factors = sample_orientation_factor(np.random.default_rng(size),
                                            size=size)
        assert factors.tobytes() == expected.tobytes()


def test_ensemble_stats_structure():
    particle = Nanoparticle(70e-9, 0.003)
    stats = ensemble_purcell_stats(particle, GEOMETRY, [T580, T611], BUDGETS,
                                   n_samples=6000, seed=0)
    channels = channel_strengths(particle, GEOMETRY, [T580, T611], BUDGETS)
    # the max field is the analytic ceiling, not a sample maximum
    assert stats.max == math.fsum(c.strength for c in channels)
    assert 0.0 < stats.mean < stats.max
    assert stats.std > 0.0
    assert stats.n_samples == 6000
    with pytest.raises(ValueError):
        ensemble_purcell_stats(particle, GEOMETRY, [T580, T611], BUDGETS,
                               n_samples=1)


def test_ensemble_partial_block_sizes():
    particle = Nanoparticle(70e-9, 0.003)
    # sizes straddling the block length must all work
    for n in (2, 4095, 4096, 4097):
        stats = ensemble_purcell_stats(particle, GEOMETRY, [T580, T611],
                                       BUDGETS, n_samples=n, seed=0)
        assert stats.n_samples == n


def test_total_ion_count():
    assert total_ion_count(Nanoparticle(60e-9, 0.003)) == 18118
    assert total_ion_count(Nanoparticle(90e-9, 0.003)) == 61149


def test_default_hyperfine_classes():
    classes = default_hyperfine_classes()
    assert len(classes) == 18
    assert math.fsum(w for _, w in classes) == pytest.approx(1.0, abs=1e-12)
    assert all(w > 0.0 for _, w in classes)


def test_spectral_population_validation():
    with pytest.raises(ValueError):
        SpectralPopulation(total_ions=0, inhomogeneous_fwhm=34e9)
    with pytest.raises(ValueError):
        SpectralPopulation(total_ions=100, inhomogeneous_fwhm=0.0)
    with pytest.raises(ValueError):
        SpectralPopulation(total_ions=100, inhomogeneous_fwhm=34e9,
                           hyperfine_offsets=((0.0, 0.7), (1e6, 0.2)))


def test_expected_ions_single_class():
    population = SpectralPopulation(total_ions=61149,
                                    inhomogeneous_fwhm=34e9)
    expected = expected_ions_in_bandwidth(population, 0.0, 13e6)
    closed = 61149 * 2.0 / math.pi * math.atan(13e6 / 34e9)
    assert expected == pytest.approx(closed, rel=1e-9)
    # reference figure carried the pre-rounded ion count
    assert expected == pytest.approx(14.884464705882353, rel=1e-5)
    # far detuning catches almost nothing
    assert expected_ions_in_bandwidth(population, 1e12, 13e6) < 1e-2 * expected


def test_expected_ions_hyperfine_insensitive():
    population = SpectralPopulation(
        total_ions=61149, inhomogeneous_fwhm=34e9,
        hyperfine_offsets=default_hyperfine_classes())
    expected = expected_ions_in_bandwidth(population, 0.0, 13e6)
    assert expected == pytest.approx(14.884464705882353, rel=1e-3)


def test_ions_in_bandwidth_statistics():
    population = SpectralPopulation(total_ions=61149,
                                    inhomogeneous_fwhm=34e9)
    stats = ions_in_bandwidth(population, 0.0, 13e6, seed=0, n_draws=100)
    again = ions_in_bandwidth(population, 0.0, 13e6, seed=0, n_draws=100)
    assert stats == again
    expected = expected_ions_in_bandwidth(population, 0.0, 13e6)
    assert stats.mean == pytest.approx(expected, abs=1.6)
    assert stats.std > 0.0
    other = ions_in_bandwidth(population, 0.0, 13e6, seed=5, n_draws=100)
    assert other.mean != stats.mean
    with pytest.raises(ValueError):
        ions_in_bandwidth(population, 0.0, 0.0)


def test_ions_in_bandwidth_matches_binomial():
    population = SpectralPopulation(
        total_ions=61149, inhomogeneous_fwhm=34e9,
        hyperfine_offsets=default_hyperfine_classes())
    n = population.total_ions
    p = expected_ions_in_bandwidth(population, 0.0, 13e6) / n
    mean, std = n * p, math.sqrt(n * p * (1.0 - p))
    draws = 300
    for seed in range(5):
        stats = ions_in_bandwidth(population, 0.0, 13e6, seed=seed,
                                  n_draws=draws)
        assert abs(stats.mean - mean) <= 4.0 * std / math.sqrt(draws)
        assert abs(stats.std - std) <= 4.0 * std / math.sqrt(2 * (draws - 1))


def test_ions_in_bandwidth_wide_window_clamps_probability():
    # weights summing to 1 + 5e-7 pass validation; a window covering the
    # whole line then has an expected fraction just above 1
    population = SpectralPopulation(
        total_ions=1000, inhomogeneous_fwhm=34e9,
        hyperfine_offsets=((0.0, 0.5), (1e6, 0.5 + 5e-7)))
    assert expected_ions_in_bandwidth(population, 0.0, 1e30) > 1000
    stats = ions_in_bandwidth(population, 0.0, 1e30, n_draws=10)
    assert stats.mean == 1000.0
    assert stats.std == 0.0


def test_sfs_spectrum():
    population = SpectralPopulation(total_ions=20000,
                                    inhomogeneous_fwhm=34e9)
    grid = np.linspace(-50e6, 50e6, 201)
    trace = sfs_spectrum(population, 13e6, grid, rate_per_ion=10.0, seed=3)
    again = sfs_spectrum(population, 13e6, grid, rate_per_ion=10.0, seed=3)
    assert np.array_equal(trace.y, again.y)
    assert np.all(trace.y >= 0.0)
    # counts scale linearly with the per-ion rate
    doubled = sfs_spectrum(population, 13e6, grid, rate_per_ion=20.0, seed=3)
    assert np.allclose(doubled.y, 2.0 * trace.y, rtol=0.0, atol=0.0)
    assert trace.noise_model == "ion-placement"
    different = sfs_spectrum(population, 13e6, grid, rate_per_ion=10.0,
                             seed=4)
    assert not np.array_equal(trace.y, different.y)
    with pytest.raises(ValueError):
        sfs_spectrum(population, 0.0, grid)
