"""Ensemble statistics against the samplers, and spectral ion counts."""
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from fpcavity import ensemble
from fpcavity import (
    CavityGeometry,
    ExactMoments,
    LossBudget,
    Nanoparticle,
    SpectralPopulation,
    Transition,
    channel_strengths,
    default_hyperfine_classes,
    ensemble_moments,
    ensemble_purcell_stats,
    expected_ions_in_bandwidth,
    ion_count_moments,
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


def test_samplers_return_an_array_of_the_given_size():
    for size in (0, 1, 5):
        for values in (sample_orientation_factor(np.random.default_rng(0),
                                                 size),
                       sample_height(70e-9, np.random.default_rng(0), size)):
            assert isinstance(values, np.ndarray) and values.shape == (size,)
    with pytest.raises(TypeError):
        sample_orientation_factor(np.random.default_rng(0))
    with pytest.raises(TypeError):
        sample_height(70e-9, np.random.default_rng(0))
    with pytest.raises(ValueError, match="^size must be >= 0$"):
        sample_height(70e-9, np.random.default_rng(0), -1)


def test_sample_height_statistics():
    rng = np.random.default_rng(12)
    heights = sample_height(70e-9, rng, size=100_000)
    assert np.all(heights >= 0.0)
    assert np.all(heights <= 70e-9)
    # Beta(2, 2) has mean 1/2 and variance 1/20
    assert abs(np.mean(heights) - 35e-9) < 3.0 * 70e-9 * math.sqrt(1 / 20e5)
    with pytest.raises(ValueError):
        sample_height(0.0, rng, size=1)


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
    frozen = channel_strengths(particle,
                               replace(GEOMETRY, rms_length_jitter=0.0),
                               [T580, T611], BUDGETS)
    assert frozen[0].strength > with_lock[0].strength
    with pytest.raises(ValueError):
        channel_strengths(particle, GEOMETRY, [T580, T611], BUDGETS[:1])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_spectral_population_rejects_non_finite_frequencies(value):
    # each used to give a population whose expected ion count was NaN
    with pytest.raises(ValueError, match="^center_frequency must be finite$"):
        SpectralPopulation(1000, 34e9, center_frequency=value)
    with pytest.raises(ValueError,
                       match="^hyperfine class offsets must be finite$"):
        SpectralPopulation(1000, 34e9,
                           hyperfine_offsets=((0.0, 0.5), (value, 0.5)))
    with pytest.raises(ValueError,
                       match="^hyperfine class weights must be finite$"):
        SpectralPopulation(1000, 34e9,
                           hyperfine_offsets=((0.0, math.nan), (0.0, 1.0)))


@pytest.mark.parametrize("diameter", [40e-9, 70e-9, 100e-9])
@pytest.mark.parametrize("n_samples, seed", [
    (2, 0), (4096, 7), (20_000, 0), (10**7, 2**40)])
def test_ensemble_stats_are_the_exact_moments(diameter, n_samples, seed):
    # the count and the seed are checked, move no number and are not kept
    particle = Nanoparticle(diameter, 0.003)
    stats = ensemble_purcell_stats(particle, GEOMETRY, [T580, T611],
                                   BUDGETS, n_samples=n_samples, seed=seed)
    channels = channel_strengths(particle, GEOMETRY, [T580, T611], BUDGETS)
    exact = ensemble_moments(channels, diameter)
    assert (stats.mean, stats.std) == (exact.mean, exact.std)
    assert stats.max == math.fsum(c.strength for c in channels)
    assert stats == ensemble_purcell_stats(particle, GEOMETRY, [T580, T611],
                                           BUDGETS)
    assert stats.to_dict() == {"mean": exact.mean, "std": exact.std,
                               "max": stats.max, "method": "exact"}


@pytest.mark.parametrize("diameter, fraction, expected", [
    (70e-9, 0.15,
     (0.9153968752793317, 0.8261733831176715, 3.0065425100341483)),
    (55e-9, 0.3,
     (0.6884001837944466, 0.6382502636564916, 3.100317156547685)),
], ids=["70nm", "55nm"])
def test_ensemble_stats_are_pinned_bit_for_bit(diameter, fraction, expected):
    # the closed form's arithmetic may be reordered in code, never in value
    stats = ensemble_purcell_stats(
        Nanoparticle(diameter, 0.003), GEOMETRY, [T580, T611], BUDGETS,
        n_samples=8192, seed=123, antinode_offset_fraction=fraction)
    assert (stats.mean, stats.std, stats.max) == expected


def test_ensemble_stats_keep_the_count_and_seed_rules():
    particle = Nanoparticle(70e-9, 0.003)

    def stats(**kwargs):
        return ensemble_purcell_stats(particle, GEOMETRY, [T580, T611],
                                      BUDGETS, **kwargs)

    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        stats(seed=-1)
    for seed in (1.5, None):
        with pytest.raises(TypeError):
            stats(seed=seed)
    for n_samples in (1, True):
        with pytest.raises(ValueError, match="^n_samples must be >= 2$"):
            stats(n_samples=n_samples)
    with pytest.raises(TypeError):
        stats(n_samples=2.5)


def test_orientation_factor_is_the_square_of_one_uniform_bitwise():
    for size in (1, 7, 4096):
        u = np.random.default_rng(size).random(size)
        factors = sample_orientation_factor(np.random.default_rng(size),
                                            size=size)
        assert factors.tobytes() == (u * u).tobytes()


def test_height_is_the_inverse_beta_cdf_of_one_uniform_bitwise():
    for size in (1, 7, 4096):
        u = np.random.default_rng(size).random(size)
        expected = 70e-9 * (0.5 + np.sin(np.arcsin(2.0 * u - 1.0) / 3.0))
        heights = sample_height(70e-9, np.random.default_rng(size),
                                size=size)
        assert heights.tobytes() == expected.tobytes()


def _ks_pvalue(sample, cdf):
    """Kolmogorov-Smirnov p-value of ``sample`` against ``cdf``: the largest
    gap D between the empirical and the model CDF, and P(K > sqrt(n) D) from
    the Kolmogorov series 2 sum_j (-1)^(j-1) exp(-2 j^2 lambda^2)."""
    n = sample.size
    model = cdf(np.sort(sample))
    above = np.arange(1, n + 1) / n
    gap = max(float(np.max(above - model)),
              float(np.max(model - (above - 1.0 / n))))
    lam = math.sqrt(n) * gap
    series = 2.0 * math.fsum((-1) ** (j - 1) * math.exp(-2.0 * (j * lam) ** 2)
                             for j in range(1, 101))
    return min(1.0, max(0.0, series))


def test_samplers_follow_their_exact_distributions():
    # independent oracles: the Beta(2, 2) CDF 3t^2 - 2t^3 and the CDF
    # sqrt(o) of the square of a uniform |d . e|, each in a KS test
    n = 10**6
    rng = np.random.default_rng(2024)
    factors = sample_orientation_factor(rng, size=n)
    t = sample_height(1.0, rng, size=n)
    assert _ks_pvalue(factors, lambda o: np.sqrt(np.clip(o, 0.0, 1.0))) \
        > 0.01
    assert _ks_pvalue(t, lambda t: 3.0 * t**2 - 2.0 * t**3) > 0.01
    # E[o] = 1/3 (variance 4/45), E[o^2] = 1/5 (variance 1/9 - 1/25), and
    # Var[t] = 1/20, whose estimate has variance (3/560 - 1/400) / n
    for estimate, exact, variance in (
            (np.mean(factors), 1.0 / 3.0, 4.0 / 45.0),
            (np.mean(factors**2), 1.0 / 5.0, 1.0 / 9.0 - 1.0 / 25.0),
            (np.var(t), 1.0 / 20.0, 3.0 / 560.0 - 1.0 / 400.0)):
        assert abs(estimate - exact) < 4.0 * math.sqrt(variance / n)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_T = 0.5 * (_GL_NODES + 1.0)
# Beta(2, 2) density 6 t (1 - t) times the quadrature weights on [0, 1]
_GL_BETA22 = 0.5 * _GL_WEIGHTS * 6.0 * _GL_T * (1.0 - _GL_T)


def _exact_ensemble_moments(particle, fraction):
    """Mean, std and fourth central moment of orientation * sum_c s_c
    sin^2(k_c (z + z0_c)) by Gauss-Legendre quadrature over the Beta(2, 2)
    height, with E[o^k] = 1 / (2k + 1) for o the square of a uniform."""
    channels = channel_strengths(particle, GEOMETRY, [T580, T611], BUDGETS)
    position = sum(c.strength * np.sin(2.0 * math.pi * (
        particle.diameter * _GL_T + fraction * c.wavelength)
        / c.wavelength) ** 2 for c in channels)
    raw = [float(np.sum(_GL_BETA22 * position**k)) / (2 * k + 1)
           for k in range(5)]
    mean = raw[1]
    variance = raw[2] - mean**2
    fourth = raw[4] - 4 * mean * raw[3] + 6 * mean**2 * raw[2] \
        - 3 * mean**4
    return mean, math.sqrt(variance), fourth


def _sampled_ensemble(particle, rng, n, fraction=0.15):
    """``n`` ions drawn one by one with the public samplers: orientation
    times the strength-weighted standing waves at a shared height."""
    orientation = sample_orientation_factor(rng, n)
    heights = sample_height(particle.diameter, rng, n)
    channels = channel_strengths(particle, GEOMETRY, [T580, T611], BUDGETS)
    return orientation * sum(
        c.strength * standing_wave_factor(heights, c.wavelength,
                                          fraction * c.wavelength)
        for c in channels)


@pytest.mark.parametrize("diameter", [40e-9, 70e-9, 100e-9])
def test_ensemble_stats_pull_against_sampled_ensembles(diameter):
    particle = Nanoparticle(diameter, 0.003)
    stats = ensemble_purcell_stats(particle, GEOMETRY, [T580, T611],
                                   BUDGETS)
    mean, std = stats.mean, stats.std
    _, _, fourth = _exact_ensemble_moments(particle, 0.15)
    n, seeds = 4096, 100
    samples = [_sampled_ensemble(particle, np.random.default_rng(seed), n)
               for seed in range(seeds)]
    mean_pulls = np.array([(np.mean(x) - mean) / (std / math.sqrt(n))
                           for x in samples])
    # the sample std has standard error sqrt(mu4 - sigma^4) / (2 sigma
    # sqrt(n)) to leading order; its O(1/n) bias is far below that here
    std_error = math.sqrt(fourth - std**4) / (2.0 * std * math.sqrt(n))
    std_pulls = np.array([(np.std(x, ddof=1) - std) / std_error
                          for x in samples])
    for pulls in (mean_pulls, std_pulls):
        # the average pull of 100 seeds has standard error 1/10; the
        # pulls' spread is 1 with standard error about 1/sqrt(200)
        assert abs(np.mean(pulls)) < 4.0 / math.sqrt(seeds)
        assert abs(np.std(pulls, ddof=1) - 1.0) < 4.0 / math.sqrt(2 * seeds)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_ensemble_layer_rejects_non_finite_inputs(value):
    # each used to return NaN, or mean=nan with std=0.0 from the ensemble
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="diameter must be finite"):
        sample_height(value, rng, size=3)
    with pytest.raises(ValueError, match="wavelength must be finite"):
        standing_wave_factor(np.zeros(3), value, 0.0)
    with pytest.raises(ValueError, match="antinode_offset must be finite"):
        standing_wave_factor(np.zeros(3), 580.8e-9, value)
    with pytest.raises(ValueError,
                       match="antinode_offset_fraction must be finite"):
        ensemble_purcell_stats(Nanoparticle(70e-9, 0.003), GEOMETRY,
                               [T580, T611], BUDGETS, n_samples=10,
                               antinode_offset_fraction=value)


def test_ensemble_stats_structure():
    particle = Nanoparticle(70e-9, 0.003)
    stats = ensemble_purcell_stats(particle, GEOMETRY, [T580, T611], BUDGETS,
                                   n_samples=6000, seed=0)
    channels = channel_strengths(particle, GEOMETRY, [T580, T611], BUDGETS)
    # the max field is the analytic ceiling, not a sample maximum
    assert stats.max == math.fsum(c.strength for c in channels)
    assert 0.0 < stats.mean < stats.max
    assert stats.std > 0.0
    assert stats.method == "exact"
    with pytest.raises(ValueError):
        ensemble_purcell_stats(particle, GEOMETRY, [T580, T611], BUDGETS,
                               n_samples=1)


def test_ensemble_takes_any_size_from_two():
    particle = Nanoparticle(70e-9, 0.003)
    default = ensemble_purcell_stats(particle, GEOMETRY, [T580, T611],
                                     BUDGETS)
    for n in (2, 4095, 4096, 4097):
        assert ensemble_purcell_stats(particle, GEOMETRY, [T580, T611],
                                      BUDGETS, n_samples=n, seed=0) == default


def test_total_ion_count():
    assert total_ion_count(Nanoparticle(60e-9, 0.003)) == 18118
    assert total_ion_count(Nanoparticle(90e-9, 0.003)) == 61149
    # the particle itself refuses a diameter past MAX_DIAMETER, so the
    # volume can no longer overflow a float
    with pytest.raises(ValueError, match=r"diameter must be in \(0, 1e-06\]"):
        total_ion_count(Nanoparticle(1e200, 0.003))


def test_spectral_population_takes_at_most_an_int64_of_ions():
    # numpy's binomial draw takes a C int64 trial count
    SpectralPopulation(total_ions=2**63 - 1, inhomogeneous_fwhm=34e9)
    with pytest.raises(ValueError, match="total_ions must be <= "):
        SpectralPopulation(total_ions=2**63, inhomogeneous_fwhm=34e9)


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
    with pytest.raises(ValueError,
                       match="^hyperfine_offsets must not be empty$"):
        SpectralPopulation(1000, 34e9, 0.0, ())


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
    exact = ion_count_moments(population, 0.0, 13e6)
    mean, std = exact.mean, exact.std
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


def _placed_counts(population, probe_fwhm, grid, rng):
    """Per-ion oracle: place every ion, then count each window's ions.

    Each ion draws its hyperfine class from the class weights and its
    frequency from the class's Lorentzian by the inverse CDF, two uniforms
    per ion; memory and time grow with the ion count.
    """
    offsets = np.array([off for off, _ in population.hyperfine_offsets])
    edges = np.cumsum([w for _, w in population.hyperfine_offsets])
    edges[-1] = 1.0
    classes = np.searchsorted(edges, rng.random(population.total_ions),
                              side="right")
    u = rng.random(population.total_ions)
    centers = np.sort(population.center_frequency + offsets[classes]
                      + 0.5 * population.inhomogeneous_fwhm
                      * np.tan(math.pi * (u - 0.5)))
    grid = np.asarray(grid, dtype=float)
    half = 0.5 * probe_fwhm
    return (np.searchsorted(centers, grid + half, side="right")
            - np.searchsorted(centers, grid - half, side="left"))


def _moments(counts):
    """Window means, variances and adjacent covariances with their SEs."""
    n = len(counts)
    dev = counts - counts.mean(axis=0)
    var = np.mean(dev**2, axis=0)
    cross = dev[:, :-1] * dev[:, 1:]
    return {
        "mean": (counts.mean(axis=0), np.sqrt(var / n)),
        "var": (var, np.sqrt((np.mean(dev**4, axis=0) - var**2) / n)),
        "cov": (cross.mean(axis=0), cross.std(axis=0) / math.sqrt(n)),
    }


def test_sfs_moments_match_per_ion_placement_and_the_exact_law():
    # overlapping 13 MHz windows 6.5 MHz apart at the line center; the bin
    # counts of iid ions are Multinomial(N, p) (Feller, An Introduction to
    # Probability Theory, vol. 1, ch. VI), so a window holds N p ions on
    # average with variance N p (1 - p), and two windows overlapping in a
    # band of probability q covary by N (q - p_a p_b)
    population = SpectralPopulation(
        total_ions=18118, inhomogeneous_fwhm=34e9,
        hyperfine_offsets=default_hyperfine_classes())
    n = population.total_ions
    grid = np.arange(-2, 3) * 6.5e6
    seeds = range(1000)
    drawn = np.array([sfs_spectrum(population, 13e6, grid, seed=s).y
                      for s in seeds])
    placed = np.array([
        _placed_counts(population, 13e6, grid, np.random.default_rng(s))
        for s in seeds], dtype=float)
    p = np.array([expected_ions_in_bandwidth(population, f, 13e6)
                  for f in grid]) / n
    q = np.array([expected_ions_in_bandwidth(population, f, 6.5e6)
                  for f in 0.5 * (grid[:-1] + grid[1:])]) / n
    exact = {"mean": n * p, "var": n * p * (1.0 - p),
             "cov": n * (q - p[:-1] * p[1:])}
    ours, oracle = _moments(drawn), _moments(placed)
    for name, value in exact.items():
        ours_value, ours_se = ours[name]
        oracle_value, oracle_se = oracle[name]
        assert np.all(np.abs(ours_value - value) <= 4.0 * ours_se), name
        assert np.all(np.abs(oracle_value - value) <= 4.0 * oracle_se), name
        assert np.all(np.abs(ours_value - oracle_value)
                      <= 4.0 * np.hypot(ours_se, oracle_se)), name
    # the overlap is real: adjacent windows covary strongly
    assert np.all(exact["cov"] > 0.4 * exact["var"][:-1])


def test_sfs_window_means_equal_the_expected_ion_count():
    population = SpectralPopulation(
        total_ions=28771, inhomogeneous_fwhm=34e9,
        hyperfine_offsets=default_hyperfine_classes())
    grid = np.linspace(-68e9, 68e9, 401)
    counts, expected = ensemble._window_counts(population, 13e6, grid, 0)
    scalar = [expected_ions_in_bandwidth(population, f, 13e6) for f in grid]
    assert np.allclose(expected, scalar, rtol=1e-9, atol=0.0)
    assert np.all(counts == np.floor(counts))
    assert np.all(counts >= 0.0)


def test_sfs_takes_an_unsorted_grid_with_repeated_points():
    population = SpectralPopulation(total_ions=20000,
                                    inhomogeneous_fwhm=34e9)
    grid = np.linspace(-50e6, 50e6, 41)
    order = np.concatenate((np.random.default_rng(0).permutation(41),
                            [3, 3, 17, 40]))
    sorted_trace = sfs_spectrum(population, 13e6, grid, seed=5)
    shuffled = sfs_spectrum(population, 13e6, grid[order], seed=5)
    assert np.array_equal(shuffled.y, sorted_trace.y[order])
    assert np.array_equal(shuffled.x, grid[order])


def test_sfs_at_the_int64_ion_limit():
    # per-ion placement raised MemoryError here
    population = SpectralPopulation(
        total_ions=ensemble._MAX_IONS, inhomogeneous_fwhm=34e9,
        hyperfine_offsets=default_hyperfine_classes())
    grid = np.linspace(-68e9, 68e9, 401)
    counts, expected = ensemble._window_counts(population, 13e6, grid, 0)
    # the relative spread of a count of 1e15 ions is about 3e-8
    assert np.allclose(counts, expected, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("total_ions", [10**6, 10**12])
def test_sfs_memory_does_not_grow_with_the_ion_count(total_ions):
    population = SpectralPopulation(
        total_ions=total_ions, inhomogeneous_fwhm=34e9,
        hyperfine_offsets=default_hyperfine_classes())
    grid = np.linspace(-68e9, 68e9, 401)
    sfs_spectrum(population, 13e6, grid, seed=1)
    tracemalloc.start()
    try:
        sfs_spectrum(population, 13e6, grid, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_ensemble_memory_does_not_grow_with_n_samples():
    n_samples = 10**6
    particle = Nanoparticle(70e-9, 0.003)

    def run():
        return ensemble_purcell_stats(particle, GEOMETRY, [T580, T611],
                                      BUDGETS, n_samples=n_samples, seed=3)

    expected = run()
    tracemalloc.start()
    try:
        stats = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats == expected
    assert peak < 1_000_000


def test_standing_wave_factor_leaves_its_input_alone():
    lam = 580.8e-9
    heights = np.linspace(0.0, 70e-9, 11)
    before = heights.copy()
    values = standing_wave_factor(heights, lam, 0.15 * lam)
    assert np.array_equal(heights, before)
    assert not np.shares_memory(values, heights)
    assert np.array_equal(values, np.sin(2.0 * math.pi * (before + 0.15 * lam)
                                         / lam) ** 2)
    # a scalar height gives a scalar
    assert type(standing_wave_factor(10e-9, lam, 0.0)) is np.float64


def _parent_expected_ions(population, probe_frequency, bandwidth):
    """The scalar expectation, one class at a time, as first written."""
    half = 0.5 * population.inhomogeneous_fwhm
    lo = probe_frequency - 0.5 * bandwidth
    hi = probe_frequency + 0.5 * bandwidth

    def cdf(delta):
        return 0.5 + math.atan(delta / half) / math.pi

    expectation = 0.0
    for offset, weight in population.hyperfine_offsets:
        center = population.center_frequency + offset
        expectation += weight * (cdf(hi - center) - cdf(lo - center))
    return population.total_ions * expectation


@pytest.mark.parametrize("total_ions, fwhm, center, classes", [
    (61149, 34e9, 0.0, ((0.0, 1.0),)),
    (18118, 30.5e9, 0.0, default_hyperfine_classes()),
    (28771, 1e6, 5.2e14, default_hyperfine_classes()),
    (1000, 34e9, -3e9, ((0.0, 0.5), (1e6, 0.5 + 5e-7))),
])
def test_expected_ions_in_bandwidth_keeps_the_scalar_bits(
        total_ions, fwhm, center, classes):
    # it feeds the seeded binomial draw of purcell and the demos
    population = SpectralPopulation(total_ions=total_ions,
                                    inhomogeneous_fwhm=fwhm,
                                    center_frequency=center,
                                    hyperfine_offsets=classes)
    # numpy's arctan differs from math.atan in the last bit for about one
    # argument in a thousand, so the probes sweep the line densely
    probes = center + np.linspace(-3.0, 3.0, 301) * fwhm
    for probe in (*probes.tolist(), center + 1.3e6, center + 1e12):
        for bandwidth in (13e6, 1e3, 5e9, 1e30):
            ours = expected_ions_in_bandwidth(population, probe, bandwidth)
            assert type(ours) is float
            assert ours.hex() == _parent_expected_ions(
                population, probe, bandwidth).hex()


def test_spectral_boundaries_reject_non_finite_numbers():
    population = SpectralPopulation(total_ions=20000,
                                    inhomogeneous_fwhm=34e9)
    grid = np.linspace(-50e6, 50e6, 11)
    for rate in (math.nan, math.inf):
        with pytest.raises(ValueError, match="rate_per_ion must be finite"):
            sfs_spectrum(population, 13e6, grid, rate_per_ion=rate)
    with pytest.raises(ValueError, match="grid must be a 1-d array"):
        sfs_spectrum(population, 13e6, grid.reshape(1, -1))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^grid must be finite$"):
            sfs_spectrum(population, 13e6, np.append(grid, bad))
        with pytest.raises(ValueError, match="probe_fwhm must be finite"):
            sfs_spectrum(population, bad, grid)
        with pytest.raises(ValueError,
                           match="probe_frequency must be finite"):
            expected_ions_in_bandwidth(population, bad, 13e6)
        with pytest.raises(ValueError,
                           match="probe_frequency must be finite"):
            ions_in_bandwidth(population, bad, 13e6)


# an independent oracle for the closed form: a 256-node Gauss-Legendre rule
# over the Beta(2, 2) height, with E[o] = 1/3 and E[o^2] = 1/5
_GL256_NODES, _GL256_WEIGHTS = np.polynomial.legendre.leggauss(256)
_GL256_T = 0.5 * (_GL256_NODES + 1.0)
_GL256_BETA22 = 0.5 * _GL256_WEIGHTS * 6.0 * _GL256_T * (1.0 - _GL256_T)


@pytest.mark.parametrize("fraction", [0.0, 0.15, 0.4])
@pytest.mark.parametrize("transitions", [[T580], [T611], [T580, T611]],
                         ids=["580", "611", "both"])
@pytest.mark.parametrize("diameter", np.geomspace(1e-9, 1e-6, 7).tolist())
def test_ensemble_moments_match_quadrature(diameter, transitions, fraction):
    particle = Nanoparticle(diameter, 0.003)
    budgets = [BUDGETS[1]] if transitions == [T611] else \
        BUDGETS[:len(transitions)]
    channels = channel_strengths(particle, GEOMETRY, transitions, budgets)
    position = sum(c.strength * np.sin(2.0 * math.pi * (
        diameter * _GL256_T + fraction * c.wavelength) / c.wavelength) ** 2
        for c in channels)
    mean = math.fsum((_GL256_BETA22 * position).tolist()) / 3.0
    second = math.fsum((_GL256_BETA22 * position**2).tolist()) / 5.0
    exact = ensemble_moments(channels, diameter,
                             antinode_offset_fraction=fraction)
    assert exact.method == "exact"
    assert exact.mean == pytest.approx(mean, rel=1e-12, abs=0.0)
    assert exact.std == pytest.approx(math.sqrt(second - mean**2),
                                      rel=1e-12, abs=0.0)


def test_characteristic_function_rest_is_continuous_at_the_series_edge():
    rest = ensemble._quartic_rest
    edge = math.sqrt(ensemble._SERIES_BELOW)
    below = math.nextafter(edge, 0.0)  # the last point of the series
    assert below * below < ensemble._SERIES_BELOW <= edge * edge
    assert rest(below) == pytest.approx(rest(edge), rel=1e-13, abs=0.0)
    assert rest(-edge) == rest(edge) and rest(0.0) == 0.0  # even, O(x^4)
    # both branches against the series summed in exact arithmetic:
    # 3 (sin x - x cos x) / x^3 = sum (-1)^m 6 (m + 1) x^2m / (2m + 3)!
    for x in (1e-3, 0.3, below, edge, 2.0, 20.0):
        exact = sum((-1) ** m * 6 * (m + 1) * Fraction(x) ** (2 * m)
                    / math.factorial(2 * m + 3) for m in range(2, 80))
        assert rest(x) == pytest.approx(float(exact), rel=1e-13, abs=0.0)


def test_ensemble_moments_reject_a_non_positive_diameter():
    channels = channel_strengths(Nanoparticle(70e-9, 0.003), GEOMETRY,
                                 [T580, T611], BUDGETS)
    for bad in (0.0, -70e-9):
        with pytest.raises(ValueError, match="diameter must be positive"):
            ensemble_moments(channels, bad)


def test_ion_count_moments_are_the_binomial_moments():
    population = SpectralPopulation(
        total_ions=61149, inhomogeneous_fwhm=34e9,
        hyperfine_offsets=default_hyperfine_classes())
    exact = ion_count_moments(population, 0.0, 13e6)
    assert exact.method == "exact"
    n = population.total_ions
    p = expected_ions_in_bandwidth(population, 0.0, 13e6) / n
    # independent oracle: the moments summed over the binomial pmf, which
    # runs from (1 - p)^n by P(k + 1) / P(k) = (n - k) p / ((k + 1) (1 - p))
    pmf, term = [], (1.0 - p) ** n
    for k in range(n + 1):
        pmf.append(term)
        term *= (n - k) * p / ((k + 1) * (1.0 - p))
    total = math.fsum(pmf)
    mean = math.fsum(k * q for k, q in enumerate(pmf)) / total
    variance = math.fsum((k - mean) ** 2 * q
                         for k, q in enumerate(pmf)) / total
    assert exact.mean == pytest.approx(mean, rel=1e-14)
    assert exact.std == pytest.approx(math.sqrt(variance), rel=1e-14)
    # the bundled config's figure: 14.88 +/- 3.86 ions in a 13 MHz probe
    assert (round(exact.mean, 2), round(exact.std, 2)) == (14.88, 3.86)
    # a window past the whole line clamps p to 1: every ion, no spread
    wide = SpectralPopulation(total_ions=1000, inhomogeneous_fwhm=34e9,
                              hyperfine_offsets=((0.0, 0.5),
                                                 (1e6, 0.5 + 5e-7)))
    assert ion_count_moments(wide, 0.0, 1e30) == ExactMoments(1000.0, 0.0)

