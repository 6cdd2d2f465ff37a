"""Monte Carlo statistics of emitters inside a nanoparticle.

Two sampling problems live here.  The geometric one: dipole orientation and
standing-wave position of ions distributed through a sphere resting on the
mirror, which turns the best-case Purcell factor into an ensemble
distribution.  The spectral one: how many ions of an inhomogeneously
broadened, hyperfine-split population fall inside a probe window (drawn
from its exact binomial distribution), and the statistical fine structure
a narrow probe sees when scanned across the line (all windows' counts
drawn at once from their exact multinomial law, not ion by ion).

Sampling uses a counter-based generator (Philox) keyed on (seed, domain,
block).  The ensemble draws its samples in fixed blocks of 4096, one stream
per block, so a given (seed, n_samples) always gives bitwise the same
statistics.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (CavityGeometry, Nanoparticle, _JsonRecord, _require_count,
                   _require_each, _require_finite, _require_non_negative,
                   _require_positive, record)
from .optics import loaded_budget
from .purcell import coupling_report
from .trace import Trace, _grid

# the block layout defines the seeded numbers: changing it changes every
# EnsembleStats for a given (seed, n_samples)
_BLOCK = 4096
# entropy-domain tags keep the independent sampling tasks on distinct streams
_DOMAIN_ENSEMBLE = 0
_DOMAIN_ION_COUNT = 1
_DOMAIN_SFS = 2


def _rng(seed: int, domain: int, index: int) -> np.random.Generator:
    sequence = np.random.SeedSequence(entropy=(seed, domain, index))
    return np.random.Generator(np.random.Philox(sequence))


def sample_orientation_factor(rng: np.random.Generator,
                              size: int | None = None):
    """Projection factor |d . e|^2 of an isotropic dipole on a fixed axis.

    |d . e| of an isotropic dipole is uniform on [0, 1] (Archimedes'
    hat-box theorem; Marsaglia, Ann. Math. Stat. 43, 645 (1972)), so the
    factor is u^2 of one uniform u: CDF sqrt(o), mean exactly 1/3.
    """
    n = 1 if size is None else size
    factor = rng.random(n)
    factor *= factor
    return float(factor[0]) if size is None else factor


def sample_height(diameter: float, rng: np.random.Generator,
                  size: int | None = None):
    """Height above the mirror of a uniform point in a resting sphere.

    The cross-section area of a sphere of diameter D at height z goes as
    z (D - z), a Beta(2, 2) profile scaled to [0, D].  Its CDF 3t^2 - 2t^3
    inverts by the trigonometric root of the cubic, t = 1/2 + sin(asin(2u -
    1) / 3) of one uniform u (Devroye, Non-Uniform Random Variate
    Generation, 1986, ch. II).
    """
    _require_positive("diameter", diameter)
    n = 1 if size is None else size
    heights = rng.random(n)
    heights *= 2.0
    heights -= 1.0
    np.arcsin(heights, out=heights)
    heights /= 3.0
    np.sin(heights, out=heights)
    heights += 0.5
    heights *= diameter
    return float(heights[0]) if size is None else heights


def standing_wave_factor(height, wavelength: float, antinode_offset: float):
    """Intensity factor sin^2(2 pi (z + z0) / lambda) of the standing wave."""
    _require_positive("wavelength", wavelength)
    _require_finite(antinode_offset=antinode_offset)
    height = np.asarray(height)
    _require_each("height", height)
    return np.sin(2.0 * math.pi * (height + antinode_offset)
                  / wavelength) ** 2


@record
class ChannelStrength(_JsonRecord):
    """Deterministic part of one transition's Purcell factor.

    ``strength`` is branching * F_P * bad-emitter * jitter, i.e. the value
    an ideally placed, ideally oriented ion would see.
    """

    wavelength: float
    strength: float


def channel_strengths(particle: Nanoparticle, geometry: CavityGeometry,
                      transitions, budgets) -> list[ChannelStrength]:
    """Per-transition deterministic Purcell prefactors.

    Budgets are the bare-cavity budgets in transition order; the particle's
    own scattering loss is added here before the finesse is taken.  The
    geometry's rms length jitter applies.
    """
    loaded = [loaded_budget(bare, particle.diameter, transition.wavelength)
              for transition, bare in zip(transitions, budgets, strict=True)]
    return _loaded_channel_strengths(geometry, transitions, loaded)


def _loaded_channel_strengths(geometry: CavityGeometry, transitions,
                              loaded) -> list[ChannelStrength]:
    """``channel_strengths`` from budgets that already hold the particle's
    scattering loss, for a caller that needs those budgets too."""
    channels = []
    for transition, budget in zip(transitions, loaded):
        report = coupling_report(transition, geometry, budget,
                                 jitter_sigma=geometry.rms_length_jitter)
        channels.append(ChannelStrength(wavelength=transition.wavelength,
                                        strength=report.effective_purcell))
    return channels


@record
class EnsembleStats(_JsonRecord):
    """Effective-Purcell distribution over ions in one particle."""

    mean: float
    std: float
    max: float
    n_samples: int
    seed: int


def _ensemble_block(seed: int, block: int, count: int, diameter: float,
                    channels, offsets) -> tuple[float, float]:
    rng = _rng(seed, _DOMAIN_ENSEMBLE, block)
    orientation = sample_orientation_factor(rng, size=count)
    heights = sample_height(diameter, rng, size=count)
    # in place, each step the same operation on the same operands as
    # orientation * sum(strength * standing_wave_factor), so the same bits
    samples = np.zeros(count)
    for channel, offset in zip(channels, offsets):
        factor = standing_wave_factor(heights, channel.wavelength, offset)
        factor *= channel.strength
        samples += factor
    samples *= orientation
    total = float(np.sum(samples))
    samples *= samples
    return total, float(np.sum(samples))


def ensemble_purcell_stats(particle: Nanoparticle, geometry: CavityGeometry,
                           transitions, budgets, n_samples: int = 20000,
                           seed: int = 0,
                           antinode_offset_fraction: float = 0.15
                           ) -> EnsembleStats:
    """Monte Carlo distribution of the summed effective Purcell factor.

    Each sample is one ion: a shared random dipole orientation and a shared
    random height, multiplied into every transition's deterministic channel
    strength (jitter and bad-emitter factors are deterministic).  Both are
    inverse-CDF draws from their exact marginals, one uniform each.  The
    ``max`` field is the analytic ceiling with orientation and position
    factors set to 1, not a sample maximum.  The jitter factor takes
    ``geometry.rms_length_jitter``; to change it, pass a geometry built
    with ``dataclasses.replace``.

    The sample range is split into fixed blocks of 4096 samples, each on
    its own counter-based stream keyed on (seed, block) that yields the
    block's orientation uniforms, then its height uniforms.  That layout,
    and the block-order reduction, fix the result for a given ``seed`` and
    ``n_samples`` bit for bit.
    """
    _require_count("n_samples", n_samples, 2)
    _require_finite(antinode_offset_fraction=antinode_offset_fraction)
    channels = channel_strengths(particle, geometry, transitions, budgets)
    offsets = [antinode_offset_fraction * c.wavelength for c in channels]
    n_blocks = (n_samples + _BLOCK - 1) // _BLOCK
    partials = [
        _ensemble_block(seed, block, min(_BLOCK, n_samples - block * _BLOCK),
                        particle.diameter, channels, offsets)
        for block in range(n_blocks)]

    # fsum in block order: the seeded numbers are defined by this reduction
    total = math.fsum(p[0] for p in partials)
    total_sq = math.fsum(p[1] for p in partials)
    mean = total / n_samples
    variance = max(0.0, (total_sq - n_samples * mean * mean)
                   / (n_samples - 1))
    return EnsembleStats(
        mean=mean,
        std=math.sqrt(variance),
        max=math.fsum(c.strength for c in channels),
        n_samples=n_samples,
        seed=seed,
    )


def total_ion_count(particle: Nanoparticle) -> int:
    """Number of dopant ions in the particle from volume and doping."""
    return round(particle.volume * particle.cation_density
                 * particle.dopant_concentration)


def default_hyperfine_classes() -> tuple[tuple[float, float], ...]:
    """Default hyperfine transition classes as (offset Hz, weight) pairs.

    Two isotopes at natural abundance, each with 3 ground and 3 excited
    hyperfine levels giving 9 equally weighted transition classes.  The
    splitting magnitudes are round-number placeholders on the tens-of-MHz
    scale; replace them with measured values for quantitative class-resolved
    work.  Because the offsets are tiny against the inhomogeneous width,
    bulk ion-count estimates are insensitive to the exact numbers.
    """
    isotopes = (
        (0.478, (0.0, 30e6, 75e6), (0.0, 35e6, 80e6)),
        (0.522, (0.0, 75e6, 190e6), (0.0, 90e6, 200e6)),
    )
    return tuple((e - g, abundance / (len(ground) * len(excited)))
                 for abundance, ground, excited in isotopes
                 for g in ground for e in excited)


# the largest trial count numpy's binomial draw takes, a C int64
_MAX_IONS = int(np.iinfo(np.int64).max)


@record
class SpectralPopulation(_JsonRecord):
    """Ion population over the inhomogeneous line.

    total_ions: ions in the particle
    inhomogeneous_fwhm: Lorentzian inhomogeneous width (Hz)
    center_frequency: line center (Hz); 0 for detuning-relative work
    hyperfine_offsets: (offset Hz, weight) transition classes, weights
    summing to 1
    """

    total_ions: int
    inhomogeneous_fwhm: float
    center_frequency: float = 0.0
    hyperfine_offsets: tuple = ((0.0, 1.0),)

    def __post_init__(self):
        _require_finite(**vars(self))
        _require_count("total_ions", self.total_ions, 1)
        if self.total_ions > _MAX_IONS:
            raise ValueError(f"total_ions must be <= {_MAX_IONS} for the "
                             f"binomial draw, got {self.total_ions:.3g}")
        _require_positive("inhomogeneous_fwhm", self.inhomogeneous_fwhm)
        classes = tuple((float(off), float(w))
                        for off, w in self.hyperfine_offsets)
        if not classes:
            raise ValueError("hyperfine_offsets must not be empty")
        for offset, weight in classes:
            _require_finite(**{"hyperfine class offsets": offset})
            _require_positive("hyperfine class weights", weight)
        if abs(math.fsum(w for _, w in classes) - 1.0) > 1e-6:
            raise ValueError("hyperfine class weights must sum to 1")
        object.__setattr__(self, "hyperfine_offsets", classes)


def _class_cdfs(population: SpectralPopulation, frequencies):
    """``(weight, cdf)`` of each hyperfine class in order: the Lorentzian line
    CDF 1/2 + atan((f - c) / (FWHM / 2)) / pi at ``frequencies`` about the
    class center c, each element through ``math.atan``, the scalar bits."""
    half = 0.5 * population.inhomogeneous_fwhm
    frequencies = np.asarray(frequencies, dtype=float)
    for offset, weight in population.hyperfine_offsets:
        scaled = (frequencies - (population.center_frequency + offset)) / half
        angles = np.fromiter(map(math.atan, scaled.tolist()), float,
                             scaled.size)
        yield weight, 0.5 + angles / math.pi


def expected_ions_in_bandwidth(population: SpectralPopulation,
                               probe_frequency: float,
                               bandwidth: float) -> float:
    """Analytic expectation of the ion count inside the probe window."""
    _require_positive("bandwidth", bandwidth)
    _require_finite(probe_frequency=probe_frequency)
    window = (probe_frequency - 0.5 * bandwidth,
              probe_frequency + 0.5 * bandwidth)
    expectation = 0.0
    for weight, cdf in _class_cdfs(population, window):
        below, above = cdf.tolist()
        expectation += weight * (above - below)
    return population.total_ions * expectation


@record
class IonCountStats(_JsonRecord):
    """Distribution of ions addressed inside a probe window."""

    mean: float
    std: float
    n_draws: int
    seed: int


def ions_in_bandwidth(population: SpectralPopulation, probe_frequency: float,
                      bandwidth: float, seed: int = 0,
                      n_draws: int = 300) -> IonCountStats:
    """Seeded draws of the number of ions inside the probe window.

    Ions are placed independently, each landing inside
    [probe - bw/2, probe + bw/2] with probability
    p = expected_ions_in_bandwidth / total_ions, so the count is exactly
    Binomial(total_ions, p).  ``n_draws`` counts are drawn from that
    distribution and summarised by their sample mean and std.
    """
    _require_count("n_draws", n_draws, 2)
    n = population.total_ions
    # the class weights may sum to 1 + 1e-6, which could push p past 1
    p = min(expected_ions_in_bandwidth(population, probe_frequency,
                                       bandwidth) / n, 1.0)
    counts = _rng(seed, _DOMAIN_ION_COUNT, 0).binomial(n, p, size=n_draws)
    return IonCountStats(mean=float(np.mean(counts)),
                         std=float(np.std(counts, ddof=1)),
                         n_draws=n_draws, seed=seed)


def _window_counts(population: SpectralPopulation, probe_fwhm: float, grid,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded ion counts and their expectations in the probe windows.

    The counts of N iid ions between the windows' sorted edges are exactly
    Multinomial(N, p), p the line CDF's increments (Feller, An Introduction
    to Probability Theory, vol. 1, ch. VI).  A window's count is the
    difference of its edges' cumulative counts, and its expectation N times
    the CDF's increment across it."""
    _require_positive("probe_fwhm", probe_fwhm)
    grid = _grid("grid", grid)
    half = 0.5 * probe_fwhm
    edges, index = np.unique(np.concatenate((grid - half, grid + half)),
                             return_inverse=True)
    lo, hi = index[:grid.size], index[grid.size:]
    cdf = sum(weight * class_cdf for weight, class_cdf
              in _class_cdfs(population, edges))
    cdf /= math.fsum(weight for _, weight in population.hyperfine_offsets)
    # rounding must not make an interval's probability negative
    np.maximum.accumulate(np.clip(cdf, 0.0, 1.0, out=cdf), out=cdf)
    n = population.total_ions
    counts = _rng(seed, _DOMAIN_SFS, 0).multinomial(
        n, np.diff(cdf, prepend=0.0, append=1.0))
    below = np.cumsum(counts[:-1])
    return (below[hi] - below[lo]).astype(float), n * (cdf[hi] - cdf[lo])


def sfs_spectrum(population: SpectralPopulation, probe_fwhm: float,
                 grid, rate_per_ion: float = 1.0, seed: int = 0) -> Trace:
    """Statistical fine structure of a fixed ion placement.

    The trace value at each grid point is ``rate_per_ion`` times the number
    of ions within half a probe width of that frequency.  All windows'
    counts are one seeded draw from their exact multinomial law, so time
    and memory grow with the grid, not the ion count, and a seed gives the
    same structure whatever the grid's order."""
    _require_non_negative("rate_per_ion", rate_per_ion)
    counts, _ = _window_counts(population, probe_fwhm, grid, seed)
    return Trace(x=np.asarray(grid, dtype=float), y=rate_per_ion * counts,
                 noise_model="ion-placement", seed=seed)
