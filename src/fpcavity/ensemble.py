"""Monte Carlo statistics of emitters inside a nanoparticle.

Two sampling problems live here.  The geometric one: dipole orientation and
standing-wave position of ions distributed through a sphere resting on the
mirror, which turns the best-case Purcell factor into an ensemble
distribution.  The spectral one: how many ions of an inhomogeneously
broadened, hyperfine-split population fall inside a probe window (drawn
from its exact binomial distribution), and the statistical fine structure
a narrow probe sees when scanned across the line.

Sampling uses a counter-based generator (Philox) keyed on (seed, domain,
block).  The ensemble draws its samples in fixed blocks of 4096, one stream
per block, so a given (seed, n_samples) always gives bitwise the same
statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CavityGeometry, Nanoparticle, _JsonRecord
from .optics import loaded_budget
from .purcell import coupling_report
from .trace import Trace

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

    Dipole directions are drawn uniformly on the sphere via normalized
    Gaussian vectors; the mean of the factor is exactly 1/3.
    """
    n = 1 if size is None else size
    squares = rng.normal(size=(n, 3))
    squares *= squares
    x2, y2, z2 = squares.T
    # x^2 / ((x^2 + y^2) + z^2): the order in which a sum over each row
    # adds its three squares, so in place gives the same bits
    norm = x2 + y2
    norm += z2
    factor = np.divide(x2, norm, out=norm)
    return float(factor[0]) if size is None else factor


def sample_height(diameter: float, rng: np.random.Generator,
                  size: int | None = None):
    """Height above the mirror of a uniform point in a resting sphere.

    The cross-section area of a sphere of diameter D at height z goes as
    z (D - z), which is a Beta(2, 2) profile scaled to [0, D].
    """
    if diameter <= 0.0:
        raise ValueError("diameter must be positive")
    n = 1 if size is None else size
    heights = diameter * rng.beta(2.0, 2.0, size=n)
    return float(heights[0]) if size is None else heights


def standing_wave_factor(height, wavelength: float, antinode_offset: float):
    """Intensity factor sin^2(2 pi (z + z0) / lambda) of the standing wave."""
    if wavelength <= 0.0:
        raise ValueError("wavelength must be positive")
    return np.sin(2.0 * math.pi * (np.asarray(height) + antinode_offset)
                  / wavelength) ** 2


@dataclass(frozen=True)
class ChannelStrength(_JsonRecord):
    """Deterministic part of one transition's Purcell factor.

    ``strength`` is branching * F_P * bad-emitter * jitter, i.e. the value
    an ideally placed, ideally oriented ion would see.
    """

    wavelength: float
    strength: float


def channel_strengths(particle: Nanoparticle, geometry: CavityGeometry,
                      transitions, budgets, jitter_sigma: float | None = None,
                      refractive_index: float = 1.0) -> list[ChannelStrength]:
    """Per-transition deterministic Purcell prefactors.

    Budgets are the bare-cavity budgets in transition order; the particle's
    own scattering loss is added here before the finesse is taken.  With
    ``jitter_sigma=None`` the geometry's rms length jitter applies.
    """
    if jitter_sigma is None:
        jitter_sigma = geometry.rms_length_jitter
    channels = []
    for transition, bare in zip(transitions, budgets, strict=True):
        loaded = loaded_budget(bare, particle.diameter, transition.wavelength)
        report = coupling_report(transition, geometry, loaded,
                                 jitter_sigma=jitter_sigma,
                                 refractive_index=refractive_index)
        channels.append(ChannelStrength(wavelength=transition.wavelength,
                                        strength=report.effective_purcell))
    return channels


@dataclass(frozen=True)
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
                           seed: int = 0, jitter_sigma: float | None = None,
                           antinode_offset_fraction: float = 0.15,
                           refractive_index: float = 1.0) -> EnsembleStats:
    """Monte Carlo distribution of the summed effective Purcell factor.

    Each sample is one ion: a shared random dipole orientation and a shared
    random height, multiplied into every transition's deterministic channel
    strength (jitter and bad-emitter factors are deterministic).  The
    ``max`` field is the analytic ceiling with orientation and position
    factors set to 1, not a sample maximum.

    The sample range is split into fixed blocks of 4096 samples, each on
    its own counter-based stream keyed on (seed, block).  That layout, and
    the block-order reduction, fix the result for a given ``seed`` and
    ``n_samples`` bit for bit.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    channels = channel_strengths(particle, geometry, transitions, budgets,
                                 jitter_sigma=jitter_sigma,
                                 refractive_index=refractive_index)
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
    classes = []
    for abundance, ground, excited in isotopes:
        weight = abundance / (len(ground) * len(excited))
        for g in ground:
            for e in excited:
                classes.append((e - g, weight))
    return tuple(classes)


@dataclass(frozen=True)
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
        if self.total_ions < 1:
            raise ValueError("total_ions must be >= 1")
        if self.inhomogeneous_fwhm <= 0.0:
            raise ValueError("inhomogeneous_fwhm must be positive")
        classes = tuple((float(off), float(w))
                        for off, w in self.hyperfine_offsets)
        if not classes:
            raise ValueError("hyperfine_offsets must not be empty")
        if any(w <= 0.0 for _, w in classes):
            raise ValueError("hyperfine class weights must be positive")
        if abs(math.fsum(w for _, w in classes) - 1.0) > 1e-6:
            raise ValueError("hyperfine class weights must sum to 1")
        object.__setattr__(self, "hyperfine_offsets", classes)


def _draw_ion_frequencies(population: SpectralPopulation,
                          rng: np.random.Generator) -> np.ndarray:
    offsets = np.array([off for off, _ in population.hyperfine_offsets])
    weights = np.array([w for _, w in population.hyperfine_offsets])
    edges = np.cumsum(weights)
    edges[-1] = 1.0  # guard the top edge against rounding
    classes = np.searchsorted(edges, rng.random(population.total_ions),
                              side="right")
    # Lorentzian inhomogeneous profile via inverse CDF
    u = rng.random(population.total_ions)
    centers = (population.center_frequency + offsets[classes]
               + 0.5 * population.inhomogeneous_fwhm
               * np.tan(math.pi * (u - 0.5)))
    return centers


def expected_ions_in_bandwidth(population: SpectralPopulation,
                               probe_frequency: float,
                               bandwidth: float) -> float:
    """Analytic expectation of the ion count inside the probe window."""
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
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


@dataclass(frozen=True)
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
    if n_draws < 2:
        raise ValueError("n_draws must be >= 2")
    n = population.total_ions
    # the class weights may sum to 1 + 1e-6, which could push p past 1
    p = min(expected_ions_in_bandwidth(population, probe_frequency,
                                       bandwidth) / n, 1.0)
    counts = _rng(seed, _DOMAIN_ION_COUNT, 0).binomial(n, p, size=n_draws)
    return IonCountStats(mean=float(np.mean(counts)),
                         std=float(np.std(counts, ddof=1)),
                         n_draws=n_draws, seed=seed)


def sfs_spectrum(population: SpectralPopulation, probe_fwhm: float,
                 grid, rate_per_ion: float = 1.0, seed: int = 0) -> Trace:
    """Statistical fine structure of a fixed ion placement.

    One seeded placement of all ions; the trace value at each grid point is
    ``rate_per_ion`` times the number of ions within half a probe width of
    that frequency.  The same seed always reproduces the same structure.
    """
    if probe_fwhm <= 0.0:
        raise ValueError("probe_fwhm must be positive")
    if rate_per_ion < 0.0:
        raise ValueError("rate_per_ion must be >= 0")
    grid = np.asarray(grid, dtype=float)
    rng = _rng(seed, _DOMAIN_SFS, 0)
    centers = np.sort(_draw_ion_frequencies(population, rng))
    half = 0.5 * probe_fwhm
    left = np.searchsorted(centers, grid - half, side="left")
    right = np.searchsorted(centers, grid + half, side="right")
    counts = (right - left).astype(float)
    return Trace(x=grid, y=rate_per_ion * counts,
                 noise_model="ion-placement", seed=seed)
