"""Statistics of emitters inside a nanoparticle: exact moments and seeded
samplers.

Two problems live here.  The geometric one: dipole orientation and
standing-wave position of ions distributed through a sphere resting on the
mirror, which turns the best-case Purcell factor into an ensemble
distribution.  The spectral one: how many ions of an inhomogeneously
broadened, hyperfine-split population fall inside a probe window (exactly
binomial), and the statistical fine structure a narrow probe sees when
scanned across the line (all windows' counts drawn at once from their
exact multinomial law, not ion by ion).

``ensemble_moments`` and ``ion_count_moments`` give the exact mean and
standard deviation of both in closed form, with ``math`` only; they are
what the CLI and ``ensemble_purcell_stats`` report.  The samplers draw the
same distributions and import numpy when they run.  The ion-count draws
come from one counter-based stream (Philox) keyed on (seed, domain), so a
given seed and draw count always give bitwise the same statistics.
"""
from __future__ import annotations

import math

from .core import (CavityGeometry, Nanoparticle, _check_budgets, _JsonRecord,
                   _require_count, _require_each, _require_finite,
                   _require_non_negative, _require_positive)
from .optics import loaded_budget
from .purcell import jittered_purcell

# entropy-domain tags keep the independent sampling tasks on distinct streams
_DOMAIN_ION_COUNT = 1
_DOMAIN_SFS = 2


def _rng(seed: int, domain: int) -> np.random.Generator:
    _require_count("seed", seed, 0)
    import numpy as np
    # the 0 keeps the streams, and the traces they draw, of earlier versions
    sequence = np.random.SeedSequence(entropy=(seed, domain, 0))
    return np.random.Generator(np.random.Philox(sequence))


def sample_orientation_factor(rng: np.random.Generator, size: int):
    """Array of ``size`` projection factors |d . e|^2 of isotropic dipoles.

    |d . e| of an isotropic dipole is uniform on [0, 1] (Archimedes'
    hat-box theorem; Marsaglia, Ann. Math. Stat. 43, 645 (1972)), so the
    factor is u^2 of one uniform u: CDF sqrt(o), mean exactly 1/3.
    """
    _require_count("size", size, 0)
    factor = rng.random(size)
    factor *= factor
    return factor


def sample_height(diameter: float, rng: np.random.Generator, size: int):
    """Array of ``size`` heights of uniform points in a resting sphere.

    The cross-section area of a sphere of diameter D at height z goes as
    z (D - z), a Beta(2, 2) profile scaled to [0, D].  Its CDF 3t^2 - 2t^3
    inverts by the trigonometric root of the cubic, t = 1/2 + sin(asin(2u -
    1) / 3) of one uniform u (Devroye, Non-Uniform Random Variate
    Generation, 1986, ch. II).
    """
    import numpy as np
    _require_positive("diameter", diameter)
    _require_count("size", size, 0)
    heights = rng.random(size)
    heights *= 2.0
    heights -= 1.0
    np.arcsin(heights, out=heights)
    heights /= 3.0
    np.sin(heights, out=heights)
    heights += 0.5
    heights *= diameter
    return heights


def standing_wave_factor(height, wavelength: float, antinode_offset: float):
    """Intensity factor sin^2(2 pi (z + z0) / lambda) of the standing wave."""
    import numpy as np
    _require_positive("wavelength", wavelength)
    _require_finite(antinode_offset=antinode_offset)
    height = np.asarray(height)
    _require_each("height", height)
    phase = np.asarray(height + antinode_offset)  # new; the rest in place
    phase *= 2.0 * math.pi
    phase /= wavelength
    return np.square(np.sin(phase, out=phase), out=phase)[()]


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
    _check_budgets(transitions, budgets)
    channels = []
    for transition, bare in zip(transitions, budgets):
        loaded = loaded_budget(bare, particle.diameter, transition.wavelength)
        channels.append(ChannelStrength(
            wavelength=transition.wavelength,
            strength=jittered_purcell(transition, geometry, loaded)))
    return channels


class EnsembleStats(_JsonRecord):
    """Effective-Purcell distribution over ions in one particle: its exact
    mean and std, and its ceiling ``max``."""

    mean: float
    std: float
    max: float
    method: str = "exact"


def ensemble_purcell_stats(particle: Nanoparticle, geometry: CavityGeometry,
                           transitions, budgets, n_samples: int = 20000,
                           seed: int = 0,
                           antinode_offset_fraction: float = 0.15
                           ) -> EnsembleStats:
    """Exact mean and std of the summed effective Purcell factor over the
    ions in ``particle``: :func:`ensemble_moments` of its channel strengths.

    ``max`` is the analytic ceiling with orientation and position factors
    set to 1.  The jitter factor takes ``geometry.rms_length_jitter``; to
    change it, pass a geometry built with :func:`fpcavity.core.replace`.
    ``n_samples`` (an integer >= 2) and ``seed`` (an integer >= 0) are
    checked, but neither changes a number nor is kept: nothing is sampled.
    """
    _require_count("n_samples", n_samples, 2)
    _require_count("seed", seed, 0)
    channels = channel_strengths(particle, geometry, transitions, budgets)
    exact = ensemble_moments(channels, particle.diameter,
                             antinode_offset_fraction)
    return EnsembleStats(mean=exact.mean, std=exact.std,
                         max=math.fsum(c.strength for c in channels))


class ExactMoments(_JsonRecord):
    """Exact mean and standard deviation of a distribution, in closed form
    rather than sampled."""

    mean: float
    std: float
    method: str = "exact"


# E[cos(2 x U)] for U = T - 1/2, T ~ Beta(2, 2), is 3 (sin x - x cos x) / x^3
# = 1 - x^2/10 + R(x).  Below |x| = 1 the closed form cancels, so R, the part
# from x^4 up, is summed there from its series, (-1)^m 6 (m + 1) x^2m /
# (2m + 3)! for m >= 2; the first of the terms left out is below 1e-26.
_SERIES_BELOW = 1.0
_SERIES = tuple((-1) ** m * 6 * (m + 1) / math.factorial(2 * m + 3)
                for m in range(2, 12))


def _quartic_rest(x: float) -> float:
    """R(x) = E[cos(2 x U)] - 1 + x^2 / 10, the Beta(2, 2) height's
    characteristic function past its x^2 term; even, O(x^4) at 0."""
    x2 = x * x
    if x2 < _SERIES_BELOW:
        value = 0.0
        for coefficient in reversed(_SERIES):
            value = value * x2 + coefficient
        return value * x2 * x2
    return 3.0 * (math.sin(x) - x * math.cos(x)) / (x2 * x) - 1.0 + 0.1 * x2


def ensemble_moments(channels, diameter: float,
                     antinode_offset_fraction: float = 0.15
                     ) -> ExactMoments:
    """Exact mean and std of the ensemble's summed effective Purcell factor.

    X = o * sum_c s_c f_c is the ensemble that ``sample_orientation_factor``,
    ``sample_height`` and ``standing_wave_factor`` draw ion by ion: o the
    orientation factor (E[o] = 1/3, E[o^2] = 1/5), s_c the ``channels``'
    strengths and f_c = sin^2(k_c (D T + z0_c)) their standing waves,
    T ~ Beta(2, 2) the height in units of the diameter D and z0_c =
    fraction * lambda_c.

    About the particle's center, U = T - 1/2, with a = k D and g = k (D/2 +
    z0), f = P cos^2(a U) + Q sin^2(a U) + W sin(2 a U), where P = sin^2 g,
    Q = cos^2 g and W = sin(2g) / 2.  U is symmetric, so the odd term drops
    from E[f] = P + (Q - P) E[sin^2(a U)] and pairs only with itself in
    E[f_c f_d].  Products of sines split into cosines of summed and
    differenced phases, whose expectations are the height's characteristic
    function; it enters through R, its part past x^2, so that no O(1)
    terms cancel on a small particle.
    """
    _require_positive("diameter", diameter)
    _require_finite(antinode_offset_fraction=antinode_offset_fraction)
    # per channel: strength, a, R(a), sin^2 g, cos 2g, sin(2g) / 2 and
    # E[sin^2(a U)] = a^2 / 20 - R(a) / 2
    terms = []
    for channel in channels:
        k = 2.0 * math.pi / channel.wavelength
        a = k * diameter
        g = k * (0.5 * diameter
                 + antinode_offset_fraction * channel.wavelength)
        rest = _quartic_rest(a)
        terms.append((channel.strength, a, rest, math.sin(g) ** 2,
                      math.cos(2.0 * g), 0.5 * math.sin(2.0 * g),
                      0.05 * a * a - 0.5 * rest))
    first = math.fsum(s * (p + d * e) for s, _, _, p, d, _, e in terms)
    pairs = []
    for s1, a1, r1, p1, d1, w1, e1 in terms:
        for s2, a2, r2, p2, d2, w2, e2 in terms:
            r_sum, r_diff = _quartic_rest(a1 + a2), _quartic_rest(a1 - a2)
            # E[sin^2(a1 U) sin^2(a2 U)] and E[sin(2 a1 U) sin(2 a2 U)]
            sin2_sin2 = 0.125 * (r_sum + r_diff - 2.0 * (r1 + r2))
            sin_sin = 0.2 * a1 * a2 + 0.5 * (r_diff - r_sum)
            pairs.append(s1 * s2 * (p1 * p2 + p1 * d2 * e2 + p2 * d1 * e1
                                    + d1 * d2 * sin2_sin2 + w1 * w2 * sin_sin))
    mean = first / 3.0
    second = math.fsum(pairs) / 5.0
    return ExactMoments(mean=mean,
                        std=math.sqrt(max(0.0, second - mean * mean)))


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
_MAX_IONS = 2**63 - 1


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
    """``(weight, cdf)`` of each hyperfine class in order, ``cdf`` a list:
    the Lorentzian line CDF 1/2 + atan((f - c) / (FWHM / 2)) / pi at each
    of ``frequencies`` (floats) about the class center c."""
    half = 0.5 * population.inhomogeneous_fwhm
    for offset, weight in population.hyperfine_offsets:
        center = population.center_frequency + offset
        yield weight, [0.5 + math.atan((f - center) / half) / math.pi
                       for f in frequencies]


def expected_ions_in_bandwidth(population: SpectralPopulation,
                               probe_frequency: float,
                               bandwidth: float) -> float:
    """Analytic expectation of the ion count inside the probe window."""
    _require_positive("bandwidth", bandwidth)
    _require_finite(probe_frequency=probe_frequency)
    window = (probe_frequency - 0.5 * bandwidth,
              probe_frequency + 0.5 * bandwidth)
    expectation = 0.0
    for weight, (below, above) in _class_cdfs(population, window):
        expectation += weight * (above - below)
    return population.total_ions * expectation


def _window_probability(population: SpectralPopulation,
                        probe_frequency: float, bandwidth: float) -> float:
    """Probability that one ion lands inside the probe window."""
    # the class weights may sum to 1 + 1e-6, which could push p past 1
    return min(expected_ions_in_bandwidth(population, probe_frequency,
                                          bandwidth)
               / population.total_ions, 1.0)


def ion_count_moments(population: SpectralPopulation, probe_frequency: float,
                      bandwidth: float) -> ExactMoments:
    """Exact mean N p and std sqrt(N p (1 - p)) of the number of ions inside
    the probe window, which is Binomial(total_ions, p)."""
    n = population.total_ions
    p = _window_probability(population, probe_frequency, bandwidth)
    return ExactMoments(mean=n * p, std=math.sqrt(n * p * (1.0 - p)))


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
    import numpy as np
    _require_count("n_draws", n_draws, 2)
    p = _window_probability(population, probe_frequency, bandwidth)
    counts = _rng(seed, _DOMAIN_ION_COUNT).binomial(
        population.total_ions, p, size=n_draws)
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
    import numpy as np

    from .trace import _grid
    _require_positive("probe_fwhm", probe_fwhm)
    grid = _grid("grid", grid)
    half = 0.5 * probe_fwhm
    edges, index = np.unique(np.concatenate((grid - half, grid + half)),
                             return_inverse=True)
    lo, hi = index[:grid.size], index[grid.size:]
    cdf = sum(weight * np.array(class_cdf) for weight, class_cdf
              in _class_cdfs(population, edges.tolist()))
    cdf /= math.fsum(weight for _, weight in population.hyperfine_offsets)
    # rounding must not make an interval's probability negative
    np.maximum.accumulate(np.clip(cdf, 0.0, 1.0, out=cdf), out=cdf)
    n = population.total_ions
    counts = _rng(seed, _DOMAIN_SFS).multinomial(
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
    import numpy as np

    from .trace import Trace
    _require_non_negative("rate_per_ion", rate_per_ion)
    counts, _ = _window_counts(population, probe_fwhm, grid, seed)
    return Trace(x=np.asarray(grid, dtype=float), y=rate_per_ion * counts,
                 noise_model="ion-placement", seed=seed)
