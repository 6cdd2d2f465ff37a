"""Ensemble statistics of ions inside a nanoparticle.

Every ion in the particle sees the same cavity but its own dipole
orientation and its own height in the standing wave, so the single-number
Purcell factor becomes a distribution.  This script sweeps the particle
diameter, prints the summary of ions drawn one by one with the public
samplers next to the distribution's exact moments, and estimates how many
ions a narrow probe addresses at once.
"""
from pathlib import Path

import numpy as np

from fpcavity import (
    CavityGeometry,
    LossBudget,
    Nanoparticle,
    SpectralPopulation,
    Transition,
    channel_strengths,
    default_hyperfine_classes,
    ensemble_purcell_stats,
    ion_count_moments,
    ions_in_bandwidth,
    sample_height,
    sample_orientation_factor,
    standing_wave_factor,
    total_ion_count,
)

T_BLUE = Transition(wavelength=580.8e-9, branching_ratio=0.007,
                    homogeneous_linewidth=3.3e6, free_space_lifetime=2e-3)
T_RED = Transition(wavelength=611e-9, branching_ratio=0.36,
                   homogeneous_linewidth=680e9, free_space_lifetime=2e-3)
BUDGETS = [LossBudget(25.0, 200.0, 134.04), LossBudget(25.0, 200.0, 436.39)]
GEOMETRY = CavityGeometry(25e-6, 5.808e-6, 20, rms_length_jitter=8e-12)

DIAMETERS = (40e-9, 60e-9, 70e-9, 90e-9)
DOPING = 0.003
INHOMOGENEOUS_FWHM = 34e9
PROBE_BANDWIDTH = 13e6
SEED = 0
IONS = 20000
ANTINODE_OFFSET_FRACTION = 0.15


def sampled_ensemble(particle, rng, n):
    """``n`` ions' summed effective Purcell factors: each ion's orientation
    factor times the strength-weighted standing waves at its height."""
    orientation = sample_orientation_factor(rng, n)
    heights = sample_height(particle.diameter, rng, n)
    channels = channel_strengths(particle, GEOMETRY, [T_BLUE, T_RED],
                                 BUDGETS)
    return orientation * sum(
        c.strength * standing_wave_factor(
            heights, c.wavelength, ANTINODE_OFFSET_FRACTION * c.wavelength)
        for c in channels)


def main() -> None:
    out_dir = Path(__file__).parent / "output"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / "ensemble_vs_diameter.csv"

    print(f"summed effective Purcell factor over the ion ensemble, "
          f"sampled (seed {SEED}, {IONS} ions each) and exact:")
    print("  d_nm   mean    std    exact mean  exact std  ceiling  "
          "ions_total")
    with out.open("w", newline="\n") as handle:
        handle.write("d_np_nm,mean,std,exact_mean,exact_std,ceiling,"
                     "ions_total\n")
        rng = np.random.default_rng(SEED)
        for diameter in DIAMETERS:
            particle = Nanoparticle(diameter, DOPING)
            samples = sampled_ensemble(particle, rng, IONS)
            mean = float(np.mean(samples))
            std = float(np.std(samples, ddof=1))
            exact = ensemble_purcell_stats(
                particle, GEOMETRY, [T_BLUE, T_RED], BUDGETS,
                antinode_offset_fraction=ANTINODE_OFFSET_FRACTION)
            ions = total_ion_count(particle)
            print(f"  {diameter * 1e9:4.0f}  {mean:6.3f} {std:6.3f}  "
                  f"{exact.mean:10.3f} {exact.std:10.3f}"
                  f"  {exact.max:7.3f}  {ions:10d}")
            handle.write(f"{diameter * 1e9:.0f},{mean!r},{std!r},"
                         f"{exact.mean!r},{exact.std!r},{exact.max!r},"
                         f"{ions}\n")
    print(f"wrote {out}")
    print("the ceiling is the best-placed ion; bigger particles scatter "
          "more, so their ceiling drops while their ion count grows")

    print(f"\nspectral addressing ({INHOMOGENEOUS_FWHM / 1e9:.0f} GHz "
          f"inhomogeneous line, {PROBE_BANDWIDTH / 1e6:.0f} MHz probe):")
    for diameter in (70e-9, 90e-9):
        particle = Nanoparticle(diameter, DOPING)
        population = SpectralPopulation(
            total_ions=total_ion_count(particle),
            inhomogeneous_fwhm=INHOMOGENEOUS_FWHM,
            hyperfine_offsets=default_hyperfine_classes())
        exact = ion_count_moments(population, 0.0, PROBE_BANDWIDTH)
        drawn = ions_in_bandwidth(population, 0.0, PROBE_BANDWIDTH,
                                  seed=SEED, n_draws=300)
        print(f"  {diameter * 1e9:.0f} nm particle "
              f"({population.total_ions} ions): exact {exact.mean:.1f} "
              f"+/- {exact.std:.1f}, drawn {drawn.mean:.1f} "
              f"+/- {drawn.std:.1f}")
    print("a probe parked at line center therefore talks to a countable "
          "handful of ions, the regime where single-ion lines separate")


if __name__ == "__main__":
    main()
