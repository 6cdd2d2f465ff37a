"""Seeded inputs for the three workloads.

Each generator turns the benchmark seed into a run configuration (the JSON
document ``fpcavity --config`` reads) plus the CLI ``--seed`` or the study
plan.  The same seed always gives the same inputs; different seeds move the
physical parameters, the grids and the noise seeds, but never the amount of
work (sample counts, draw counts, grid sizes), so the timings of two seeds
are comparable.  ``scale`` shrinks those sizes for the self-check only.

The base document is written out here instead of being read from the
program, so a change to the program's defaults cannot change the benchmark
inputs.
"""
from __future__ import annotations

import copy
import random

BASE_CONFIG = {
    "schema_version": 1,
    "seed": 0,
    "transitions": [
        {"wavelength": 580.8e-9, "branching_ratio": 0.007,
         "homogeneous_linewidth": 3.3e6, "free_space_lifetime": 2.0e-3},
        {"wavelength": 611.0e-9, "branching_ratio": 0.36,
         "homogeneous_linewidth": 680e9, "free_space_lifetime": 2.0e-3},
    ],
    "geometry": {"radius_of_curvature": 25e-6, "cavity_length": 5.808e-6,
                 "mode_order": 20, "rms_length_jitter": 8e-12},
    "loss_budgets": [
        {"transmission_in": 25.0, "transmission_out": 200.0,
         "absorption_scatter": 134.04},
        {"transmission_in": 25.0, "transmission_out": 200.0,
         "absorption_scatter": 436.39},
    ],
    "nanoparticle": {"diameter": 70e-9, "dopant_concentration": 0.003},
    "detection": {"path_transmission": 0.8, "detector_efficiency": 0.65,
                  "dark_rate": 20.0},
    "pulse": {"excitation_time": 1e-6, "excited_population": 0.5},
    "monte_carlo": {"n_samples": 20000, "antinode_offset_fraction": 0.15},
    "ion_estimate": {"diameter": 90e-9, "inhomogeneous_fwhm": 34e9,
                     "probe_bandwidth": 13e6, "n_draws": 300},
    "plan": {"diameters": [d * 1e-9 for d in range(40, 101, 10)],
             "repetition_rates": [float(f) for f in range(500, 6001, 500)],
             "modes": ["contact", "open_single", "open_double"],
             "integration_time": 1.0},
    "simulate": {
        "ple": {"inhomogeneous_fwhm": 34e9, "amplitude": 1000.0,
                "background": 50.0, "span_multiple": 4.0, "points": 401,
                "use_population": False, "probe_fwhm": 13e6},
        "saturation": {"scale": 1000.0, "exponent": 0.5, "background": 0.0,
                       "min_power": 1e-9, "max_power": 1e-5, "points": 25},
        "hole": {"n_teeth": 200, "tooth_power": 1e-7, "hole_fwhm": 12e6,
                 "rate_scale": 100.0, "span_multiple": 10.0, "points": 401},
        "decay": {"effective_purcell": 0.82, "shots": 20000,
                  "amplitude": 0.05, "background": 0.002,
                  "time_span_multiple": 5.0, "points": 120},
    },
}

# particle diameters (nm) with frozen purcell figures in checks.FROZEN
DESIGN_DIAMETERS_NM = (40, 50, 60, 70, 80, 90, 100)

# simulate kind -> fit model and extra fit arguments, in pass order
MEASURE_PAIRS = (
    ("ple", "lorentzian", ()),
    ("saturation", "power_law", ("--weights", "poisson")),
    ("hole", "inverted_lorentzian", ("--weights", "poisson")),
    ("decay", "exp_decay", ("--weights", "poisson")),
)


def _sized(count: int, scale: float, minimum: int) -> int:
    return max(minimum, round(count * scale))


def _counts_scale(rng, unit_signal: float) -> float:
    """Scale that puts the noiseless peak at 2k-20k counts.

    Poisson noise on a peak of a few counts would leave nothing to fit.
    """
    return float(round(rng.uniform(2000.0, 20000.0) / unit_signal))


def _hole(rng, params: dict, points: int) -> None:
    n_teeth = rng.randint(100, 300)
    params.update(
        n_teeth=n_teeth, hole_fwhm=round(rng.uniform(10.0, 14.0), 2) * 1e6,
        rate_scale=_counts_scale(
            rng, n_teeth * params["tooth_power"] ** 0.5),
        points=points, noise="poisson")


def design(seed: int, scale: float = 1.0) -> dict:
    """Config and CLI seed for the cavity / purcell / plan session."""
    rng = random.Random(seed)
    config = copy.deepcopy(BASE_CONFIG)
    config["seed"] = rng.randrange(1_000_000)
    config["nanoparticle"]["diameter"] = \
        rng.choice(DESIGN_DIAMETERS_NM) * 1e-9
    config["monte_carlo"]["n_samples"] = _sized(20000, scale, 200)
    config["ion_estimate"]["n_draws"] = _sized(300, scale, 20)
    config["plan"]["diameters"] = sorted(
        round(rng.uniform(40.0, 100.0), 1) * 1e-9 for _ in range(7))
    config["plan"]["repetition_rates"] = sorted(
        float(round(rng.uniform(300.0, 8000.0))) for _ in range(12))
    config["plan"]["integration_time"] = rng.choice((0.5, 1.0, 2.0))
    return {"config": config, "cli_seed": rng.randrange(1_000_000)}


def measure(seed: int, scale: float = 1.0) -> dict:
    """Config and CLI seed for the simulate-then-fit session."""
    rng = random.Random(seed)
    config = copy.deepcopy(BASE_CONFIG)
    config["seed"] = rng.randrange(1_000_000)
    config["nanoparticle"]["diameter"] = round(rng.uniform(60.0, 80.0)) * 1e-9
    sim = config["simulate"]
    sim["ple"].update(
        inhomogeneous_fwhm=round(rng.uniform(30.0, 38.0), 2) * 1e9,
        amplitude=round(rng.uniform(500.0, 2000.0)),
        background=round(rng.uniform(20.0, 100.0)),
        points=_sized(401, scale, 41), use_population=True,
        noise="poisson")
    exponent = round(rng.uniform(0.4, 0.8), 3)
    sim["saturation"].update(
        scale=_counts_scale(rng, sim["saturation"]["max_power"] ** exponent),
        exponent=exponent,
        background=round(rng.uniform(5.0, 50.0), 1), noise="poisson")
    _hole(rng, sim["hole"], _sized(401, scale, 41))
    sim["decay"].update(
        effective_purcell=round(rng.uniform(0.5, 1.2), 3),
        points=_sized(120, scale, 30), noise="poisson")
    return {"config": config, "cli_seed": rng.randrange(1_000_000)}


def library(seed: int, scale: float = 1.0) -> dict:
    """Config and study plan for the in-process library workload.

    The config carries what the program's own sections can express: the
    Monte Carlo sample count, the dense sweep grid and the two trace
    generators.  The plan adds the four ensemble diameters and the seeds.
    """
    rng = random.Random(seed)
    config = copy.deepcopy(BASE_CONFIG)
    config["seed"] = rng.randrange(1_000_000)
    config["monte_carlo"]["n_samples"] = _sized(200_000, scale, 200)
    n_diameters = _sized(181, scale, 3)
    n_rates = _sized(200, scale, 3)
    lo, hi = rng.uniform(35.0, 45.0), rng.uniform(95.0, 105.0)
    config["plan"]["diameters"] = [
        (lo + (hi - lo) * i / (n_diameters - 1)) * 1e-9
        for i in range(n_diameters)]
    f_lo, f_hi = rng.uniform(200.0, 400.0), rng.uniform(8000.0, 12000.0)
    config["plan"]["repetition_rates"] = [
        f_lo * (f_hi / f_lo) ** (i / (n_rates - 1)) for i in range(n_rates)]
    sim = config["simulate"]
    _hole(rng, sim["hole"], _sized(100_000, scale, 200))
    sim["decay"].update(
        effective_purcell=round(rng.uniform(0.5, 1.2), 3),
        points=_sized(100_000, scale, 200), noise="poisson")
    plan = {
        "ensemble_diameters": sorted(
            round(rng.uniform(40.0, 100.0), 1) * 1e-9 for _ in range(4)),
        "ensemble_seed": rng.randrange(1_000_000),
        "trace_seed": rng.randrange(1_000_000),
    }
    return {"config": config, "plan": plan}


GENERATORS = {"design": design, "measure": measure, "library": library}
