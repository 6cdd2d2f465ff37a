"""Simulate the standard measurement set and fit every trace back.

Round trip for each signal type: generate with known parameters plus
counting noise, fit with the matching registry model, compare.  Also fits
the bundled hole-width-versus-power dataset that ships inside the package.
"""
from pathlib import Path

import numpy as np

import fpcavity
from fpcavity import (
    RunConfig,
    decay_histogram,
    fit,
    hole_spectrum,
    hole_width_to_homogeneous,
    ple_scan,
    read_trace_csv,
    saturation_curve,
)


def report(title, result, truths):
    status = "converged" if result.converged else "NOT CONVERGED"
    print(f"{title} ({status}, {result.iterations} iterations)")
    for name, true in truths.items():
        fitted = result.parameters[name]
        error = result.standard_errors[name]
        print(f"  {name:<10} true {true:<12.6g} fit {fitted:<12.6g} "
              f"+/- {error:.2g}")


def main() -> None:
    rng_seed = 17

    # inhomogeneous excitation scan
    grid = np.linspace(-80e9, 80e9, 301)
    trace = ple_scan(34e9, 0.0, 4000.0, 50.0, grid, noise="poisson",
                     seed=rng_seed)
    result = fit("lorentzian", trace, weights="poisson")
    report("excitation scan -> lorentzian",
           result, {"fwhm": 34e9, "center": 0.0, "amplitude": 4000.0})

    # saturation of the emission rate
    powers = np.geomspace(1e-9, 1e-5, 25)
    trace = saturation_curve(powers, 1e5, 0.5, background=3.0,
                             noise="poisson", seed=rng_seed)
    result = fit("power_law", trace)
    report("saturation curve -> power_law",
           result, {"exponent": 0.5, "scale": 1e5})

    # spectral hole burned by a 200-tooth comb
    detunings = np.linspace(-60e6, 60e6, 241)
    trace = hole_spectrum(detunings, 200, 1e-7, 12e6, 2e4,
                          noise="poisson", seed=rng_seed)
    result = fit("inverted_lorentzian", trace, weights="poisson")
    report("hole scan -> inverted_lorentzian", result, {"fwhm": 12e6})
    hole = result.parameters["fwhm"]
    print(f"  homogeneous linewidth from the hole: "
          f"{hole_width_to_homogeneous(hole) / 1e6:.2f} MHz "
          f"(burned with 6.0 MHz)")

    # pulsed decay with Purcell shortening
    t = np.linspace(0.0, 5e-3, 120)
    trace = decay_histogram(2e-3 / 1.82, t, 20000, 0.05,
                            background=0.002, seed=rng_seed)
    result = fit("exp_decay", trace, weights="poisson")
    report("decay histogram -> exp_decay",
           result, {"lifetime": 2e-3 / 1.82})
    lifetime = result.parameters["lifetime"]
    print(f"  implied effective Purcell factor: "
          f"{2e-3 / lifetime - 1.0:.2f} (true 0.82)")

    # bundled measurement series
    dataset = Path(fpcavity.__file__).parent / "data" \
        / "hole_width_vs_power.csv"
    result = fit("sqrt_offset", read_trace_csv(dataset))
    report(f"bundled dataset {dataset.name} -> sqrt_offset",
           result, {"slope": 6.4e9, "offset": 3.3e6})
    # its sidecar: the y is the homogeneous linewidth, not a hole width
    configured = RunConfig.default().transitions[0].homogeneous_linewidth
    print(f"  zero-power homogeneous linewidth "
          f"{result.parameters['offset'] / 1e6:.2f} MHz "
          f"(config {configured / 1e6:.2f} MHz)")


if __name__ == "__main__":
    main()
