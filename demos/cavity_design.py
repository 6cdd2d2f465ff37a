"""Walk through the passive cavity design.

Starts from the mirror loss budget, finds the cavity length where both
emission lines are simultaneously resonant, and prints the mode geometry,
finesse, and linewidth for the open and contact configurations.  Writes a
waist-versus-length table to demos/output/.
"""
from pathlib import Path

import numpy as np

from fpcavity import (
    LossBudget,
    cavity_linewidth,
    double_resonance,
    finesse,
    free_spectral_range,
    mode_waist,
    outcoupling_efficiency,
)
from fpcavity.optics import loaded_budget

RADIUS_OF_CURVATURE = 25e-6
WAVELENGTH_BLUE = 580.8e-9
WAVELENGTH_RED = 611e-9
CONTACT_LENGTH = 2.5e-6

BUDGET_BLUE = LossBudget(25.0, 200.0, 134.04)
BUDGET_RED = LossBudget(25.0, 200.0, 436.39)


def main() -> None:
    print("step 1: double resonance")
    solution = double_resonance(WAVELENGTH_BLUE, WAVELENGTH_RED)
    d = solution.cavity_length
    print(f"  orders {solution.mode_order_1}/{solution.mode_order_2} "
          f"coincide at d = {d * 1e6:.4f} um")
    print(f"  residual detuning of the red mode: "
          f"{solution.residual_detuning / 1e9:.1f} GHz "
          f"(vs FSR {free_spectral_range(d) / 1e12:.2f} THz)")

    print("\nstep 2: mode geometry")
    for label, wavelength in (("blue", WAVELENGTH_BLUE),
                              ("red", WAVELENGTH_RED)):
        waist = mode_waist(wavelength, RADIUS_OF_CURVATURE, d)
        print(f"  {label} waist at d = {d * 1e6:.3f} um: "
              f"{waist * 1e6:.3f} um")
    contact = mode_waist(WAVELENGTH_BLUE, RADIUS_OF_CURVATURE,
                         CONTACT_LENGTH)
    print(f"  contact waist at d = {CONTACT_LENGTH * 1e6:.1f} um: "
          f"{contact * 1e6:.3f} um")

    print("\nstep 3: finesse and linewidth from the loss budgets")
    for label, wavelength, budget in (
            ("blue", WAVELENGTH_BLUE, BUDGET_BLUE),
            ("red", WAVELENGTH_RED, BUDGET_RED)):
        bare_f = finesse(budget)
        loaded = loaded_budget(budget, 70e-9, wavelength)
        loaded_f = finesse(loaded)
        print(f"  {label}: total loss {budget.total:.1f} ppm -> finesse "
              f"{bare_f:.0f}, kappa "
              f"{cavity_linewidth(d, budget) / 1e9:.2f} GHz")
        print(f"        with a 70 nm particle: {loaded.total:.1f} ppm -> "
              f"{loaded_f:.0f}, "
              f"{cavity_linewidth(d, loaded) / 1e9:.2f} GHz, "
              f"outcoupling {outcoupling_efficiency(loaded):.3f}")

    out_dir = Path(__file__).parent / "output"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / "waist_vs_length.csv"
    lengths = np.linspace(1e-6, 24e-6, 47)
    with out.open("w", newline="\n") as handle:
        handle.write("length_um,waist_blue_um,waist_red_um\n")
        for length in lengths:
            blue = mode_waist(WAVELENGTH_BLUE, RADIUS_OF_CURVATURE, length)
            red = mode_waist(WAVELENGTH_RED, RADIUS_OF_CURVATURE, length)
            handle.write(f"{length * 1e6:.3f},{blue * 1e6:.5f},"
                         f"{red * 1e6:.5f}\n")
    print(f"\nwrote waist table ({len(lengths)} lengths) to {out}")


if __name__ == "__main__":
    main()
