"""Build up the effective Purcell factor one degradation at a time.

The ideal single-mode enhancement gets multiplied down by the branching
ratio, the emitter-linewidth overlap, and the cavity length jitter; the
remaining factors (dipole orientation, standing-wave position) are random
per ion and belong to the ensemble picture.  Ends with the lifetime and
saturation consequences of the composed factor.
"""
from fpcavity import (
    CavityGeometry,
    LossBudget,
    Transition,
    bad_emitter_factor,
    cavity_branching,
    cavity_lifetime,
    cavity_linewidth,
    coupling_report,
    finesse,
    jitter_suppression,
    mode_waist,
    multimodal_sum,
    nominal_purcell,
    saturation_intensity,
    saturation_power,
)
from fpcavity.optics import loaded_budget

T_BLUE = Transition(wavelength=580.8e-9, branching_ratio=0.007,
                    homogeneous_linewidth=3.3e6, free_space_lifetime=2e-3)
T_RED = Transition(wavelength=611e-9, branching_ratio=0.36,
                   homogeneous_linewidth=680e9, free_space_lifetime=2e-3)
BUDGETS = {T_BLUE: LossBudget(25.0, 200.0, 134.04),
           T_RED: LossBudget(25.0, 200.0, 436.39)}
GEOMETRY = CavityGeometry(25e-6, 5.808e-6, 20, rms_length_jitter=8e-12)
PARTICLE_DIAMETER = 70e-9


def budget_walk(transition: Transition) -> float:
    loaded = loaded_budget(BUDGETS[transition], PARTICLE_DIAMETER,
                           transition.wavelength)
    f = finesse(loaded)
    waist = mode_waist(transition.wavelength, GEOMETRY.radius_of_curvature,
                       GEOMETRY.cavity_length)
    kappa = cavity_linewidth(GEOMETRY.cavity_length, loaded)
    nominal = nominal_purcell(transition.wavelength, f, waist)
    overlap = bad_emitter_factor(kappa, transition.homogeneous_linewidth)
    jitter = jitter_suppression(GEOMETRY.rms_length_jitter,
                                transition.wavelength, f)
    running = nominal
    print(f"  ideal F_P (finesse {f:.0f}, waist {waist * 1e6:.2f} um): "
          f"{running:8.1f}")
    running *= transition.branching_ratio
    print(f"  x branching {transition.branching_ratio:<8.3f} -> "
          f"{running:8.3f}")
    running *= overlap
    print(f"  x line overlap {overlap:<8.5f} -> {running:8.3f}")
    running *= jitter
    print(f"  x length jitter {jitter:<8.3f} -> {running:8.3f}")
    return running


def main() -> None:
    effectives = []
    for label, transition in (("blue (pumped)", T_BLUE), ("red", T_RED)):
        print(f"{label}, {transition.wavelength * 1e9:.1f} nm:")
        effectives.append(budget_walk(transition))
        print()
    total = multimodal_sum(effectives)
    print(f"summed effective Purcell factor (best-placed ion): "
          f"{total:.3f}")

    lifetime = cavity_lifetime(T_BLUE.free_space_lifetime, total)
    print(f"excited-state lifetime: {T_BLUE.free_space_lifetime * 1e3:.1f} "
          f"ms free space -> {lifetime * 1e3:.3f} ms in the cavity")
    print(f"fraction of decays into the pumped line: "
          f"{cavity_branching(effectives[0], T_BLUE.branching_ratio):.3f} "
          f"(free space {T_BLUE.branching_ratio:.3f})")

    intensity = saturation_intensity(T_BLUE.homogeneous_linewidth,
                                     T_BLUE.branching_ratio,
                                     T_BLUE.wavelength)
    waist = mode_waist(T_BLUE.wavelength, GEOMETRY.radius_of_curvature,
                       GEOMETRY.cavity_length)
    print(f"saturation: {intensity / 1e4:.2f} W/cm^2, "
          f"{saturation_power(intensity, waist) * 1e9:.1f} nW in the mode")

    print("\nbest-case coupling table (no jitter, ion on axis at an "
          "antinode):")
    for transition in (T_BLUE, T_RED):
        loaded = loaded_budget(BUDGETS[transition], PARTICLE_DIAMETER,
                               transition.wavelength)
        report = coupling_report(transition, GEOMETRY, loaded)
        row = report.to_table_row()
        print(f"  {transition.wavelength * 1e9:6.1f} nm: "
              f"g = 2pi x {row['g'] / 1e6:.3f} MHz, "
              f"kappa = 2pi x {row['kappa'] / 1e9:.2f} GHz, "
              f"F_eff = {row['f_eff']:.3f}, "
              f"C = {row['cooperativity']:.2e}")
    loaded_blue = finesse(loaded_budget(BUDGETS[T_BLUE], PARTICLE_DIAMETER,
                                        T_BLUE.wavelength))
    print(f"  (x_hw for the blue mode is "
          f"{T_BLUE.wavelength / (4 * loaded_blue) * 1e12:.1f}"
          f" pm; the 8 pm lock residual costs the factor "
          f"{jitter_suppression(8e-12, T_BLUE.wavelength, loaded_blue):.2f}"
          f" above)")


if __name__ == "__main__":
    main()
