"""Every public function of ``fpcavity`` against non-finite float inputs.

``CALLS`` gives each public function, and each value type that checks
every field, one valid call.  The sweep replaces each float argument of that
call in turn by NaN, +inf and -inf, each as a Python float, as a numpy
``float32`` and as a 0-d array, and requires ``ValueError``; it does the
same to the last entry of each list or array of floats, and to each count
argument (``n_teeth``, ``shots``, a mode order, ``n_samples``,
``n_draws``, ``total_ions``).  A new public function must join the table,
and a call must pass every parameter whose default is a float, so no float
argument escapes the sweep.  The public functions are read off
``fpcavity.__all__``, since the package loads its layers on first use.
"""
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

import fpcavity
from fpcavity import (
    CavityGeometry,
    DetectionChain,
    LossBudget,
    Nanoparticle,
    PulseScheme,
    RunConfig,
    SpectralPopulation,
    Transition,
    channel_strengths,
    decay_histogram,
    sweep_grid,
)

T580 = Transition(580.8e-9, 0.007, 3.3e6, 2.0e-3)
T611 = Transition(611.0e-9, 0.36, 680e9, 2.0e-3)
TRANSITIONS = [T580, T611]
GEOMETRY = CavityGeometry(25e-6, 5.808e-6, 20, 8e-12)
BUDGET = LossBudget(25.0, 200.0, 134.04)
BUDGETS = [BUDGET, LossBudget(25.0, 200.0, 436.39)]
PARTICLE = Nanoparticle(70e-9, 0.003)
CHAIN = DetectionChain(0.8, 0.65, 20.0)
SCHEME = PulseScheme(1e-6, 1e-3, 0.5)
POPULATION = SpectralPopulation(20000, 34e9)
GRID = np.linspace(-50e6, 50e6, 5)
TIMES = np.linspace(0.0, 5e-3, 20)
TRACE = decay_histogram(1e-3, TIMES, 100, 0.05, noise="none")
CHANNELS = channel_strengths(PARTICLE, GEOMETRY, TRANSITIONS, BUDGETS)
SWEEP = sweep_grid([70e-9], [1000.0], ["contact"], TRANSITIONS, BUDGETS,
                   25e-6, CHAIN, 1e-6, 0.5)
BUNDLED = Path(fpcavity.__file__).parent / "data" / "hole_width_vs_power.csv"
RNG = np.random.default_rng(0)

# name in fpcavity -> (args, kwargs) of a valid call; files go to the
# test's working directory
CALLS = {
    # core
    "wavelength_to_frequency": ((580.8e-9,), {}),
    "frequency_to_wavelength": ((5.16e14,), {}),
    "linewidth_to_coherence_time": ((3.3e6,), {}),
    "Transition": ((580.8e-9, 0.007, 3.3e6, 2.0e-3), {}),
    "CavityGeometry": ((25e-6, 5.808e-6, 20), {"rms_length_jitter": 8e-12}),
    "Nanoparticle": ((70e-9, 0.003), {"cation_density": 5.34e28}),
    # optics
    "LossBudget": ((25.0, 200.0, 134.04), {"particle_scatter": 13.0}),
    "free_spectral_range": ((5.808e-6,), {}),
    "mode_waist": ((580.8e-9, 25e-6, 5.808e-6), {}),
    "resonance_length": ((580.8e-9, 20), {}),
    "double_resonance": ((580.8e-9, 611.0e-9), {}),
    "finesse": ((BUDGET,), {}),
    "cavity_linewidth": ((5.808e-6, BUDGET), {}),
    "particle_scattering_loss": ((70e-9,), {"wavelength": 580.8e-9}),
    "outcoupling_efficiency": ((BUDGET,), {}),
    "lorentzian_suppression": ((0.5,), {}),
    # purcell
    "nominal_purcell": ((580.8e-9, 17500.0, 1.41e-6), {}),
    "jitter_suppression": ((8e-12, 580.8e-9, 17500.0), {}),
    "bad_emitter_factor": ((1.5e9, 3.3e6), {}),
    "multimodal_sum": (([2.5, 0.47],), {}),
    "purcell_from_lifetimes": ((2.0e-3, 1.0e-3), {}),
    "cavity_lifetime": ((2.0e-3, 0.82), {}),
    "ideal_purcell_from_effective": ((1.0, 0.007), {}),
    "cavity_branching": ((1.0, 0.007), {}),
    "coupling_rate": ((3.7, 1.6e9, 3.3e6, 2.0e-3), {}),
    "cooperativity": ((3.5e5, 1.6e9, 3.3e6), {}),
    "saturation_intensity": ((3.3e6, 0.007, 580.8e-9), {}),
    "saturation_power": ((2.0e4, 1.41e-6), {}),
    "coupling_report": ((T580, GEOMETRY, BUDGET), {"jitter_sigma": 8e-12}),
    # ensemble
    "sample_orientation_factor": ((RNG,), {}),
    "sample_height": ((70e-9, RNG), {}),
    "standing_wave_factor": ((20e-9, 580.8e-9, 87e-9), {}),
    "channel_strengths": ((PARTICLE, GEOMETRY, TRANSITIONS, BUDGETS), {}),
    "ensemble_purcell_stats": (
        (PARTICLE, GEOMETRY, TRANSITIONS, BUDGETS),
        {"n_samples": 10, "antinode_offset_fraction": 0.15}),
    "total_ion_count": ((PARTICLE,), {}),
    "default_hyperfine_classes": ((), {}),
    "SpectralPopulation": ((20000, 34e9), {"center_frequency": 1e6}),
    "expected_ions_in_bandwidth": ((POPULATION, 0.0, 13e6), {}),
    "ions_in_bandwidth": ((POPULATION, 0.0, 13e6), {"n_draws": 10}),
    "sfs_spectrum": ((POPULATION, 13e6, GRID), {"rate_per_ion": 1.0}),
    # spectra
    "lorentzian_profile": ((GRID, 0.0, 1e6), {}),
    "ple_scan": ((34e9, 0.0, 1000.0, 50.0, GRID),
                 {"population": POPULATION, "probe_fwhm": 13e6}),
    "saturation_curve": ((np.geomspace(1e-9, 1e-5, 5), 1000.0, 0.5),
                         {"background": 1.0}),
    "hole_spectrum": ((GRID, 4, 1e-7, 12e6, 100.0), {}),
    "hole_width_to_homogeneous": ((12e6,), {"laser_fwhm": 1e5}),
    "power_broadening": ((1e-6, 1e3, 1e6), {}),
    "decay_histogram": ((1e-3, TIMES, 100, 0.05), {"background": 0.002}),
    # fitting
    "auto_initial_guess": (("exp_decay", TRACE.x, TRACE.y), {}),
    "fit": (("exp_decay", TRACE), {"tolerance": 1e-10}),
    # planner
    "DetectionChain": ((0.8, 0.65, 20.0), {}),
    "PulseScheme": ((1e-6, 1e-3, 0.5), {}),
    "photon_path_efficiency": ((0.5, CHAIN), {}),
    "snr": ((100.0, 20.0), {"integration_time": 1.0}),
    "mode_detected_rate": ((CHANNELS, [0.5, 0.4], [True, False], SCHEME,
                            2.0e-3, CHAIN), {}),
    "sweep_grid": (([70e-9], [1000.0], ["contact"], TRANSITIONS, BUDGETS,
                    25e-6, CHAIN, 1e-6, 0.5), {"integration_time": 1.0}),
    "best_operating_point": ((SWEEP,), {}),
    "write_sweep_csv": ((SWEEP, "sweep.csv"), {}),
    # trace
    "read_trace_csv": ((BUNDLED,), {}),
    "write_trace_csv": ((TRACE, "trace.csv"), {}),
    "write_trace": ((TRACE, "trace.csv"), {"metadata": {"kind": "decay"}}),
    "sidecar_path": (("trace.csv",), {}),
    # config
    "build_manifest": ((["fpcavity", "cavity"], RunConfig.default(), 0),
                       {}),
    "default_config_data": ((), {}),
}

PUBLIC_FUNCTIONS = sorted(
    name for name in fpcavity.__all__
    if inspect.isfunction(getattr(fpcavity, name)))

# integer arguments that are not counts, so not swept
NOT_COUNTS = {("build_manifest", 2)}  # the seed, recorded as given


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def _is_float(value):
    return type(value) is float


def _is_int(value):
    return type(value) is int


def _is_float_list(value):
    return isinstance(value, (list, np.ndarray)) \
        and isinstance(value[-1], float)


def _arguments(name, kind):
    """Positions and keywords of the arguments of a table call that the
    predicate ``kind`` accepts."""
    args, kwargs = CALLS[name]
    return [where for where, value in [*enumerate(args), *kwargs.items()]
            if kind(value)]


def _call_with(name, where, value):
    """The table call of ``name`` with the argument at ``where`` replaced."""
    args, kwargs = CALLS[name]
    args, kwargs = list(args), dict(kwargs)
    if isinstance(where, int):
        args[where] = value
    else:
        kwargs[where] = value
    return getattr(fpcavity, name)(*args, **kwargs)


def test_table_covers_every_public_function():
    missing = sorted(set(PUBLIC_FUNCTIONS) - set(CALLS))
    assert not missing, f"add a valid call to CALLS for {missing}"


def test_the_sweep_sees_every_public_function():
    # an enumeration that misses lazily loaded names would shrink the sweep
    functions = {name for name in CALLS if name[0].islower()}
    assert len(functions) == 56
    assert set(PUBLIC_FUNCTIONS) == functions


@pytest.mark.parametrize("name", PUBLIC_FUNCTIONS)
def test_each_call_passes_every_float_parameter(name):
    # a defaulted float left out of the call would escape the sweep
    function = getattr(fpcavity, name)
    args, kwargs = CALLS[name]
    passed = inspect.signature(function).bind(*args, **kwargs).arguments
    defaulted = [parameter.name for parameter
                 in inspect.signature(function).parameters.values()
                 if type(parameter.default) is float]
    assert set(defaulted) <= set(passed)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_each_call_is_valid(name):
    args, kwargs = CALLS[name]
    getattr(fpcavity, name)(*args, **kwargs)


NON_FINITE = pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])


@pytest.mark.parametrize("form", [float, np.float32, np.array],
                         ids=["float", "float32", "0d"])
@NON_FINITE
@pytest.mark.parametrize("name, where", [
    pytest.param(name, where, id=f"{name}-{where}")
    for name in sorted(CALLS) for where in _arguments(name, _is_float)])
def test_non_finite_float_arguments_are_rejected(name, where, value, form):
    with pytest.raises(ValueError):
        _call_with(name, where, form(value))


@pytest.mark.parametrize("form", [float, np.float32, np.array],
                         ids=["float", "float32", "0d"])
@NON_FINITE
@pytest.mark.parametrize("name, where", [
    pytest.param(name, where, id=f"{name}-{where}")
    for name in sorted(CALLS) for where in _arguments(name, _is_int)
    if (name, where) not in NOT_COUNTS])
def test_non_finite_counts_are_rejected(name, where, value, form):
    with pytest.raises(ValueError, match="must be finite"):
        _call_with(name, where, form(value))


def test_the_count_sweep_covers_every_count():
    counts = {(name, where) for name in CALLS
              for where in _arguments(name, _is_int)} - NOT_COUNTS
    assert counts == {
        ("resonance_length", 1), ("CavityGeometry", 2),
        ("hole_spectrum", 1), ("decay_histogram", 2),
        ("ensemble_purcell_stats", "n_samples"),
        ("ions_in_bandwidth", "n_draws"), ("SpectralPopulation", 0)}


@NON_FINITE
@pytest.mark.parametrize("name, where", [
    pytest.param(name, where, id=f"{name}-{where}")
    for name in sorted(CALLS) for where in _arguments(name, _is_float_list)])
def test_non_finite_float_entries_are_rejected(name, where, value):
    args, kwargs = CALLS[name]
    entries = args[where] if isinstance(where, int) else kwargs[where]
    entries = np.array(entries) if isinstance(entries, np.ndarray) \
        else list(entries)
    entries[-1] = value
    with pytest.raises(ValueError):
        _call_with(name, where, entries)
