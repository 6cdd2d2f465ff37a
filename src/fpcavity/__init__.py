"""Design and analysis toolkit for fiber microcavities coupled to
narrow-line emitters in nanoparticles.

The package splits into thin layers: ``core`` holds the domain value
types, ``optics`` the mirror and mode geometry, ``purcell`` the
emission-enhancement chain, ``ensemble`` the ensemble and ion-count
statistics, ``spectra``/``fitting`` the measurement simulators and their
analysis, ``planner`` the detection budget, and ``cli``/``config`` the
reproducible run plumbing.  Everything commonly needed is re-exported here.

Each layer loads on first use.  ``import fpcavity`` puts every layer but
``cli`` in ``sys.modules`` unexecuted, as a ``_Layer``; the first read of
a name in a layer, ``from`` import included, runs it, under a lock.  The
re-exported names are looked up in their layer on every read (PEP 562), so
``import fpcavity`` imports no numpy.
"""
import _thread
import importlib.util
import sys
import types

# each layer and the names the package re-exports from it
_EXPORTS = {
    "core": (
        "CONTACT_LENGTH", "HBAR", "PLAN_MODES", "SPEED_OF_LIGHT",
        "TOOLKIT_VERSION", "YTTRIA_CATION_DENSITY", "CavityGeometry",
        "DetectionChain", "Nanoparticle", "NumericalError", "Transition",
        "frequency_to_wavelength", "linewidth_to_coherence_time",
        "sidecar_path", "wavelength_to_frequency"),
    "optics": (
        "DoubleResonance", "LossBudget", "cavity_linewidth",
        "double_resonance", "finesse", "free_spectral_range",
        "lorentzian_suppression", "mode_waist", "outcoupling_efficiency",
        "particle_scattering_loss", "resonance_length"),
    "purcell": (
        "CouplingReport", "bad_emitter_factor", "cavity_branching",
        "cavity_lifetime", "cooperativity", "coupling_rate",
        "coupling_report", "ideal_purcell_from_effective",
        "jitter_suppression", "multimodal_sum", "nominal_purcell",
        "purcell_from_lifetimes", "saturation_intensity",
        "saturation_power"),
    "ensemble": (
        "ChannelStrength", "EnsembleStats", "ExactMoments", "IonCountStats",
        "SpectralPopulation", "channel_strengths",
        "default_hyperfine_classes", "ensemble_moments",
        "ensemble_purcell_stats", "expected_ions_in_bandwidth",
        "ion_count_moments", "ions_in_bandwidth", "sample_height",
        "sample_orientation_factor", "sfs_spectrum", "standing_wave_factor",
        "total_ion_count"),
    "spectra": (
        "decay_histogram", "hole_spectrum", "hole_width_to_homogeneous",
        "lorentzian_profile", "ple_scan", "power_broadening",
        "saturation_curve"),
    "fitting": ("MODELS", "FitResult", "auto_initial_guess", "fit"),
    "planner": (
        "PulseScheme", "SweepRow", "best_operating_point",
        "mode_detected_rate", "photon_path_efficiency", "snr", "sweep_grid",
        "write_sweep_csv"),
    "trace": (
        "Trace", "TraceFormatError", "read_trace_csv", "write_trace",
        "write_trace_csv"),
    "config": (
        "ConfigError", "RunConfig", "RunManifest", "build_manifest",
        "default_config_data"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items()
             for name in names}
__all__ = [*_EXPORTS, *_LAYER_OF]


# re-entrant: held through a layer's run, which runs the layers it imports
_RUNNING = _thread.RLock()


class _Layer(types.ModuleType):
    """A layer that has not run.  The first read of any name but
    ``__spec__``, which the import system reads, runs it into its own
    namespace and makes it a plain module, holding ``_RUNNING`` so that a
    second thread waits for the whole run.  A run that raises leaves it a
    ``_Layer``: every later read, ``from layer import name`` included, runs
    it again and raises the layer's own error again."""

    def __getattribute__(self, name):
        read = types.ModuleType.__getattribute__
        if name != "__spec__":
            with _RUNNING:
                if type(self) is _Layer:
                    spec = read(self, "__spec__")
                    exec(spec.loader.get_code(spec.name),
                         read(self, "__dict__"))
                    self.__class__ = types.ModuleType
        return read(self, name)


def _lazy(name: str):
    """Register the module ``name`` in ``sys.modules`` as an unrun layer."""
    module = importlib.util.module_from_spec(importlib.util.find_spec(name))
    module.__class__ = _Layer
    sys.modules[name] = module
    return module


# cli is left out: ``python -m fpcavity.cli`` warns if it is registered
globals().update({layer: _lazy(f"{__name__}.{layer}") for layer in _EXPORTS})


def __getattr__(name: str):
    # not cached here: a wrapper installed in a layer later is seen
    if name == "__version__":
        name = "TOOLKIT_VERSION"
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAYER_OF[name]], name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
