"""Design and analysis toolkit for fiber microcavities coupled to
narrow-line emitters in nanoparticles.

The package splits into thin layers: ``core`` holds the domain value
types, ``optics`` the mirror and mode geometry, ``purcell`` the
emission-enhancement chain, ``ensemble`` the Monte Carlo statistics,
``spectra``/``fitting`` the measurement simulators and their analysis,
``planner`` the detection budget, and ``cli``/``config`` the reproducible
run plumbing.  Everything commonly needed is re-exported here.
"""
from .core import (
    HBAR,
    SPEED_OF_LIGHT,
    TOOLKIT_VERSION,
    YTTRIA_CATION_DENSITY,
    CavityGeometry,
    Nanoparticle,
    NumericalError,
    Transition,
    frequency_to_wavelength,
    linewidth_to_coherence_time,
    wavelength_to_frequency,
)
from .optics import (
    DoubleResonance,
    LossBudget,
    cavity_linewidth,
    double_resonance,
    finesse,
    free_spectral_range,
    lorentzian_suppression,
    mode_waist,
    outcoupling_efficiency,
    particle_scattering_loss,
    resonance_length,
)
from .purcell import (
    CouplingReport,
    bad_emitter_factor,
    cavity_branching,
    cavity_lifetime,
    cooperativity,
    coupling_rate,
    coupling_report,
    ideal_purcell_from_effective,
    jitter_suppression,
    multimodal_sum,
    nominal_purcell,
    purcell_from_lifetimes,
    saturation_intensity,
    saturation_power,
)
from .ensemble import (
    ChannelStrength,
    EnsembleStats,
    IonCountStats,
    SpectralPopulation,
    channel_strengths,
    default_hyperfine_classes,
    ensemble_purcell_stats,
    expected_ions_in_bandwidth,
    ions_in_bandwidth,
    sample_height,
    sample_orientation_factor,
    sfs_spectrum,
    standing_wave_factor,
    total_ion_count,
)
from .spectra import (
    decay_histogram,
    hole_spectrum,
    hole_width_to_homogeneous,
    lorentzian_profile,
    ple_scan,
    power_broadening,
    saturation_curve,
)
from .fitting import (
    MODELS,
    FitResult,
    auto_initial_guess,
    fit,
)
from .planner import (
    CONTACT_LENGTH,
    PLAN_MODES,
    DetectionChain,
    PulseScheme,
    SweepRow,
    best_operating_point,
    mode_detected_rate,
    photon_path_efficiency,
    snr,
    sweep_grid,
    write_sweep_csv,
)
from .trace import (
    Trace,
    TraceFormatError,
    read_trace_csv,
    sidecar_path,
    write_trace,
    write_trace_csv,
)
from .config import (
    ConfigError,
    RunConfig,
    RunManifest,
    build_manifest,
    default_config_data,
)

__version__ = TOOLKIT_VERSION
