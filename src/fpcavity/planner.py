"""Count-rate and signal-to-noise planning for single-ion detection.

Composes the cavity and emitter models into detected photon rates for a
pulsed excite-then-collect cycle, and sweeps particle diameter and
repetition rate over the supported cavity operating modes to find the best
operating point.

Operating modes:

contact      mirrors nearly touching; only the pumped transition is
             resonant and collected, with the lowest length jitter
open_single  longer cavity tuned so both transitions are simultaneously
             resonant; only the pumped transition is collected
open_double  same cavity, both transitions collected

``transitions[0]`` is the pumped transition throughout; it is the
collected channel in contact and open_single modes.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from pathlib import Path

import numpy as np

# the plan vocabulary is stated in core, which config reads without numpy,
# and re-exported here
from .core import (CONTACT_LENGTH, PLAN_MODES, _OPEN_MODES, CavityGeometry,
                   DetectionChain, Nanoparticle, _check_mode,
                   _detection_window, _JsonRecord, _require_fraction,
                   _require_non_negative, _require_positive,
                   _require_probability, record)
from .ensemble import ChannelStrength, _loaded_channel_strengths
from .optics import double_resonance, loaded_budget, outcoupling_efficiency

CONTACT_JITTER = 0.8e-12
OPEN_JITTER = 2.5e-12

SWEEP_COLUMNS = ("d_np_nm", "f_rep_hz", "mode", "rate_cps", "snr")


@record
class PulseScheme(_JsonRecord):
    """Excite-then-collect timing of one detection cycle.

    excitation_time: pump pulse length (s), detection gated off
    detection_time: collection window (s)
    excited_population: excited-state population after the pump pulse
    """

    excitation_time: float
    detection_time: float
    excited_population: float

    def __post_init__(self):
        _require_positive("excitation_time", self.excitation_time)
        _require_positive("detection_time", self.detection_time)
        _require_fraction("excited_population", self.excited_population)

    @property
    def repetition_rate(self) -> float:
        return 1.0 / (self.excitation_time + self.detection_time)


def photon_path_efficiency(outcoupling: float,
                           chain: DetectionChain) -> float:
    """End-to-end probability that a cavity photon becomes a click."""
    _require_probability("outcoupling", outcoupling)
    return outcoupling * chain.path_transmission * chain.detector_efficiency


def snr(signal_rate: float, dark_rate: float,
        integration_time: float = 1.0) -> float:
    """Shot-noise signal-to-noise of a rate against detector dark counts."""
    _require_non_negative("signal_rate", signal_rate)
    _require_non_negative("dark_rate", dark_rate)
    _require_positive("integration_time", integration_time)
    return float(_snrs(np.array([signal_rate], dtype=float), dark_rate,
                       integration_time)[0])


def _snrs(signal_rates: np.ndarray, dark_rate: float,
          integration_time: float) -> np.ndarray:
    """:func:`snr` of each rate, for already validated arguments."""
    if dark_rate == 0.0:
        return np.where(signal_rates > 0.0, math.inf, 0.0)
    return (signal_rates * integration_time
            / math.sqrt(dark_rate * integration_time))


@record
class SweepRow(_JsonRecord):
    """One operating point of the design sweep.

    ``rate`` is the detected count rate; ``effective_purcell`` is the
    summed enhancement over the resonant transitions at this point.
    """

    diameter: float
    repetition_rate: float
    mode: str
    rate: float
    snr: float
    effective_purcell: float

    def to_dict(self) -> dict:
        # the fields hold numbers and a string, so a shallow dict equals
        # the deep copy dataclasses.asdict makes
        return dict(zip(self.__match_args__, self._values()))


def _shared_lifetime(transitions) -> float:
    lifetimes = {t.free_space_lifetime for t in transitions}
    first = next(iter(lifetimes))
    if any(abs(t - first) > 1e-9 * first for t in lifetimes):
        raise ValueError("transitions must share one excited-state lifetime")
    return first


def _cavity(mode: str, transitions, budgets, radius_of_curvature: float):
    """Geometry of one mode's cavity, with the transitions it enhances and
    their bare budgets; both open modes share one cavity."""
    _check_mode(mode, transitions)
    if mode == "contact":
        pumped = transitions[0]
        order = max(1, round(2.0 * CONTACT_LENGTH / pumped.wavelength))
        geometry = CavityGeometry(radius_of_curvature, CONTACT_LENGTH,
                                  order, CONTACT_JITTER)
        return geometry, [pumped], [budgets[0]]
    resonance = double_resonance(transitions[0].wavelength,
                                 transitions[1].wavelength)
    geometry = CavityGeometry(radius_of_curvature, resonance.cavity_length,
                              resonance.mode_order_1, OPEN_JITTER)
    return geometry, list(transitions), list(budgets)


def _collected(mode: str) -> list[bool]:
    """Which of a mode's enhanced transitions reach the detector."""
    return [True] if mode == "contact" else [True, mode == "open_double"]


def _channel_setup(particle: Nanoparticle, geometry: CavityGeometry,
                   enhanced, bare):
    """Channel strengths and outcouplings of one particle in one cavity,
    both from one loaded budget per transition."""
    loaded = [loaded_budget(budget, particle.diameter, transition.wavelength)
              for transition, budget in zip(enhanced, bare, strict=True)]
    channels = _loaded_channel_strengths(geometry, enhanced, loaded)
    return channels, [outcoupling_efficiency(budget) for budget in loaded]


def _channel_sums(channels: list[ChannelStrength], outcouplings,
                  collected) -> tuple[float, float]:
    """Summed enhancement of all channels, and of the collected ones
    weighted by their outcoupling."""
    total = math.fsum(c.strength for c in channels)
    collect = math.fsum(
        channel.strength * eta
        for channel, eta, keep in zip(channels, outcouplings, collected)
        if keep)
    return total, collect


def _detected_rates(total, collect, excitation_time: float,
                    windows, excited_population: float,
                    free_space_lifetime: float,
                    chain: DetectionChain) -> np.ndarray:
    """Detected rate for each detection window of a pulsed cycle.

    ``total`` is the summed enhancement that speeds up the decay and
    ``collect`` the part of it that reaches the output; see
    :func:`mode_detected_rate`.  Given as columns of several channel
    sums, they give one row of rates per sum.  Every element is the
    scalar formula's operations in the scalar formula's order, the
    exponential through ``math.expm1``, so it equals the scalar formula
    bit for bit.
    """
    windows = np.asarray(windows, dtype=float)
    repetition_rates = 1.0 / (excitation_time + windows)
    exponents = -(total + 1.0) * windows / free_space_lifetime
    decayed = -np.fromiter(map(math.expm1, exponents.ravel().tolist()),
                           float, exponents.size).reshape(exponents.shape)
    return (excited_population * repetition_rates * decayed
            * collect / (total + 1.0)
            * chain.path_transmission * chain.detector_efficiency)


def mode_detected_rate(channels: list[ChannelStrength], outcouplings,
                       collected, scheme: PulseScheme,
                       free_space_lifetime: float,
                       chain: DetectionChain) -> float:
    """Detected rate with the decay shared over all resonant channels.

    The decay accelerates by the summed enhancement of every resonant
    transition; only the collected channels contribute clicks, each
    weighted by its branching into the mode and its own outcoupling.
    Per cycle the ion decays inside the detection window with probability
    1 - exp(-(F + 1) t / T1), F being the summed enhancement.
    """
    _require_positive("free_space_lifetime", free_space_lifetime)
    for outcoupling in outcouplings:
        _require_probability("outcouplings", outcoupling)
    total, collect = _channel_sums(channels, outcouplings, collected)
    return float(_detected_rates(
        total, collect, scheme.excitation_time, [scheme.detection_time],
        scheme.excited_population, free_space_lifetime, chain)[0])


class Sweep(Sequence):
    """Read-only sequence of :class:`SweepRow`, as :func:`sweep_grid`
    returns it, held as columns: a row is built only when it is read.

    ``blocks`` holds one ``(mode, diameter, effective_purcell)`` key per
    (mode, diameter) pair, ``repetition_rates`` the caller's rates, and
    ``rates`` and ``snrs`` one row per block and one column per
    repetition rate.  ``list(sweep)`` gives the rows as a list.
    """

    def __init__(self, blocks: list, repetition_rates: list,
                 rates: np.ndarray, snrs: np.ndarray):
        self.blocks, self.repetition_rates = blocks, repetition_rates
        self.rates, self.snrs = rates, snrs

    def __len__(self) -> int:
        return len(self.blocks) * len(self.repetition_rates)

    def _row(self, block: int, column: int) -> SweepRow:
        mode, diameter, purcell = self.blocks[block]
        return SweepRow(diameter, self.repetition_rates[column], mode,
                        float(self.rates[block, column]),
                        float(self.snrs[block, column]), purcell)

    def __getitem__(self, index: int) -> SweepRow:
        if not -len(self) <= index < len(self):
            raise IndexError("sweep index out of range")
        return self._row(*divmod(index % len(self),
                                 len(self.repetition_rates)))

    def __iter__(self):
        for (mode, diameter, purcell), rates, snrs in zip(
                self.blocks, self.rates, self.snrs):
            for f_rep, rate, row_snr in zip(self.repetition_rates,
                                            rates.tolist(), snrs.tolist()):
                yield SweepRow(diameter, f_rep, mode, rate, row_snr, purcell)


def sweep_grid(diameters, repetition_rates, modes, transitions, budgets,
               radius_of_curvature: float, chain: DetectionChain,
               excitation_time: float, excited_population: float,
               integration_time: float = 1.0) -> Sweep:
    """Detected rate and SNR over diameter, repetition rate, and mode.

    ``budgets`` are bare-cavity budgets in transition order; each grid
    point loads them with that diameter's scattering loss.  Repetition
    rates must be finite and leave a positive detection window after the
    excitation pulse.  Every diameter is checked before any set-up.
    Each diameter's channels are set up once per cavity, the two open
    modes sharing one, and the rates of every (mode, diameter) block at
    every repetition rate come from one array pass.  Rows come in mode,
    diameter, repetition-rate order, with the caller's own diameter and
    repetition-rate objects.  The mode geometries use the constants
    ``CONTACT_LENGTH``, ``CONTACT_JITTER`` and ``OPEN_JITTER``.
    """
    if isinstance(modes, str):
        modes = (modes,)
    # each rule is checked once, before any channel is set up: PulseScheme
    # states the rules on excitation time and population, and the windows
    # are checked below
    PulseScheme(excitation_time, 1.0, excited_population)
    _require_positive("integration_time", integration_time)
    # both are read once: every mode iterates them again
    diameters = list(diameters)
    repetition_rates = list(repetition_rates)
    windows = [_detection_window(f_rep, excitation_time)
               for f_rep in repetition_rates]
    lifetime = _shared_lifetime(transitions)
    # only the diameter enters the rate; doping is a placeholder
    particles = [Nanoparticle(diameter=diameter, dopant_concentration=0.5)
                 for diameter in diameters]
    setups = {}  # per cavity; the two open modes share one
    keys, totals, collects = [], [], []
    for mode in modes:
        cavity = "open" if mode in _OPEN_MODES else mode
        if cavity not in setups:
            geometry, enhanced, bare = _cavity(mode, transitions, budgets,
                                               radius_of_curvature)
            setups[cavity] = [
                _channel_setup(particle, geometry, enhanced, bare)
                for particle in particles]
        collected = _collected(mode)
        for diameter, (channels, outcouplings) in zip(diameters,
                                                      setups[cavity]):
            total, collect = _channel_sums(channels, outcouplings, collected)
            keys.append((mode, diameter, total))
            totals.append(total)
            collects.append(collect)
    # one array pass for every (mode, diameter) block, a row each
    rates = _detected_rates(
        np.array(totals).reshape(-1, 1), np.array(collects).reshape(-1, 1),
        excitation_time, windows, excited_population, lifetime, chain)
    return Sweep(keys, repetition_rates, rates,
                 _snrs(rates, chain.dark_rate, integration_time))


def best_operating_point(sweep: Sweep) -> SweepRow:
    """Row with the highest rate; ties go to the gentlest settings.

    Of the rows holding the highest rate, the one with the lowest
    (repetition rate, diameter, mode) wins, the first in sweep order
    among equal ones.
    """
    if not sweep.rates.size:
        raise ValueError("no sweep rows to choose from")
    top = sweep.rates.max()
    if math.isnan(top):
        raise ValueError("sweep rates must not be NaN")
    if top <= 0.0:
        raise ValueError("sweep produced no usable operating point")
    tied = np.argwhere(sweep.rates == top).tolist()  # in sweep order
    block, column = min(tied, key=lambda at: (
        sweep.repetition_rates[at[1]], sweep.blocks[at[0]][1],
        sweep.blocks[at[0]][0]))
    return sweep._row(block, column)


def write_sweep_csv(sweep: Sweep, path) -> Path:
    """Write a sweep as CSV with the canonical column set.

    The repetition rates are formatted once and each block's diameter
    once; the lines go to the file one block at a time.  Modes are
    written unquoted: :func:`sweep_grid` admits only ``PLAN_MODES``.
    """
    path = Path(path)
    rate_texts = [repr(round(f, 9)) for f in sweep.repetition_rates]
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(SWEEP_COLUMNS) + "\n")
        for (mode, diameter, _), rates, snrs in zip(
                sweep.blocks, sweep.rates, sweep.snrs):
            diameter = repr(round(diameter * 1e9, 9))
            handle.write("".join([
                f"{diameter},{f_rep},{mode},{rate!r},{row_snr!r}\n"
                for f_rep, rate, row_snr in zip(
                    rate_texts, rates.tolist(), snrs.tolist())]))
    return path
