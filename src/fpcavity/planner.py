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
from array import array
from pathlib import Path

# the plan vocabulary is stated in core, which config reads without numpy,
# and re-exported here
from .core import (CONTACT_LENGTH, PLAN_MODES, _OPEN_MODES, CavityGeometry,
                   DetectionChain, Nanoparticle, _check_mode,
                   _detection_window, _JsonRecord, _require_fraction,
                   _require_non_negative, _require_positive,
                   _require_probability, _shared_lifetime)
from .optics import double_resonance, loaded_budget, outcoupling_efficiency
from .purcell import jittered_purcell

CONTACT_JITTER = 0.8e-12
OPEN_JITTER = 2.5e-12

SWEEP_COLUMNS = ("d_np_nm", "f_rep_hz", "mode", "rate_cps", "snr")


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
    return _snrs(array("d", (signal_rate,)), dark_rate, integration_time)[0]


def _snrs(signal_rates: array, dark_rate: float,
          integration_time: float) -> array:
    """:func:`snr` of each rate, for already validated arguments."""
    if dark_rate == 0.0:
        return array("d", [math.inf if r > 0.0 else 0.0 for r in signal_rates])
    noise = math.sqrt(dark_rate * integration_time)
    time = float(integration_time)
    return array("d", [rate * time / noise for rate in signal_rates])


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
    """The :func:`~.purcell.jittered_purcell` strengths and the outcouplings
    of one particle in one cavity, both from one loaded budget per
    transition."""
    loaded = [loaded_budget(budget, particle.diameter, transition.wavelength)
              for transition, budget in zip(enhanced, bare, strict=True)]
    strengths = [jittered_purcell(transition, geometry, budget)
                 for transition, budget in zip(enhanced, loaded)]
    return strengths, [outcoupling_efficiency(budget) for budget in loaded]


def _channel_sums(strengths: list[float], outcouplings,
                  collected) -> tuple[float, float]:
    """Summed enhancement of all channels, and of the collected ones
    weighted by their outcoupling."""
    collect = math.fsum(
        strength * eta
        for strength, eta, keep in zip(strengths, outcouplings, collected)
        if keep)
    return math.fsum(strengths), collect


def _detected_rates(totals, collects, excitation_time: float,
                    windows, excited_population: float,
                    free_space_lifetime: float,
                    chain: DetectionChain) -> list[array]:
    """Detected rate for each detection window of a pulsed cycle, an array
    per pair of channel sums: ``totals`` speed up the decay and ``collects``
    reach the output; see :func:`mode_detected_rate`.  Each element is the
    scalar formula's operations in its order on doubles, the exponential
    through ``math.expm1``, so it equals the scalar formula bit for bit.
    The leftmost product, the pulse's share of a window, is taken once.
    """
    # a numpy scalar of any precision enters as a double, as in an array
    windows = [float(window) for window in windows]
    excitation_time, population, lifetime, transmission, efficiency = map(
        float, (excitation_time, excited_population, free_space_lifetime,
                chain.path_transmission, chain.detector_efficiency))
    cycles = [population * (1.0 / (excitation_time + w)) for w in windows]
    return [array("d", [cycle * -math.expm1(-plus * window / lifetime)
                        * collect / plus * transmission * efficiency
                        for cycle, window in zip(cycles, windows)])
            for plus, collect in zip([t + 1.0 for t in totals], collects)]


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
    total, collect = _channel_sums([c.strength for c in channels],
                                   outcouplings, collected)
    return _detected_rates(
        [total], [collect], scheme.excitation_time, [scheme.detection_time],
        scheme.excited_population, free_space_lifetime, chain)[0][0]


class Sweep:
    """Read-only iterable of :class:`SweepRow`, as :func:`sweep_grid`
    returns it, held as columns: a row is built only when it is read.

    ``blocks`` holds one ``(mode, diameter, effective_purcell)`` key per
    (mode, diameter) pair, ``repetition_rates`` the caller's rates, and
    ``rates`` and ``snrs`` one ``array("d")`` per block, a value per
    repetition rate.  ``list(sweep)`` gives the rows as a list.
    """

    def __init__(self, blocks: list, repetition_rates: list,
                 rates: list[array], snrs: list[array]):
        self.blocks, self.repetition_rates = blocks, repetition_rates
        self.rates, self.snrs = rates, snrs

    def __len__(self) -> int:
        return len(self.blocks) * len(self.repetition_rates)

    def __iter__(self):
        for (mode, diameter, purcell), rates, snrs in zip(
                self.blocks, self.rates, self.snrs):
            for f_rep, rate, row_snr in zip(self.repetition_rates,
                                            rates, snrs):
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
    modes sharing one, and each window's pulse factor is taken once for
    every (mode, diameter) block.  Rows come in mode,
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
        for diameter, (strengths, outcouplings) in zip(diameters,
                                                       setups[cavity]):
            total, collect = _channel_sums(strengths, outcouplings, collected)
            keys.append((mode, diameter, total))
            totals.append(total)
            collects.append(collect)
    rates = _detected_rates(totals, collects, excitation_time, windows,
                            excited_population, lifetime, chain)
    return Sweep(keys, repetition_rates, rates,
                 [_snrs(block, chain.dark_rate, integration_time)
                  for block in rates])


def best_operating_point(sweep: Sweep) -> SweepRow:
    """Row with the highest rate; ties go to the gentlest settings.

    Of the rows holding the highest rate, the one with the lowest
    (repetition rate, diameter, mode) wins, the first in sweep order
    among equal ones.
    """
    if not len(sweep):
        raise ValueError("no sweep rows to choose from")
    # max passes over a NaN that is not first, so look for one
    if any(any(map(math.isnan, rates)) for rates in sweep.rates):
        raise ValueError("sweep rates must not be NaN")
    tops = [max(rates) for rates in sweep.rates]
    top = max(tops)
    if top <= 0.0:
        raise ValueError("sweep produced no usable operating point")
    tied = [(block, column)  # in sweep order
            for block, rates in enumerate(sweep.rates) if tops[block] == top
            for column, rate in enumerate(rates) if rate == top]
    block, column = min(tied, key=lambda at: (
        sweep.repetition_rates[at[1]], sweep.blocks[at[0]][1],
        sweep.blocks[at[0]][0]))
    mode, diameter, purcell = sweep.blocks[block]
    return SweepRow(diameter, sweep.repetition_rates[column], mode,
                    sweep.rates[block][column], sweep.snrs[block][column],
                    purcell)


def write_sweep_csv(sweep: Sweep, path) -> Path:
    """Write a sweep as CSV with the canonical column set.

    The repetition rates are formatted once and each block's diameter
    once; the lines go to the file one block at a time.  Modes are
    written unquoted: :func:`sweep_grid` admits only ``PLAN_MODES``.
    """
    path = Path(path)
    rate_texts = [repr(round(f, 9)) for f in sweep.repetition_rates]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(SWEEP_COLUMNS) + "\n")
        for (mode, diameter, _), rates, snrs in zip(
                sweep.blocks, sweep.rates, sweep.snrs):
            diameter = repr(round(diameter * 1e9, 9))
            handle.write("".join([
                f"{diameter},{f_rep},{mode},{rate!r},{row_snr!r}\n"
                for f_rep, rate, row_snr in zip(rate_texts, rates, snrs)]))
    return path
