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

import csv
import io
import itertools
import math
import operator
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import CavityGeometry, Nanoparticle, _JsonRecord, _require_finite
from .ensemble import ChannelStrength, channel_strengths
from .optics import double_resonance, loaded_budget, outcoupling_efficiency

PLAN_MODES = ("contact", "open_single", "open_double")
_OPEN_MODES = ("open_single", "open_double")

CONTACT_LENGTH = 2.5e-6
CONTACT_JITTER = 0.8e-12
OPEN_JITTER = 2.5e-12

SWEEP_COLUMNS = ("d_np_nm", "f_rep_hz", "mode", "rate_cps", "snr")


@dataclass(frozen=True)
class DetectionChain(_JsonRecord):
    """Photon path from the cavity output to counted clicks.

    path_transmission: fiber and filter transmission (fraction)
    detector_efficiency: detector quantum efficiency (fraction)
    dark_rate: detector dark counts (counts/s)
    """

    path_transmission: float
    detector_efficiency: float
    dark_rate: float

    def __post_init__(self):
        _require_finite(self)
        if not 0.0 < self.path_transmission <= 1.0:
            raise ValueError("path_transmission must be in (0, 1]")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValueError("detector_efficiency must be in (0, 1]")
        if self.dark_rate < 0.0:
            raise ValueError("dark_rate must be >= 0")


@dataclass(frozen=True)
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
        _require_finite(self)
        for name in ("excitation_time", "detection_time"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.excited_population <= 1.0:
            raise ValueError("excited_population must be in (0, 1]")

    @property
    def repetition_rate(self) -> float:
        return 1.0 / (self.excitation_time + self.detection_time)


def photon_path_efficiency(outcoupling: float,
                           chain: DetectionChain) -> float:
    """End-to-end probability that a cavity photon becomes a click."""
    if not 0.0 <= outcoupling <= 1.0:
        raise ValueError("outcoupling must be in [0, 1]")
    return outcoupling * chain.path_transmission * chain.detector_efficiency


def snr(signal_rate: float, dark_rate: float,
        integration_time: float = 1.0) -> float:
    """Shot-noise signal-to-noise of a rate against detector dark counts."""
    for name, rate in (("signal_rate", signal_rate), ("dark_rate", dark_rate)):
        if not (math.isfinite(rate) and rate >= 0.0):
            raise ValueError(f"{name} must be finite and >= 0")
    _check_integration_time(integration_time)
    return float(_snrs(np.array([signal_rate], dtype=float), dark_rate,
                       integration_time)[0])


def _check_integration_time(integration_time: float) -> None:
    if not (math.isfinite(integration_time) and integration_time > 0.0):
        raise ValueError("integration_time must be finite and positive")


def _snrs(signal_rates: np.ndarray, dark_rate: float,
          integration_time: float) -> np.ndarray:
    """:func:`snr` of each rate, for already validated arguments."""
    if dark_rate == 0.0:
        return np.where(signal_rates > 0.0, math.inf, 0.0)
    return (signal_rates * integration_time
            / math.sqrt(dark_rate * integration_time))


@dataclass(frozen=True, slots=True)
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
        return dict(zip(_ROW_FIELDS, _row_values(self)))


_ROW_FIELDS = tuple(f.name for f in fields(SweepRow))
_row_values = operator.attrgetter(*_ROW_FIELDS)
# SweepRow has no __post_init__, so a row is nothing but its six slots:
# these are their setters, in field order
_ROW_SETTERS = tuple(getattr(SweepRow, name).__set__ for name in _ROW_FIELDS)


def _block_rows(diameter, repetition_rates: list, mode: str, rates: list,
                snrs: list, effective_purcell: float) -> list[SweepRow]:
    """``SweepRow(diameter, f_rep, mode, rate, snr, effective_purcell)``
    for each repetition rate and its rate and SNR, built column by
    column."""
    rows = list(map(object.__new__,
                    itertools.repeat(SweepRow, len(repetition_rates))))
    columns = (itertools.repeat(diameter), repetition_rates,
               itertools.repeat(mode), rates, snrs,
               itertools.repeat(effective_purcell))
    for setter, column in zip(_ROW_SETTERS, columns):
        deque(map(setter, rows, column), maxlen=0)
    return rows


def _shared_lifetime(transitions) -> float:
    lifetimes = {t.free_space_lifetime for t in transitions}
    first = next(iter(lifetimes))
    if any(abs(t - first) > 1e-9 * first for t in lifetimes):
        raise ValueError("transitions must share one excited-state lifetime")
    return first


def _cavity(mode: str, transitions, budgets, radius_of_curvature: float):
    """Geometry of one mode's cavity, with the transitions it enhances and
    their bare budgets; both open modes share one cavity."""
    if mode == "contact":
        pumped = transitions[0]
        order = max(1, round(2.0 * CONTACT_LENGTH / pumped.wavelength))
        geometry = CavityGeometry(radius_of_curvature, CONTACT_LENGTH,
                                  order, CONTACT_JITTER)
        return geometry, [pumped], [budgets[0]]
    if mode not in _OPEN_MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {PLAN_MODES}")
    if len(transitions) != 2:
        raise ValueError(f"mode {mode!r} needs exactly two transitions")
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
    """Channel strengths and outcouplings of one particle in one cavity."""
    channels = channel_strengths(particle, geometry, enhanced, bare)
    outcouplings = [
        outcoupling_efficiency(loaded_budget(budget, particle.diameter,
                                             transition.wavelength))
        for transition, budget in zip(enhanced, bare)]
    return channels, outcouplings


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
    total, collect = _channel_sums(channels, outcouplings, collected)
    return float(_detected_rates(
        total, collect, scheme.excitation_time, [scheme.detection_time],
        scheme.excited_population, free_space_lifetime, chain)[0])


class _Block(NamedTuple):
    """Sweep rows of one (mode, diameter) pair, with their repetition
    rates as a list and their rates and SNRs as arrays."""

    mode: str
    diameter: float
    rows: list[SweepRow]
    repetition_rates: list
    rates: np.ndarray
    snrs: np.ndarray

    @classmethod
    def of_rows(cls, rows: list[SweepRow]) -> _Block:
        return cls(rows[0].mode, rows[0].diameter, rows,
                   [row.repetition_rate for row in rows],
                   np.array([float(row.rate) for row in rows]),
                   np.array([float(row.snr) for row in rows]))


class Sweep(Sequence):
    """Read-only sequence of :class:`SweepRow`, as :func:`sweep_grid`
    returns it.

    Next to the rows it keeps each (mode, diameter) block's rates and SNRs
    as arrays, which :func:`best_operating_point` and
    :func:`write_sweep_csv` work on; ``list(sweep)`` gives a mutable copy.
    """

    __slots__ = ("_blocks", "_rows")

    def __init__(self, blocks: list[_Block]):
        self._blocks = blocks
        self._rows = list(itertools.chain.from_iterable(
            block.rows for block in blocks))

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        return self._rows[index]

    def __iter__(self):
        return iter(self._rows)

    def __eq__(self, other):
        if isinstance(other, Sweep):
            other = other._rows
        if not isinstance(other, list):
            return NotImplemented
        return self._rows == other

    def __repr__(self) -> str:
        return f"<Sweep of {len(self)} rows>"


def _as_blocks(rows):
    """``rows`` in block form, one block at a time: a sweep's own blocks,
    or for any other iterable of :class:`SweepRow` one block per run of
    consecutive rows holding the same mode, diameter and effective
    Purcell objects, so that ``list(sweep)`` gives the sweep's blocks."""
    if isinstance(rows, Sweep):
        yield from rows._blocks
        return
    run = []
    diameter = mode = purcell = None
    for row in rows:
        if not (row.diameter is diameter and row.mode is mode
                and row.effective_purcell is purcell):
            if run:
                yield _Block.of_rows(run)
            run = []
            diameter, mode, purcell = (row.diameter, row.mode,
                                       row.effective_purcell)
        run.append(row)
    if run:
        yield _Block.of_rows(run)


def sweep_grid(diameters, repetition_rates, modes, transitions, budgets,
               radius_of_curvature: float, chain: DetectionChain,
               excitation_time: float, excited_population: float,
               integration_time: float = 1.0) -> Sweep:
    """Detected rate and SNR over diameter, repetition rate, and mode.

    ``budgets`` are bare-cavity budgets in transition order; each grid
    point loads them with that diameter's scattering loss.  Repetition
    rates must be finite and leave a positive detection window after the
    excitation pulse.  Every diameter is checked before any row is built.
    Each diameter's channels are set up once per cavity, the two open
    modes sharing one, and the rates of every (mode, diameter) block at
    every repetition rate come from one array pass.  Rows come in mode,
    diameter, repetition-rate order, with the caller's own diameter and
    repetition-rate objects.  The mode geometries use the constants
    ``CONTACT_LENGTH``, ``CONTACT_JITTER`` and ``OPEN_JITTER``.
    """
    if isinstance(modes, str):
        modes = (modes,)
    # each rule is checked once, before any row is built: PulseScheme
    # states the rules on excitation time and population, and the windows
    # are checked below
    PulseScheme(excitation_time, 1.0, excited_population)
    _check_integration_time(integration_time)
    # both are read once: every mode iterates them again
    diameters = list(diameters)
    repetition_rates = list(repetition_rates)
    f_reps = np.array(repetition_rates, dtype=float)
    if not (np.isfinite(f_reps) & (f_reps > 0.0)).all():
        raise ValueError("repetition_rates must be finite and positive")
    windows = 1.0 / f_reps - excitation_time
    if (windows <= 0.0).any():
        raise ValueError("repetition period must exceed the excitation time")
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
    snrs = _snrs(rates, chain.dark_rate, integration_time)
    return Sweep([
        _Block(mode, diameter,
               _block_rows(diameter, repetition_rates, mode,
                           block_rates.tolist(), block_snrs.tolist(), total),
               repetition_rates, block_rates, block_snrs)
        for (mode, diameter, total), block_rates, block_snrs
        in zip(keys, rates, snrs)])


def best_operating_point(rows) -> SweepRow:
    """Row with the highest rate; ties go to the gentlest settings.

    Each block offers its highest rate at its lowest repetition rate, the
    first of equal ones; those rows compete under the key (-rate,
    repetition rate, diameter, mode), the first one winning ties.  The
    result is the row that key picks over all rows.
    """
    winners = []
    for block in _as_blocks(rows):
        if len(block.rates):
            top = block.rates.max()
            if math.isnan(top):
                raise ValueError("sweep rates must not be NaN")
            tied = np.flatnonzero(block.rates == top).tolist()
            winners.append(block.rows[
                min(tied, key=block.repetition_rates.__getitem__)])
    if not winners:
        raise ValueError("no sweep rows to choose from")
    best = min(winners, key=lambda r: (-r.rate, r.repetition_rate,
                                       r.diameter, r.mode))
    if best.rate <= 0.0:
        raise ValueError("sweep produced no usable operating point")
    return best


def _csv_field(value) -> str:
    """One field as ``csv.writer`` renders it inside a row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([value, ""])
    return buffer.getvalue()[:-2]


def write_sweep_csv(rows, path) -> Path:
    """Write sweep rows as CSV with the canonical column set.

    Each block's diameter and mode are formatted once, and so are the
    repetition rates that consecutive blocks share; the lines stream to
    the file one block at a time.
    """
    path = Path(path)
    shared = rate_texts = None
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(SWEEP_COLUMNS) + "\n")
        for block in _as_blocks(rows):
            f_reps = block.repetition_rates
            if not (f_reps is shared
                    or (shared is not None and len(f_reps) == len(shared)
                        and all(map(operator.is_, f_reps, shared)))):
                shared = f_reps
                rate_texts = [repr(round(f, 9)) for f in f_reps]
            diameter = repr(round(block.diameter * 1e9, 9))
            mode = _csv_field(block.mode)
            handle.write("".join([
                f"{diameter},{f_rep},{mode},{rate!r},{row_snr!r}\n"
                for f_rep, rate, row_snr in zip(
                    rate_texts, block.rates.tolist(), block.snrs.tolist())]))
    return path
