"""Detection planning: pulsed rates, SNR, and the design sweep."""
import copy
import csv
import dataclasses
import io
import math
import pickle
import warnings
from array import array

import numpy as np
import pytest

from fpcavity import (
    ChannelStrength,
    DetectionChain,
    PulseScheme,
    SweepRow,
    Transition,
    best_operating_point,
    photon_path_efficiency,
    snr,
    sweep_grid,
    write_sweep_csv,
)
from fpcavity import planner
from fpcavity.cli import main
from fpcavity.core import Nanoparticle, _json_text, _Record, replace
from fpcavity.ensemble import channel_strengths
from fpcavity.optics import LossBudget, loaded_budget, outcoupling_efficiency
from fpcavity.planner import (
    Sweep,
    _cavity,
    _channel_setup,
    _collected,
    mode_detected_rate,
)

T580 = Transition(wavelength=580.8e-9, branching_ratio=0.007,
                  homogeneous_linewidth=3.3e6, free_space_lifetime=2.0e-3)
T611 = Transition(wavelength=611e-9, branching_ratio=0.36,
                  homogeneous_linewidth=680e9, free_space_lifetime=2.0e-3)
BUDGETS = [LossBudget(25.0, 200.0, 134.04), LossBudget(25.0, 200.0, 436.39)]
CHAIN = DetectionChain(path_transmission=0.8, detector_efficiency=0.65,
                       dark_rate=20.0)
LOSSLESS = DetectionChain(1.0, 1.0, 0.0)


def _sweep(diameters, rates, modes):
    return sweep_grid(diameters, rates, modes, [T580, T611], BUDGETS,
                      25e-6, CHAIN, excitation_time=1e-6,
                      excited_population=0.5)


def _row(rows, diameter, f_rep, mode):
    for row in rows:
        if (row.diameter == diameter and row.repetition_rate == f_rep
                and row.mode == mode):
            return row
    raise AssertionError("row not found")


def test_pulse_scheme():
    scheme = PulseScheme(1e-6, 9e-6, 0.5)
    assert scheme.repetition_rate == pytest.approx(1e5, rel=1e-12)
    with pytest.raises(ValueError):
        PulseScheme(0.0, 9e-6, 0.5)
    with pytest.raises(ValueError):
        PulseScheme(1e-6, 9e-6, 1.5)


def _one_channel_rate(scheme, strength, outcoupling=1.0, chain=LOSSLESS):
    return mode_detected_rate([ChannelStrength(580.8e-9, strength)],
                              [outcoupling], [True], scheme, 2e-3, chain)


def test_pulsed_rate_limits():
    scheme = PulseScheme(1e-6, 249e-6, 0.5)
    assert _one_channel_rate(scheme, 0.0) == 0.0
    # long window, large enhancement: every cycle decays inside the
    # window, leaving the repetition rate times the mode branching
    saturated = _one_channel_rate(PulseScheme(1e-6, 0.1, 1.0), 1e4)
    assert saturated == pytest.approx(1e4 / 10001.0 / 0.100001, rel=1e-9)


def test_detected_rate_and_path_efficiency():
    scheme = PulseScheme(1e-6, 249e-6, 0.5)
    emitted = _one_channel_rate(scheme, 2.0)
    assert _one_channel_rate(scheme, 2.0, 0.5, CHAIN) == pytest.approx(
        0.26 * emitted, rel=1e-12)
    assert photon_path_efficiency(0.5, CHAIN) == pytest.approx(0.26,
                                                               rel=1e-12)
    with pytest.raises(ValueError):
        photon_path_efficiency(1.5, CHAIN)


def test_outcoupling_above_one_is_rejected():
    # an outcoupling of 2.0 used to double its channel's detected rate
    scheme = PulseScheme(1e-6, 249e-6, 0.5)
    channels = [ChannelStrength(580.8e-9, 2.0), ChannelStrength(611e-9, 1.0)]
    with pytest.raises(ValueError, match=r"outcouplings must be in \[0, 1\]"):
        mode_detected_rate(channels, [2.0, 0.4], [True, True], scheme, 2e-3,
                           CHAIN)
    with pytest.raises(ValueError, match=r"outcoupling must be in \[0, 1\]"):
        photon_path_efficiency(2.0, CHAIN)


def test_snr_values():
    assert snr(240.0, 20.0) == pytest.approx(53.66563145999495, rel=1e-12)
    # quadrupling the time doubles the SNR
    assert snr(240.0, 20.0, 4.0) == pytest.approx(2.0 * snr(240.0, 20.0),
                                                  rel=1e-12)
    assert snr(240.0, 0.0) == math.inf
    assert snr(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        snr(-1.0, 20.0)
    with pytest.raises(ValueError):
        snr(240.0, 20.0, 0.0)


def test_contact_sweep_rates():
    rows = _sweep((40e-9, 70e-9), (4000.0, 5000.0, 6000.0), "contact")
    assert len(rows) == 6
    expected = {
        (70e-9, 4000.0): 240.8,
        (70e-9, 5000.0): 257.7,
        (70e-9, 6000.0): 269.9,
        (40e-9, 4000.0): 277.7,
        (40e-9, 5000.0): 298.5,
        (40e-9, 6000.0): 313.5,
    }
    for (diameter, f_rep), rate in expected.items():
        row = _row(rows, diameter, f_rep, "contact")
        assert row.rate == pytest.approx(rate, abs=0.06)
    assert _row(rows, 70e-9, 4000.0, "contact").effective_purcell == \
        pytest.approx(5.240, abs=6e-4)
    assert _row(rows, 40e-9, 6000.0, "contact").effective_purcell == \
        pytest.approx(5.692, abs=6e-4)


def test_open_mode_rates():
    rows = _sweep((70e-9,), (500.0, 6000.0),
                  ("contact", "open_single", "open_double"))
    assert _row(rows, 70e-9, 500.0, "open_double").rate == pytest.approx(
        50.0, abs=0.06)
    assert _row(rows, 70e-9, 500.0, "open_single").rate == pytest.approx(
        46.5, abs=0.06)
    assert _row(rows, 70e-9, 500.0, "contact").rate == pytest.approx(
        55.6, abs=0.06)
    assert _row(rows, 70e-9, 6000.0, "open_double").rate == pytest.approx(
        204.1, abs=0.06)
    assert _row(rows, 70e-9, 6000.0, "open_single").rate == pytest.approx(
        189.7, abs=0.06)
    assert _row(rows, 70e-9, 6000.0, "contact").rate == pytest.approx(
        269.9, abs=0.06)


def test_open_double_beats_open_single():
    rows = _sweep((40e-9, 70e-9, 100e-9), (1000.0, 3000.0),
                  ("open_single", "open_double"))
    for row in rows:
        if row.mode != "open_single":
            continue
        partner = _row(rows, row.diameter, row.repetition_rate,
                       "open_double")
        assert partner.rate > row.rate


def _columns(blocks, repetition_rates, rates, snrs=None):
    """A sweep built by hand from its columns, one ``array("d")`` of
    ``rates`` per ``(mode, diameter, effective_purcell)`` block."""
    assert len(rates) == len(blocks)
    rates = [array("d", block) for block in rates]
    if snrs is None:
        snrs = [[rate / 10.0 for rate in block] for block in rates]
    snrs = [array("d", block) for block in snrs]
    for block, block_snrs in zip(rates, snrs, strict=True):
        assert len(block) == len(block_snrs) == len(repetition_rates)
    return Sweep(list(blocks), list(repetition_rates), rates, snrs)


def test_best_operating_point_tie_breaks():
    sweep = _columns([("contact", 70e-9, 5.0), ("contact", 40e-9, 5.7)],
                     (2000.0, 4000.0, 6000.0),
                     [[100.0, 100.0, 50.0], [60.0, 70.0, 90.0]])
    best = best_operating_point(sweep)
    assert best.repetition_rate == 2000.0  # gentler clock at equal rate
    assert best == SweepRow(70e-9, 2000.0, "contact", 100.0, 10.0, 5.0)
    with pytest.raises(ValueError):
        best_operating_point(_columns([], (1000.0,), []))
    with pytest.raises(ValueError):
        best_operating_point(_columns([("contact", 70e-9, 5.0)], (1000.0,),
                                      [[0.0]]))


def test_sweep_is_a_read_only_iterable_of_rows():
    diameters = (40e-9, 70e-9)
    rates = (4000, 5000.0)
    sweep = _sweep(diameters, rates, ("contact", "open_double"))
    rows = list(sweep)
    assert len(sweep) == len(rows) == 2 * 2 * 2
    # one block per (mode, diameter), one value per repetition rate
    for column in (sweep.rates, sweep.snrs):
        assert len(column) == 4
        for block in column:
            assert type(block) is array and block.typecode == "d"
            assert len(block) == 2
    assert [key[:2] for key in sweep.blocks] == [
        ("contact", 40e-9), ("contact", 70e-9),
        ("open_double", 40e-9), ("open_double", 70e-9)]
    assert sweep
    for empty in (_sweep((), rates, "contact"),
                  _sweep(diameters, (), "contact"),
                  _sweep(diameters, rates, ())):
        assert not empty and list(empty) == []
    # each pass builds new rows, equal to the last pass's
    again = list(sweep)
    assert again == rows and again[0] is not rows[0]
    # it is iterated, not indexed
    for index in (0, -1, slice(None)):
        with pytest.raises(TypeError):
            sweep[index]
    # rows run over modes, then diameters, then repetition rates
    assert rows[3] == SweepRow(70e-9, 5000.0, "contact", rows[3].rate,
                               rows[3].snr, rows[3].effective_purcell)
    assert rows == list(_sweep(list(diameters), list(rates),
                               ("contact", "open_double")))
    # equality is identity: compare list(sweep)
    assert sweep != rows and sweep == sweep
    for row in sweep:
        assert any(row.diameter is d for d in diameters)
        assert any(row.repetition_rate is f for f in rates)
        for value in (row.rate, row.snr, row.effective_purcell):
            assert type(value) is float
    with pytest.raises(TypeError):
        sweep[0] = rows[1]


def test_sweep_rows_are_frozen_records():
    row = SweepRow(diameter=6e-8, repetition_rate=4000, mode="contact",
                   rate=12.5, snr=-0.0, effective_purcell=0.82)
    for name in ("rate", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(row, name, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del row.rate
    assert copy.deepcopy(row) == row
    assert pickle.loads(pickle.dumps(row)) == row
    fields = {"diameter": 6e-8, "repetition_rate": 4000, "mode": "contact",
              "rate": 12.5, "snr": -0.0, "effective_purcell": 0.82}
    assert row.to_dict() == fields
    assert type(row.to_dict()["repetition_rate"]) is int
    assert _json_text(row.to_dict()) == (
        '{\n  "diameter": 6e-08,\n  "effective_purcell": 0.82,\n'
        '  "mode": "contact",\n  "rate": 12.5,\n  "repetition_rate": 4000,\n'
        '  "snr": -0.0\n}\n')
    same = SweepRow(**fields)
    assert row == same and row is not same
    assert row != replace(row, rate=12.6)
    assert hash(row) == hash(same) == hash(tuple(fields.values()))
    assert repr(row) == (
        "SweepRow(diameter=6e-08, repetition_rate=4000, mode='contact', "
        "rate=12.5, snr=-0.0, effective_purcell=0.82)")
    # no record type is slotted
    assert "__slots__" not in vars(SweepRow)


def test_sweep_rows_equal_constructor_built_rows():
    diameters = (40e-9, 70e-9, float("7e-08"))
    rates = (4000, 5000.0, 4000.0)
    modes = ("contact", "open_single", "open_double")
    sweep = _sweep(diameters, rates, modes)
    assert len(sweep) == 3 * 3 * 3
    rows = iter(sweep)
    for mode in modes:
        for diameter in diameters:
            for f_rep in rates:
                row = next(rows)
                built = SweepRow(diameter, f_rep, mode, row.rate, row.snr,
                                 row.effective_purcell)
                assert row == built and hash(row) == hash(built)
                assert repr(row) == repr(built)
                assert row.diameter is diameter
                assert row.repetition_rate is f_rep
                assert row.mode == mode and type(row.mode) is str
                for value in (row.rate, row.snr, row.effective_purcell):
                    assert type(value) is float
                with pytest.raises(dataclasses.FrozenInstanceError):
                    row.rate = 0.0
    assert next(rows, None) is None


@pytest.mark.parametrize("values", [
    (6e-8, 4000, "contact", 12.5, -0.0, 0.82),
    (7e-8, 5000.0, "open_double", 0.0, math.inf, 5),
], ids=["int-rate-negative-zero", "int-purcell-infinite-snr"])
def test_sweep_row_to_dict_matches_asdict(values):
    row = SweepRow(*values)
    shallow = row.to_dict()
    deep = copy.deepcopy(dict(zip(row.__match_args__, row._values())))
    assert list(shallow.items()) == list(deep.items())
    for key in deep:
        assert type(shallow[key]) is type(deep[key])
        assert repr(shallow[key]) == repr(deep[key])


def _gentlest(rows):
    """The row with the highest rate, ties going to the lowest
    (repetition rate, diameter, mode), the first of equal ones."""
    return min(rows, key=lambda r: (-r.rate, r.repetition_rate, r.diameter,
                                    r.mode))


def test_best_operating_point_matches_min_over_rows():
    # equal diameters and equal repetition rates of another type tie
    diameters = (70e-9, 40e-9, float("4e-08"))
    rates = (2000.0, 4000, 4000.0)
    sweep = _sweep(diameters, rates, ("open_double", "contact"))
    best = best_operating_point(sweep)
    assert best == _gentlest(list(sweep))
    assert best.diameter is diameters[1]
    assert best.repetition_rate is rates[1]
    # equal rates at different repetition rates, the lowest one twice
    f_reps = (3000.0, 4000, 2000.0, 2000)
    tied = _columns([("contact", 40e-9, 5.0)], f_reps,
                    [[5.0, 7.0, 7.0, 7.0]], [[1.0, 2.0, 3.0, 4.0]])
    best = best_operating_point(tied)
    assert best == list(tied)[2] and best.repetition_rate is f_reps[2]
    # modes tie by name, not by sweep order
    modes = _columns([("open_double", 40e-9, 5.0), ("contact", 40e-9, 5.0)],
                     (1000.0,), [[7.0], [7.0]])
    assert best_operating_point(modes).mode == "contact"
    # many ties: small integer rates against the search over every row
    rng = np.random.default_rng(14)
    blocks = [(mode, d, 5.0) for mode in ("open_single", "contact")
              for d in (70e-9, 40e-9, float("4e-08"))]
    for _ in range(200):
        sweep = _columns(blocks, (2000.0, 1000.0, 1000),
                         rng.integers(1, 4, (len(blocks), 3)),
                         rng.random((len(blocks), 3)))
        assert best_operating_point(sweep) == _gentlest(list(sweep))
    with pytest.raises(ValueError, match="no sweep rows to choose from"):
        best_operating_point(_sweep((), rates, "contact"))
    with pytest.raises(ValueError, match="no sweep rows to choose from"):
        best_operating_point(_sweep(diameters, (), "contact"))
    # max passes over a NaN that is not first in its block; wherever it
    # sits, the NaN is reported
    two = [("contact", 70e-9, 5.0), ("contact", 40e-9, 5.0)]
    for blocks, nan_rates in (
            (two[:1], [[5.0, math.nan]]),
            (two[:1], [[math.nan, 5.0]]),  # first in its block
            (two, [[1.0, 9.0], [math.nan, 2.0]]),  # not the top's block
            (two, [[1.0, math.nan], [9.0, 2.0]]),  # not the top's block
            (two[:1], [[9.0, math.nan]])):  # beside a larger rate
        with pytest.raises(ValueError, match="NaN"):
            best_operating_point(_columns(blocks, (1000.0, 2000.0),
                                          nan_rates))
    with pytest.raises(ValueError,
                       match="sweep produced no usable operating point"):
        best_operating_point(_columns([("contact", 70e-9, 5.0)], (1000.0,),
                                      [[0.0]]))


def test_sweep_rejects_impossible_window():
    with pytest.raises(ValueError):
        _sweep((70e-9,), (2e6,), "contact")


def test_sweep_rejects_unknown_mode():
    with pytest.raises(ValueError):
        _sweep((70e-9,), (1000.0,), "closed")


def test_open_modes_need_two_transitions():
    with pytest.raises(ValueError):
        sweep_grid((70e-9,), (1000.0,), "open_double", [T580], BUDGETS[:1],
                   25e-6, CHAIN, excitation_time=1e-6,
                   excited_population=0.5)


def test_shared_lifetime_mismatch():
    slow = Transition(wavelength=611e-9, branching_ratio=0.36,
                      homogeneous_linewidth=680e9,
                      free_space_lifetime=1.9e-3)
    with pytest.raises(ValueError):
        sweep_grid((70e-9,), (1000.0,), "open_double", [T580, slow],
                   BUDGETS, 25e-6, CHAIN, excitation_time=1e-6,
                   excited_population=0.5)


def test_write_sweep_csv(tmp_path):
    sweep = _sweep((40e-9, 70e-9), (4000.0, 6000.0), "contact")
    path = write_sweep_csv(sweep, tmp_path / "sweep.csv")
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "d_np_nm,f_rep_hz,mode,rate_cps,snr"
    assert len(lines) == 1 + len(sweep)
    fields = lines[1].split(",")
    first = next(iter(sweep))
    assert float(fields[0]) == pytest.approx(first.diameter * 1e9, rel=1e-9)
    assert fields[2] == "contact"
    # repr round-trip keeps the rate exact
    assert float(fields[3]) == first.rate


@pytest.mark.parametrize("build", [
    lambda: DetectionChain(0.8, 0.65, math.nan),
    lambda: DetectionChain(0.8, 0.65, math.inf),
    lambda: PulseScheme(math.nan, 1e-3, 0.5),
    lambda: PulseScheme(1e-6, math.inf, 0.5),
], ids=["dark_nan", "dark_inf", "excitation_nan", "detection_inf"])
def test_value_types_reject_non_finite(build):
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize("f_rep", [math.nan, math.inf, 0.0])
def test_sweep_rejects_bad_repetition_rate(f_rep):
    with pytest.raises(ValueError, match="repetition_rates"):
        _sweep((70e-9,), (1000.0, f_rep), "contact")


@pytest.mark.parametrize("integration_time", [math.nan, math.inf])
def test_sweep_rejects_non_finite_integration_time(integration_time):
    with pytest.raises(ValueError, match="integration_time"):
        sweep_grid((70e-9,), (1000.0,), "contact", [T580, T611], BUDGETS,
                   25e-6, CHAIN, excitation_time=1e-6,
                   excited_population=0.5, integration_time=integration_time)


@pytest.mark.parametrize("signal_rate, dark_rate, name", [
    (math.nan, 20.0, "signal_rate"),
    (100.0, math.nan, "dark_rate"),
    (100.0, math.inf, "dark_rate"),
    (math.inf, 20.0, "signal_rate"),
], ids=["signal_nan", "dark_nan", "dark_inf", "signal_inf"])
def test_snr_rejects_non_finite_rates(signal_rate, dark_rate, name):
    with pytest.raises(ValueError, match=name):
        snr(signal_rate, dark_rate)


def test_sweep_reads_diameter_generator_once():
    diameters = (40e-9, 70e-9, 100e-9)
    modes = ("contact", "open_single", "open_double")
    listed = _sweep(list(diameters), (4000.0, 5000.0), modes)
    generated = _sweep((d for d in diameters),
                       (f for f in (4000.0, 5000.0)), modes)
    assert len(listed) == 3 * 3 * 2
    assert list(generated) == list(listed)


def test_channel_setup_loads_each_budget_once(monkeypatch):
    loads = []

    def counted(budget, diameter, wavelength):
        loads.append(wavelength)
        return loaded_budget(budget, diameter, wavelength)

    geometry, enhanced, bare = _cavity("open_double", [T580, T611], BUDGETS,
                                       25e-6)
    particle = Nanoparticle(diameter=70e-9, dopant_concentration=0.5)
    expected = ([c.strength for c in channel_strengths(particle, geometry,
                                                       enhanced, bare)],
                [outcoupling_efficiency(loaded_budget(b, 70e-9, t.wavelength))
                 for t, b in zip(enhanced, bare)])
    monkeypatch.setattr(planner, "loaded_budget", counted)
    assert _channel_setup(particle, geometry, enhanced, bare) == expected
    # the strengths and the outcouplings share one loaded budget each
    assert loads == [T580.wavelength, T611.wavelength]


def _scalar_rate(channels, outcouplings, collected, scheme, lifetime, chain):
    """The per-point rate formula written out with Python floats."""
    total = math.fsum(c.strength for c in channels)
    decayed = -math.expm1(-(total + 1.0) * scheme.detection_time / lifetime)
    collect = math.fsum(c.strength * eta for c, eta, keep
                        in zip(channels, outcouplings, collected) if keep)
    return (scheme.excited_population * scheme.repetition_rate * decayed
            * collect / (total + 1.0)
            * chain.path_transmission * chain.detector_efficiency)


def test_vector_sweep_matches_scalar_reference_bitwise():
    diameters = (40e-9, 57.3e-9, 70e-9, 100e-9)
    # the last rate leaves a detection window of about 1e-15 s
    rates = (250.0, 1000.0 / 3.0, 6000.0, 47123.9, 999999.999)
    modes = ("contact", "open_single", "open_double")
    rows = _sweep(diameters, rates, modes)
    assert len(rows) == len(diameters) * len(rates) * len(modes)
    rows = iter(rows)
    for mode in modes:
        for diameter in diameters:
            particle = Nanoparticle(diameter=diameter,
                                    dopant_concentration=0.5)
            cavity = _cavity(mode, [T580, T611], BUDGETS, 25e-6)
            strengths, outcouplings = _channel_setup(particle, *cavity)
            channels = channel_strengths(particle, *cavity)
            assert [c.strength for c in channels] == strengths
            collected = _collected(mode)
            for f_rep in rates:
                scheme = PulseScheme(1e-6, 1.0 / f_rep - 1e-6, 0.5)
                rate = mode_detected_rate(channels, outcouplings, collected,
                                          scheme, 2.0e-3, CHAIN)
                assert rate == _scalar_rate(channels, outcouplings,
                                            collected, scheme, 2.0e-3, CHAIN)
                row = next(rows)
                assert row == SweepRow(
                    diameter, f_rep, mode, rate, snr(rate, 20.0),
                    math.fsum(c.strength for c in channels))
                for value in (row.repetition_rate, row.rate, row.snr,
                              row.effective_purcell):
                    assert type(value) is float


def test_numpy_scalar_inputs_enter_the_rates_as_doubles():
    # Python arithmetic with a float32 operand stays in float32; the rates
    # must take each numpy scalar as the double it equals
    channels = [ChannelStrength(580.8e-9, 2.0)]
    singles = PulseScheme(np.float32(1e-6), np.float32(249e-6),
                          np.float32(0.3))
    chain = DetectionChain(np.float32(0.8), np.float32(0.65), 20.0)
    expected = mode_detected_rate(
        channels, [1.0], [True],
        PulseScheme(*(float(v) for v in singles._values())),
        float(np.float32(2e-3)), DetectionChain(
            float(np.float32(0.8)), float(np.float32(0.65)), 20.0))
    rate = mode_detected_rate(channels, [1.0], [True], singles,
                              np.float32(2e-3), chain)
    assert type(rate) is float and rate == expected
    assert snr(np.float32(240.0), 20.0, np.float32(4.0)) == snr(240.0, 20.0,
                                                                4.0)


def test_sweep_zero_dark_rate_gives_infinite_snr():
    chain = DetectionChain(0.8, 0.65, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = sweep_grid((40e-9, 70e-9), (500.0, 6000.0),
                          ("contact", "open_double"), [T580, T611], BUDGETS,
                          25e-6, chain, excitation_time=1e-6,
                          excited_population=0.5)
    assert rows
    for row in rows:
        assert row.rate > 0.0
        assert row.snr == math.inf


def _reference_csv(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("d_np_nm", "f_rep_hz", "mode", "rate_cps", "snr"))
    for row in rows:
        writer.writerow([
            repr(round(row.diameter * 1e9, 9)),
            repr(round(row.repetition_rate, 9)),
            row.mode,
            repr(float(row.rate)),
            repr(float(row.snr)),
        ])
    return buffer.getvalue()


def test_write_sweep_csv_bytes_match_reference(tmp_path):
    # columns built by hand, one array("d") a block
    edges = _columns(
        [("contact", 70e-9, 5.24), ("open_double", 57.123456789123e-9, 1.0),
         ("open_single", 0.0, 5.69), ("contact", -0.0, 5.69)],
        # equal values of another type or sign print differently
        (4000.0, 4000, 1e-05, 0.0, -0.0),
        [[240.8, 1e-05, 2.5e+16, 0.0, 1.0 / 3.0],
         [1.0, 2.0, 3.0, 4.0, 5.0],
         [0.0, -0.0, 1e-300, 7.0, 8.0],
         [9.0, 10.0, 11.0, 12.0, 13.0]],
        [[53.8, 2.5e+16, math.inf, 0.0, 1e-300],
         [-0.0, 1.0, 2.0, 3.0, 4.0],
         [5.0, 6.0, 7.0, 8.0, 9.0],
         [10.0, 11.0, 12.0, 13.0, math.inf]])
    for sweep in (_sweep((40e-9, 70e-9), (4000, 5000.0, 6000),
                         ("contact", "open_single", "open_double")),
                  _sweep((40e-9, float("7e-08")), [4000.0, 6000.0],
                         "contact"),
                  _sweep((), (4000.0,), "contact"), edges):
        path = write_sweep_csv(sweep, tmp_path / "sweep.csv")
        assert path.read_bytes() == _reference_csv(list(sweep)).encode()


def test_sweep_builds_only_the_rows_that_are_read(tmp_path, monkeypatch,
                                                  capsys):
    built = []

    def counted(self, *args, **kwargs):
        built.append(args)
        _Record.__init__(self, *args, **kwargs)

    monkeypatch.setattr(SweepRow, "__init__", counted)
    sweep = _sweep((40e-9, 70e-9, 100e-9), (1000.0, 4000.0, 6000.0),
                   ("contact", "open_single", "open_double"))
    best = best_operating_point(sweep)
    write_sweep_csv(sweep, tmp_path / "sweep.csv")
    assert built == [best._values()]
    built.clear()
    assert len(list(sweep)) == len(built) == 27
    built.clear()
    # plan without --json reads its best row only
    assert main(["plan", "--out", str(tmp_path / "plan.csv")]) == 0
    assert len(built) == 1
    assert "swept 252 operating points" in capsys.readouterr().out


@pytest.mark.parametrize("transitions, budgets", [
    ([T580, T611], BUDGETS[:1]),
    ([T580], []),
], ids=["two-transitions-one-budget", "one-transition-no-budget"])
def test_sweep_needs_one_budget_per_transition(transitions, budgets):
    # the first was swept on the one budget, the second raised IndexError
    with pytest.raises(ValueError,
                       match="^need one budget per transition$"):
        sweep_grid([6e-8], [4000.0], "contact", transitions, budgets, 25e-6,
                   CHAIN, excitation_time=1e-6, excited_population=0.5)


@pytest.mark.parametrize("outcouplings, collected", [
    ([1.0], [True, True]),
    ([1.0, 0.4], [True]),
], ids=["one-outcoupling", "one-flag"])
def test_detected_rate_needs_one_outcoupling_and_flag_per_channel(
        outcouplings, collected):
    # zip dropped the channels past the shortest list: 59.76 counts/s
    # against 61.24 for the first channel alone
    scheme = PulseScheme(1e-6, 249e-6, 0.5)
    channels = [ChannelStrength(580.8e-9, 2.0), ChannelStrength(611e-9, 1.0)]
    with pytest.raises(ValueError, match="^channels, outcouplings and "
                                         "collected differ in length"):
        mode_detected_rate(channels, outcouplings, collected, scheme, 2e-3,
                           CHAIN)
