"""Detection planning: pulsed rates, SNR, and the design sweep."""
import copy
import csv
import dataclasses
import io
import math
import pickle
import warnings

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
from fpcavity.core import Nanoparticle
from fpcavity.optics import LossBudget
from fpcavity.planner import (
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


def test_best_operating_point_tie_breaks():
    rows = [
        SweepRow(70e-9, 4000.0, "contact", 100.0, 10.0, 5.0),
        SweepRow(70e-9, 2000.0, "contact", 100.0, 10.0, 5.0),
        SweepRow(40e-9, 6000.0, "contact", 90.0, 9.0, 5.7),
    ]
    best = best_operating_point(rows)
    assert best.repetition_rate == 2000.0  # gentler clock at equal rate
    with pytest.raises(ValueError):
        best_operating_point([])
    with pytest.raises(ValueError):
        best_operating_point([SweepRow(70e-9, 1000.0, "contact", 0.0, 0.0,
                                       5.0)])


def test_sweep_is_a_read_only_sequence_of_rows():
    diameters = (40e-9, 70e-9)
    rates = (4000, 5000.0)
    sweep = _sweep(diameters, rates, ("contact", "open_double"))
    rows = list(sweep)
    assert len(sweep) == len(rows) == 2 * 2 * 2
    assert sweep and not _sweep((), rates, "contact")
    assert not _sweep(diameters, (), "contact")
    assert list(iter(sweep)) == [sweep[i] for i in range(len(sweep))]
    assert all(row is sweep[i] for i, row in enumerate(rows))
    assert [sweep[-i] for i in range(1, 9)] == rows[::-1]
    for index in (8, -9):
        with pytest.raises(IndexError):
            sweep[index]
    for part in (slice(None), slice(1, 6, 2), slice(-3, None),
                 slice(None, None, -3), slice(9, 20)):
        assert sweep[part] == rows[part]
    # rows run over modes, then diameters, then repetition rates
    assert sweep[3] == SweepRow(70e-9, 5000.0, "contact", sweep[3].rate,
                                sweep[3].snr, sweep[3].effective_purcell)
    assert sweep == _sweep(list(diameters), list(rates),
                           ("contact", "open_double"))
    assert sweep == rows and sweep != rows[:-1] and sweep != tuple(rows)
    assert sweep != _sweep(diameters, rates, "contact")
    for row in sweep:
        assert any(row.diameter is d for d in diameters)
        assert any(row.repetition_rate is f for f in rates)
        for value in (row.rate, row.snr, row.effective_purcell):
            assert type(value) is float
    with pytest.raises(TypeError):
        sweep[0] = rows[1]


def test_sweep_rows_are_slotted_frozen_records():
    row = SweepRow(diameter=6e-8, repetition_rate=4000, mode="contact",
                   rate=12.5, snr=-0.0, effective_purcell=0.82)
    assert not hasattr(row, "__dict__")
    assert hasattr(T580, "__dict__")  # records without slots keep theirs
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.rate = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del row.rate
    # a name that is no field: FrozenInstanceError before, and on Python
    # 3.10-3.11 a TypeError from the class that slots=True recreates
    with pytest.raises((AttributeError, TypeError)):
        row.extra = 1.0
    assert copy.deepcopy(row) == row
    assert pickle.loads(pickle.dumps(row)) == row
    fields = {"diameter": 6e-8, "repetition_rate": 4000, "mode": "contact",
              "rate": 12.5, "snr": -0.0, "effective_purcell": 0.82}
    assert row.to_dict() == fields
    assert type(row.to_dict()["repetition_rate"]) is int
    assert row.to_json() == (
        '{"diameter": 6e-08, "effective_purcell": 0.82, "mode": "contact", '
        '"rate": 12.5, "repetition_rate": 4000, "snr": -0.0}')
    same = SweepRow(**fields)
    assert row == same and row is not same
    assert row != dataclasses.replace(row, rate=12.6)
    assert hash(row) == hash(same) == hash(tuple(fields.values()))
    assert repr(row) == (
        "SweepRow(diameter=6e-08, repetition_rate=4000, mode='contact', "
        "rate=12.5, snr=-0.0, effective_purcell=0.82)")


def test_sweep_rows_equal_constructor_built_rows():
    # rows are filled slot by slot, which holds only while SweepRow's
    # __init__ does nothing but set its fields
    assert not hasattr(SweepRow, "__post_init__")
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
                assert not hasattr(row, "__dict__")
                with pytest.raises(dataclasses.FrozenInstanceError):
                    row.rate = 0.0


@pytest.mark.parametrize("values", [
    (6e-8, 4000, "contact", 12.5, -0.0, 0.82),
    (7e-8, 5000.0, "open_double", 0.0, math.inf, 5),
], ids=["int-rate-negative-zero", "int-purcell-infinite-snr"])
def test_sweep_row_to_dict_matches_asdict(values):
    row = SweepRow(*values)
    shallow, deep = row.to_dict(), dataclasses.asdict(row)
    assert list(shallow.items()) == list(deep.items())
    for key in deep:
        assert type(shallow[key]) is type(deep[key])
        assert repr(shallow[key]) == repr(deep[key])


def test_best_operating_point_matches_min_over_rows():
    # equal diameters and equal repetition rates of another type tie
    diameters = (70e-9, 40e-9, float("4e-08"))
    rates = (2000.0, 4000, 4000.0)
    sweep = _sweep(diameters, rates, ("open_double", "contact"))
    expected = min(list(sweep), key=lambda r: (-r.rate, r.repetition_rate,
                                               r.diameter, r.mode))
    for rows in (sweep, list(sweep), iter(sweep)):
        best = best_operating_point(rows)
        assert best is expected
        assert best.diameter is diameters[1]
        assert best.repetition_rate is rates[1]
    # equal rates at different repetition rates, in one run of rows that
    # hold the same diameter, mode and effective Purcell objects
    diameter, purcell = 40e-9, 5.0
    tied = [SweepRow(diameter, f_rep, "contact", rate, row_snr, purcell)
            for f_rep, rate, row_snr in ((3000.0, 5.0, 1.0), (4000, 7.0, 2.0),
                                         (2000.0, 7.0, 3.0), (2000, 7.0, 4.0))]
    assert best_operating_point(tied) is tied[2]
    with pytest.raises(ValueError, match="no sweep rows to choose from"):
        best_operating_point(_sweep((), rates, "contact"))
    with pytest.raises(ValueError, match="NaN"):
        best_operating_point([SweepRow(70e-9, 1000.0, "contact", 5.0, 1.0,
                                       5.0),
                              SweepRow(70e-9, 2000.0, "contact", math.nan,
                                       1.0, 5.0)])
    with pytest.raises(ValueError,
                       match="sweep produced no usable operating point"):
        best_operating_point([SweepRow(70e-9, 1000.0, "contact", 0.0, 0.0,
                                       5.0)])


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
    rows = _sweep((40e-9, 70e-9), (4000.0, 6000.0), "contact")
    path = write_sweep_csv(rows, tmp_path / "sweep.csv")
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "d_np_nm,f_rep_hz,mode,rate_cps,snr"
    assert len(lines) == 1 + len(rows)
    fields = lines[1].split(",")
    assert float(fields[0]) == pytest.approx(rows[0].diameter * 1e9,
                                             rel=1e-9)
    assert fields[2] == "contact"
    # repr round-trip keeps the rate exact
    assert float(fields[3]) == rows[0].rate


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
    generated = _sweep((d for d in diameters), (4000.0, 5000.0), modes)
    assert len(listed) == 3 * 3 * 2
    assert generated == listed


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
            channels, outcouplings = _channel_setup(
                particle, *_cavity(mode, [T580, T611], BUDGETS, 25e-6))
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
    sweep = _sweep((40e-9, 70e-9), (4000, 5000.0, 6000),
                   ("contact", "open_single", "open_double"))
    rows = [
        SweepRow(70e-9, 4000.0, "contact", 240.8, 53.8, 5.24),
        SweepRow(70e-9, 6000.0, "contact", 1e-05, 2.5e+16, 5.24),
        SweepRow(40e-9, 4000.0, "open_double", 2.5e+16, math.inf, 5.69),
        SweepRow(40e-9, 6000.0, "open_single", 0.0, 0.0, 5.69),
        SweepRow(57.123456789123e-9, 1e-05, "contact", 1.0 / 3.0, 1e-300,
                 1.0),
        # equal values of another type or sign print differently
        SweepRow(70e-9, 4000, "contact", 1.0, 2.0, 5.24),
        SweepRow(0.0, 0.0, "contact", 1.0, 2.0, 5.24),
        SweepRow(-0.0, -0.0, "contact", 1.0, 2.0, 5.24),
        SweepRow(70e-9, 4000.0, "needs,quoting", 1.0, 2.0, 5.24),
        SweepRow(70e-9, 4000.0, "contact", 240.8, 53.8, 5.24),
    ]
    for source, expected in (((row for row in rows), rows),
                             (sweep, list(sweep)), (list(sweep), list(sweep))):
        path = write_sweep_csv(source, tmp_path / "sweep.csv")
        assert path.read_bytes() == _reference_csv(expected).encode()
