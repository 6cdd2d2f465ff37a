"""Model registry, automatic guesses, and the least-squares solver."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fpcavity import (
    FitResult,
    MODELS,
    Trace,
    auto_initial_guess,
    decay_histogram,
    fit,
)
from fpcavity import fitting
from fpcavity.core import NumericalError
from fpcavity.fitting import _jacobian, _step_floors

# finite data whose power-law guess, exp of the fitted log intercept,
# overflows a float
OVERFLOWING_GUESS = ((np.linspace(0.0, 10.0, 20) + 0.1) * 1e300,
                     1e300 * np.cos(np.linspace(0.0, 10.0, 20)))
# finite data whose squared residuals overflow to an infinite cost
INFINITE_COST = (np.array([1e300, 2e300, 3e300, 4e300]),
                 np.array([1e300, 3e300, 5e300, 8e300]))


def _clean_case(name):
    if name == "lorentzian":
        x = np.linspace(-1e6, 5e6, 201)
        true = {"amplitude": 1000.0, "center": 2e6, "fwhm": 5e5,
                "offset": 50.0}
    elif name == "inverted_lorentzian":
        x = np.linspace(-6e7, 6e7, 201)
        true = {"baseline": 1414.0, "depth": 1273.0, "center": 3e6,
                "fwhm": 1.2e7}
    elif name == "power_law":
        x = np.geomspace(1.0, 1e4, 50)
        true = {"scale": 1000.0, "exponent": 0.5, "offset": 20.0}
    elif name == "sqrt_offset":
        x = np.geomspace(5e-8, 2e-6, 12)
        true = {"slope": 6.4e9, "offset": 3.3e6}
    elif name == "exp_decay":
        x = np.linspace(0.0, 5.5e-3, 120)
        true = {"amplitude": 1000.0, "lifetime": 1.1e-3, "offset": 40.0}
    else:
        x = np.linspace(-5.0, 5.0, 60)
        true = {"slope": -3.0, "intercept": 7.0}
    spec = MODELS[name]
    vector = np.array([true[p] for p in spec.parameters])
    return x, spec.function(x, vector), true


@pytest.mark.parametrize("name", sorted(MODELS))
def test_clean_round_trip(name):
    x, y, true = _clean_case(name)
    result = fit(name, x, y)
    assert result.converged
    for parameter, value in true.items():
        fitted = result.parameters[parameter]
        scale = max(abs(value), 1e-12)
        assert abs(fitted - value) / scale < 1e-6, (parameter, fitted, value)


def test_noisy_decay_with_poisson_weights():
    t = np.linspace(0.0, 5e-3, 100)
    trace = decay_histogram(1.1e-3, t, 20000, 0.05, background=0.002,
                            seed=1)
    result = fit("exp_decay", trace, weights="poisson")
    assert result.converged
    assert result.parameters["lifetime"] == pytest.approx(1.1e-3, rel=0.05)
    err = result.standard_errors["lifetime"]
    assert math.isfinite(err) and err > 0.0
    assert err < 0.1 * result.parameters["lifetime"]


def test_jacobian_matches_analytic_lorentzian():
    spec = MODELS["lorentzian"]
    x = np.linspace(-1e6, 5e6, 101)
    params = np.array([1000.0, 2e6, 5e5, 50.0])
    amplitude, center, fwhm, _ = params
    floors = _step_floors(spec, x, spec.function(x, params))
    numeric = _jacobian(spec, x, params, floors)
    shape = 1.0 / (1.0 + (2.0 * (x - center) / fwhm) ** 2)
    analytic = np.column_stack([
        shape,
        amplitude * shape**2 * 8.0 * (x - center) / fwhm**2,
        amplitude * shape**2 * 8.0 * (x - center) ** 2 / fwhm**3,
        np.ones_like(x),
    ])
    for j in range(4):
        scale = np.max(np.abs(analytic[:, j]))
        assert np.max(np.abs(numeric[:, j] - analytic[:, j])) < 1e-4 * scale


# three parameter points per model, in registry order: the clean case's
# truth and two points away from it
JACOBIAN_POINTS = {
    "lorentzian": [(1000.0, 2e6, 5e5, 50.0), (-30.0, 0.0, 3e6, -2.0),
                   (5.0, 4.5e6, 1e5, 1e3)],
    "inverted_lorentzian": [(1414.0, 1273.0, 3e6, 1.2e7),
                            (10.0, -4.0, -5e7, 2e6), (0.0, 1.0, 0.0, 1e8)],
    "power_law": [(1000.0, 0.5, 20.0), (0.3, 1.7, -5.0), (2e4, -0.8, 0.0)],
    "sqrt_offset": [(6.4e9, 3.3e6), (-1.0, 0.0), (1e3, -7e6)],
    "exp_decay": [(1000.0, 1.1e-3, 40.0), (0.2, 5e-3, -1.0),
                  (3e4, 2e-4, 0.0)],
    "linear": [(-3.0, 7.0), (0.0, 0.0), (1e6, -2e-3)],
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_analytic_jacobian_matches_central_differences(name):
    spec = MODELS[name]
    x, _, _ = _clean_case(name)
    for point in JACOBIAN_POINTS[name]:
        params = np.array(point)
        y = spec.function(x, params)
        analytic = spec.jacobian(x, params)
        assert analytic.shape == (len(params), len(x))
        numeric = _jacobian(spec, x, params, _step_floors(spec, x, y))
        for j, row in enumerate(analytic):
            scale = np.max(np.abs(row))
            assert np.max(np.abs(numeric[:, j] - row)) <= 1e-5 * scale, \
                (point, spec.parameters[j])


def test_power_law_exponent_derivative_is_zero_at_the_origin():
    spec = MODELS["power_law"]
    x = np.linspace(0.0, 10.0, 11)
    jac = spec.jacobian(x, np.array([3.0, 0.5, 1.0]))
    assert np.all(np.isfinite(jac))
    assert jac[1, 0] == 0.0
    assert np.allclose(jac[1, 1:], 3.0 * np.sqrt(x[1:]) * np.log(x[1:]),
                       rtol=1e-12, atol=0.0)


def test_one_model_pass_per_trial_one_jacobian_pass_per_step(monkeypatch):
    spec = MODELS["exp_decay"]
    model_at, jacobian_at, costs = [], [], []
    t = np.linspace(0.0, 5e-3, 100)
    trace = decay_histogram(1.1e-3, t, 20000, 0.05, background=0.002,
                            seed=1)
    w = 1.0 / np.maximum(trace.y, 1.0)

    def function(x, p):
        model_at.append(p.tolist())
        values = spec.function(x, p)
        r = trace.y - values
        costs.append(float(np.sum(w * r * r)))
        return values

    def jacobian(x, p):
        jacobian_at.append(p.tolist())
        return spec.jacobian(x, p)

    monkeypatch.setitem(fitting.MODELS, "exp_decay", dataclasses.replace(
        spec, function=function, jacobian=jacobian))
    result = fit("exp_decay", trace, weights="poisson")
    assert result.converged and result.iterations >= 3
    # the initial cost, then one trial per iteration
    assert len(model_at) == result.iterations + 1
    # a trial is accepted when its cost does not exceed the current one; the
    # Jacobian is taken at the start and after each accepted step only, and
    # the last one, at the fitted parameters, gives the standard errors
    accepted, best = [model_at[0]], costs[0]
    for params, cost in zip(model_at[1:], costs[1:]):
        if cost <= best:
            accepted.append(params)
            best = cost
    assert len(accepted) < len(model_at), "no rejected step to reuse"
    assert jacobian_at == accepted
    assert jacobian_at[-1] == list(result.parameters.values())


def test_a_long_poisson_fit_holds_one_jacobian_at_a_time():
    # 100k points are 0.8 MB a column: the weights, the residual, the
    # Jacobian and its weighted copy (three rows each) make 6.4 MB
    t = np.linspace(0.0, 1e-2, 100_000)
    trace = decay_histogram(1e-3, t, 2_000_000, 0.9, background=0.01,
                            seed=3)
    tracemalloc.start()
    try:
        result = fit("exp_decay", trace, weights="poisson")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.converged
    assert peak <= 8e6, peak


def test_auto_guess_flat_data_raises():
    x = np.linspace(0.0, 1.0, 50)
    flat = np.full_like(x, 5.0)
    # each model names itself: the dip's guess is the peak's on -y
    with pytest.raises(ValueError, match="^cannot guess a Lorentzian from "
                                         "flat data$"):
        auto_initial_guess("lorentzian", x, flat)
    with pytest.raises(ValueError, match="^cannot guess a dip from flat "
                                         "data$"):
        auto_initial_guess("inverted_lorentzian", x, flat)


def test_exp_decay_guess_exact_on_uniform_grid():
    # block-sum construction is exact for a clean decay on a uniform grid,
    # constant background included
    x = np.linspace(0.0, 6e-3, 90)
    y = 850.0 * np.exp(-x / 1.3e-3) + 120.0
    guess = auto_initial_guess("exp_decay", x, y)
    assert guess["amplitude"] == pytest.approx(850.0, rel=1e-9)
    assert guess["lifetime"] == pytest.approx(1.3e-3, rel=1e-9)
    assert guess["offset"] == pytest.approx(120.0, rel=1e-9)


def test_positive_parameters_are_clamped_above_zero(monkeypatch):
    # from this start the first steps drive the lifetime, then the
    # amplitude, below zero; each is cut to a tenth of its last value
    spec = MODELS["exp_decay"]
    evaluated = []

    def recorded(x, p):
        evaluated.append(tuple(p.tolist()))
        return spec.function(x, p)

    monkeypatch.setitem(fitting.MODELS, "exp_decay",
                        dataclasses.replace(spec, function=recorded))
    x = np.linspace(0.0, 5e-3, 60)
    y = 100.0 * np.exp(-x / 1e-3) + 5.0
    result = fit("exp_decay", x, y, initial_guess={
        "amplitude": 100.0, "lifetime": 5e-2, "offset": -50.0})
    assert result.converged
    assert result.parameters["lifetime"] == pytest.approx(1e-3, rel=1e-9)
    assert all(lifetime > 0.0 for _, lifetime, _ in evaluated)
    assert all(amplitude > 0.0 for amplitude, _, _ in evaluated)
    assert evaluated[1][1] == 0.1 * 5e-2  # the clamp fired


def test_guess_fallbacks_on_short_records():
    # a peak one point wide gives a tenth of the span as its width
    assert fitting._guess_lorentzian(
        np.linspace(-1.0, 1.0, 5), np.array([0.0, 0.0, 10.0, 0.0, 0.0])
    ).tolist() == [10.0, 0.0, 0.2, 0.0]
    # block sums that do not fall twice: first point over the minimum,
    # lifetime a third of the span
    x = np.arange(6.0)
    guess = fitting._guess_exp_decay(x, np.array([3.0, 3, 2, 2, 0, 0]))
    assert guess.tolist() == pytest.approx([3.0, 5.0 / 3.0, 0.0])
    with pytest.raises(ValueError,
                       match="^cannot guess a decay from non-decaying data$"):
        fitting._guess_exp_decay(x, x)


def test_weight_validation():
    x = np.linspace(0.0, 1.0, 20)
    y = 2.0 * x + 1.0
    with pytest.raises(ValueError,
                       match="^weights must be None or 'poisson'$"):
        fit("linear", x, y, weights="bogus")


def test_second_forms_of_guess_and_weights_are_rejected():
    # one form each: a guess is a dict, and array weights would have to
    # match the x_range window, which the caller never sees
    x, y, _ = _clean_case("linear")
    with pytest.raises(ValueError, match="^initial_guess must be None or a "
                       "dict of parameters$"):
        fit("linear", x, y, initial_guess=[-2.0, 5.0])
    for weights in (np.ones_like(y), np.ones(5), [1.0] * len(y)):
        with pytest.raises(ValueError,
                           match="^weights must be None or 'poisson'$"):
            fit("linear", x, y, weights=weights, x_range=(0.0, 5.0))


def test_unknown_model():
    with pytest.raises(ValueError):
        fit("gaussian", np.arange(5.0), np.arange(5.0))


def test_partial_guess_merges_with_auto():
    x, y, true = _clean_case("lorentzian")
    result = fit("lorentzian", x, y, initial_guess={"center": 1.9e6})
    assert result.converged
    assert result.parameters["center"] == pytest.approx(2e6, rel=1e-6)
    with pytest.raises(ValueError):
        fit("lorentzian", x, y, initial_guess={"middle": 2e6})


def test_full_guess_is_used_as_given():
    x, y, _ = _clean_case("linear")
    result = fit("linear", x, y,
                 initial_guess={"slope": -2.0, "intercept": 5.0})
    assert result.converged
    with pytest.raises(ValueError):
        fit("linear", x, y, initial_guess={"slope": -2.0, "intercept": 5.0,
                                           "curvature": 1.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("model, guess, name", [
    ("linear", lambda bad: {"slope": bad, "intercept": 1.0}, "slope"),
    ("linear", lambda bad: {"slope": np.float32(bad)}, "slope"),
    ("exp_decay", lambda bad: {"lifetime": bad}, "lifetime"),
    ("lorentzian", lambda bad: {"amplitude": 1e3, "center": 2e6,
                                "fwhm": 5e5, "offset": bad}, "offset"),
], ids=["linear-full", "linear-float32", "exp-decay-partial",
        "lorentzian-full"])
def test_non_finite_initial_guess_is_rejected_before_a_step(capfd, model,
                                                            guess, name,
                                                            bad):
    # a NaN guess ran 16 steps to converged=False with NaN parameters, and
    # LAPACK printed "DLASCL parameter number 4" to stderr; the `positive`
    # check (<= 0.0) let a NaN lifetime through
    x, y, _ = _clean_case(model)
    with pytest.raises(ValueError, match=f"^initial {name} must be finite"):
        fit(model, x, y, initial_guess=guess(bad))
    assert capfd.readouterr().err == ""


def test_x_range_excludes_corrupted_points():
    x, y, true = _clean_case("exp_decay")
    corrupted = y.copy()
    corrupted[x > 4e-3] = 9e9  # detector railed late in the record
    result = fit("exp_decay", x, corrupted, x_range=(0.0, 4e-3))
    assert result.converged
    assert result.parameters["lifetime"] == pytest.approx(
        true["lifetime"], rel=1e-6)


def test_iteration_cap_reported(monkeypatch):
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
    x, y, _ = _clean_case("lorentzian")
    result = fit("lorentzian", x, y,
                 initial_guess={"amplitude": 300.0, "center": 0.5e6,
                                "fwhm": 2e6, "offset": 0.0})
    assert not result.converged
    assert result.iterations == 1


def test_zero_dof_yields_nan_errors():
    spec = MODELS["lorentzian"]
    x = np.array([-5e5, 0.0, 5e5, 1e6])
    y = spec.function(x, np.array([100.0, 2e5, 6e5, 10.0]))
    result = fit("lorentzian", x, y)
    assert all(math.isnan(e) for e in result.standard_errors.values())
    # the record keeps NaN; the JSON writer writes it as null (test_cli)
    as_dict = result.to_dict()
    assert math.isnan(as_dict["standard_errors"]["amplitude"])
    assert math.isfinite(as_dict["parameters"]["amplitude"])


def test_an_infinite_variance_yields_nan_errors():
    # the slope's error was inf, which --json could not write
    x = np.arange(1.0, 7.0) * 1e-160
    result = fit("linear", x, np.array([1.0, 2.1, 2.9, 4.2, 5.0, 5.9]))
    assert all(math.isnan(e) for e in result.standard_errors.values())
    assert math.isnan(result.to_dict()["standard_errors"]["slope"])


def test_linear_guess_at_an_extreme_x_scale(capfd):
    # np.polyfit printed LAPACK "DLASCL" lines to stderr here, then raised
    # LinAlgError, so the CLI exited 4
    x = np.arange(1.0, 7.0) * 1e-165
    y = 2.0 * np.arange(1.0, 7.0) + 1.0
    guess = auto_initial_guess("linear", x, y)
    assert guess["slope"] == pytest.approx(2e165, rel=1e-12)
    assert guess["intercept"] == pytest.approx(1.0, rel=1e-12)
    result = fit("linear", x, y)
    assert result.parameters["slope"] == pytest.approx(2e165, rel=1e-12)
    assert result.parameters["intercept"] == pytest.approx(1.0, rel=1e-12)
    assert capfd.readouterr().err == ""


def test_linear_guess_matches_polyfit_at_ordinary_scales():
    rng = np.random.default_rng(21)
    for scale in (1e-6, 1.0, 1e3, 1e9):
        x = scale * (1.0 + np.sort(rng.random(40)))
        y = -0.7 * x / scale + 3.0 + rng.normal(0.0, 0.1, x.size)
        guess = auto_initial_guess("linear", x, y)
        assert [guess["slope"], guess["intercept"]] == pytest.approx(
            np.polyfit(x, y, 1).tolist(), rel=1e-12)
        # the power-law guess is the same line on log-log axes
        y = 2.0 * x**0.5 * np.exp(rng.normal(0.0, 0.1, x.size))
        guess = auto_initial_guess("power_law", x, y)
        slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
        assert [guess["exponent"], math.log(guess["scale"])] == \
            pytest.approx([slope, intercept], rel=1e-12)
        assert guess["offset"] == 0.0
    with pytest.raises(ValueError, match="one x"):
        auto_initial_guess("linear", np.full(4, 2.0), np.arange(4.0))
    # the points at x <= 0 are dropped, which leaves one x
    with pytest.raises(ValueError, match="^power-law guess needs positive "
                                         "points at two distinct x$"):
        auto_initial_guess("power_law", np.array([-1.0, 0.0, 2.0, 2.0]),
                           np.arange(1.0, 5.0))
    # and when none is positive, no x is left at all
    with pytest.raises(ValueError, match="^power-law guess needs positive "
                                         "points at two distinct x$"):
        auto_initial_guess("power_law", np.array([-1.0, 0.0]),
                           np.array([1.0, 2.0]))


def test_a_failed_least_squares_guess_is_a_numerical_error(monkeypatch):
    # the LinAlgError left fit unconverted, so callers had to know numpy's
    # exception to tell a numerical failure from bad input
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "lstsq", singular)
    x, y = np.arange(1.0, 6.0), np.arange(5.0)
    for call in (auto_initial_guess, fit):
        with pytest.raises(NumericalError, match="^initial guess for model "
                                                 "'sqrt_offset' failed: SVD"):
            call("sqrt_offset", x, y)


def test_x_without_y_or_of_another_length_is_rejected():
    x, y, _ = _clean_case("linear")
    with pytest.raises(ValueError,
                       match="^y data is required when x is an array$"):
        fit("linear", x)
    with pytest.raises(ValueError, match="^x and y must be 1-d arrays of "
                                         "equal length$"):
        fit("linear", x, y[:-1])


def test_a_singular_step_solve_is_a_rejected_step(monkeypatch):
    solve, calls = np.linalg.solve, []

    def singular_first(matrix, vector):
        calls.append(None)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(matrix, vector)

    monkeypatch.setattr(np.linalg, "solve", singular_first)
    x, y, true = _clean_case("lorentzian")
    result = fit("lorentzian", x, y)
    assert result.converged and len(calls) == result.iterations
    for name, value in true.items():
        assert result.parameters[name] == pytest.approx(value, rel=1e-6)

    # a solve that always fails rejects every step, raising the damping
    # tenfold from 1e-3 until it passes 1e12: 16 steps, none taken
    def singular(matrix, vector):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    result = fit("lorentzian", x, y)
    assert not result.converged and result.iterations == 16
    assert result.parameters == auto_initial_guess("lorentzian", x, y)


def test_a_singular_normal_matrix_leaves_nan_errors(monkeypatch):
    def singular(matrix):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    x, y, _ = _clean_case("linear")
    result = fit("linear", x, y)
    assert result.converged
    assert all(math.isnan(e) for e in result.standard_errors.values())
    errors = result.to_dict()["standard_errors"]
    assert set(errors) == {"slope", "intercept"}
    assert all(math.isnan(e) for e in errors.values())


def test_too_few_points():
    with pytest.raises(ValueError):
        fit("lorentzian", np.arange(3.0), np.arange(3.0))


def test_trace_input_and_evaluate():
    x = np.linspace(0.0, 10.0, 30)
    y = -1.5 * x + 4.0
    trace = Trace(x=x, y=y)
    result = fit("linear", trace)
    assert isinstance(result, FitResult)
    assert np.allclose(result.evaluate(x), y, rtol=0.0, atol=1e-9)
    with pytest.raises(ValueError):
        fit("linear", trace, y)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_data_in_the_fit_window_is_rejected(bad):
    x, y, _ = _clean_case("linear")
    for name, data in (("x", x), ("y", y)):
        corrupted = data.copy()
        corrupted[10] = bad
        args = (corrupted, y) if data is x else (x, corrupted)
        with pytest.raises(ValueError, match=f"^{name} inside the fit window "
                           "must be finite$"):
            fit("linear", *args)
    # outside the window the point is ignored
    corrupted = y.copy()
    corrupted[-1] = bad
    assert fit("linear", x, corrupted, x_range=(-5.0, 4.0)).converged


def test_a_guess_that_overflows_names_the_model():
    # math.exp raised OverflowError out of fit
    with pytest.raises(ValueError, match="^cannot guess initial parameters "
                       "for model 'power_law'"):
        fit("power_law", *OVERFLOWING_GUESS)


def test_a_fit_ending_on_an_infinite_cost_raises():
    # it returned residual_sum_of_squares=inf
    with pytest.raises(NumericalError, match="^fit of model 'power_law' "
                       "ended on non-finite values: residual sum of squares "
                       "inf"):
        fit("power_law", *INFINITE_COST)


@pytest.mark.parametrize("x_range", [(0.0, math.nan), (math.nan, 1.0),
                                     (-math.inf, 1.0), (0.0, math.inf),
                                     (5.0, 1.0)])
def test_x_range_must_be_finite_and_ordered(x_range):
    # each reported "model 'linear' needs at least 2 points"
    x, y, _ = _clean_case("linear")
    with pytest.raises(ValueError, match="^x_range must be finite with "
                       "low <= high"):
        fit("linear", x, y, x_range=x_range)
    # a window of one x value is ordered, and too small
    with pytest.raises(ValueError, match="needs at least 2 points"):
        fit("linear", x, y, x_range=(x[3], x[3]))
