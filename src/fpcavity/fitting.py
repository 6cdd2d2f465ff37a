"""Nonlinear least-squares fits for the measurement models.

A small registry of named models (Lorentzian peak and dip, power law,
square-root broadening, exponential decay, straight line) with automatic
initial guesses, fitted by a damped Gauss-Newton loop.  Each model states
its analytic partial derivatives, so one Gauss-Newton step costs one model
pass and one Jacobian pass.  Parameter uncertainties come from the usual
linearized covariance s^2 (J^T W J)^-1.  The central-difference Jacobian
``_jacobian`` is kept as the oracle the analytic ones are tested against.

The solver is deliberately plain: normal equations with a Levenberg
damping term, multiplicative step control, and a relative step-size
convergence test.  It handles every model here in well under the iteration
cap on clean and noisy data alike.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (NumericalError, _Record, _require_each, _require_finite,
                   _require_non_negative, _require_positive)
from .trace import Trace

# the solver's iteration cap and its relative step-size convergence test
MAX_ITERATIONS = 200
TOLERANCE = 1e-10


class ModelSpec(_Record):
    """A registered fit model: parameters, function, Jacobian, guess."""

    name: str
    parameters: tuple[str, ...]
    # a kind sets the scale of a parameter whose current value is near zero,
    # for the convergence test's relative step and the central-difference
    # step of _jacobian: "x" and "y" scale with the data spans, "slope" with
    # their ratio, "unit" is order one
    kinds: tuple[str, ...]
    positive: frozenset[str]
    function: Callable[[np.ndarray, np.ndarray], np.ndarray]
    # partial derivatives at (x, p): a k x N array, one row per parameter
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    guess: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _lorentzian(x, p):
    amplitude, center, fwhm, offset = p
    u = 2.0 * (x - center) / fwhm
    return amplitude / (1.0 + u * u) + offset


def _lorentzian_rows(x, height, center, fwhm):
    """Partial derivatives of height / (1 + u^2), u = 2 (x - center) / fwhm,
    with respect to height, center and fwhm."""
    u = 2.0 * (x - center) / fwhm
    u_squared = u * u
    shape = 1.0 / (1.0 + u_squared)
    square = shape * shape
    return (shape, square * u * (4.0 * height / fwhm),
            square * u_squared * (2.0 * height / fwhm))


def _lorentzian_jacobian(x, p):
    amplitude, center, fwhm, _ = p
    return np.stack([*_lorentzian_rows(x, amplitude, center, fwhm),
                     np.ones_like(x)])


def _inverted_lorentzian(x, p):
    baseline, depth, center, fwhm = p
    u = 2.0 * (x - center) / fwhm
    return baseline - depth / (1.0 + u * u)


def _inverted_lorentzian_jacobian(x, p):
    _, depth, center, fwhm = p
    shape, d_center, d_fwhm = _lorentzian_rows(x, -depth, center, fwhm)
    return np.stack([np.ones_like(x), -shape, d_center, d_fwhm])


def _power_law(x, p):
    scale, exponent, offset = p
    return scale * np.power(x, exponent) + offset


def _power_law_jacobian(x, p):
    scale, exponent, _ = p
    power = np.power(x, exponent)
    # x^e ln x -> 0 as x -> 0 for e > 0; taking ln 0 as 0 keeps that limit
    log_x = np.log(x, out=np.zeros_like(x), where=x > 0.0)
    return np.stack([power, scale * power * log_x, np.ones_like(x)])


def _sqrt_offset(x, p):
    slope, offset = p
    return slope * np.sqrt(x) + offset


def _sqrt_offset_jacobian(x, p):
    return np.stack([np.sqrt(x), np.ones_like(x)])


def _exp_decay(x, p):
    amplitude, lifetime, offset = p
    return amplitude * np.exp(-x / lifetime) + offset


def _exp_decay_jacobian(x, p):
    amplitude, lifetime, _ = p
    decay = np.exp(-x / lifetime)
    return np.stack([decay, (amplitude / lifetime**2) * x * decay,
                     np.ones_like(x)])


def _linear(x, p):
    slope, intercept = p
    return slope * x + intercept


def _linear_jacobian(x, p):
    return np.stack([x, np.ones_like(x)])


def _peak_width(x, y, level, above: bool) -> float:
    inside = np.nonzero(y >= level if above else y <= level)[0]
    if inside.size >= 2:
        width = abs(x[inside[-1]] - x[inside[0]])
        if width > 0.0:
            return width
    span = np.ptp(x)
    return span / 10.0 if span > 0.0 else 1.0


def _guess_lorentzian(x, y):
    offset = float(np.min(y))
    amplitude = float(np.max(y)) - offset
    if amplitude <= 0.0:
        raise ValueError("cannot guess a Lorentzian from flat data")
    center = float(x[np.argmax(y)])
    fwhm = _peak_width(x, y, offset + 0.5 * amplitude, above=True)
    return np.array([amplitude, center, fwhm, offset])


def _guess_inverted_lorentzian(x, y):
    baseline = float(np.max(y))
    depth = baseline - float(np.min(y))
    if depth <= 0.0:
        raise ValueError("cannot guess a dip from flat data")
    center = float(x[np.argmin(y)])
    fwhm = _peak_width(x, y, baseline - 0.5 * depth, above=False)
    return np.array([baseline, depth, center, fwhm])


def _guess_power_law(x, y):
    keep = (x > 0.0) & (y > 0.0)
    log_x = np.log(x[keep])
    # log_x is finite; np.unique(log_x).size < 2 would import numpy.ma
    if log_x.size == 0 or log_x.min() == log_x.max():
        raise ValueError("power-law guess needs positive points at two "
                         "distinct x")
    slope, intercept = _guess_linear(log_x, np.log(y[keep]))
    return np.array([math.exp(intercept), slope, 0.0])


def _guess_sqrt_offset(x, y):
    _require_each("sqrt model x", x, _require_non_negative)
    design = np.column_stack([np.sqrt(x), np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return np.asarray(coef, dtype=float)


def _guess_exp_decay(x, y):
    # average over thirds: the successive differences of the three block
    # sums cancel a constant background exactly, and on a uniform grid the
    # ratio d1/d2 equals exp(-L/tau) with L the block length
    third = len(x) // 3
    if third >= 1:
        s1 = float(np.sum(y[:third]))
        s2 = float(np.sum(y[third:2 * third]))
        s3 = float(np.sum(y[2 * third:3 * third]))
        d1, d2 = s1 - s2, s2 - s3
        if d1 > 0.0 and d2 > 0.0 and d1 > d2:
            block = x[third] - x[0]
            lifetime = block / math.log(d1 / d2)
            decay = np.exp(-x[:third] / lifetime)
            amplitude = d1 / ((1.0 - math.exp(-block / lifetime))
                              * float(np.sum(decay)))
            offset = (s3 - amplitude
                      * float(np.sum(np.exp(-x[2 * third:3 * third]
                                            / lifetime)))) / third
            if amplitude > 0.0 and lifetime > 0.0:
                return np.array([amplitude, lifetime, offset])
    # fallback for short or very noisy records
    offset = float(np.min(y))
    amplitude = float(y[0]) - offset
    if amplitude <= 0.0:
        raise ValueError("cannot guess a decay from non-decaying data")
    span = np.ptp(x)
    return np.array([amplitude, span / 3.0 if span > 0.0 else 1.0, offset])


def _guess_linear(x, y):
    # least squares in closed form on x centred and scaled into [-1, 1], so
    # that no scale of x under- or overflows in the sums of squares
    x_mean, y_mean = float(np.mean(x)), float(np.mean(y))
    spread = float(np.max(np.abs(x - x_mean)))
    if spread == 0.0:
        raise ValueError("cannot guess a line through points at one x")
    u = (x - x_mean) / spread
    slope = float(np.dot(u, y - y_mean) / np.dot(u, u)) / spread
    return np.array([slope, y_mean - slope * x_mean])


MODELS: dict[str, ModelSpec] = {
    spec.name: spec for spec in (
        ModelSpec("lorentzian", ("amplitude", "center", "fwhm", "offset"),
                  ("y", "x", "x", "y"), frozenset({"fwhm"}),
                  _lorentzian, _lorentzian_jacobian, _guess_lorentzian),
        ModelSpec("inverted_lorentzian",
                  ("baseline", "depth", "center", "fwhm"),
                  ("y", "y", "x", "x"), frozenset({"fwhm"}),
                  _inverted_lorentzian, _inverted_lorentzian_jacobian,
                  _guess_inverted_lorentzian),
        ModelSpec("power_law", ("scale", "exponent", "offset"),
                  ("y", "unit", "y"), frozenset({"scale"}),
                  _power_law, _power_law_jacobian, _guess_power_law),
        ModelSpec("sqrt_offset", ("slope", "offset"),
                  ("slope", "y"), frozenset(),
                  _sqrt_offset, _sqrt_offset_jacobian, _guess_sqrt_offset),
        ModelSpec("exp_decay", ("amplitude", "lifetime", "offset"),
                  ("y", "x", "y"), frozenset({"amplitude", "lifetime"}),
                  _exp_decay, _exp_decay_jacobian, _guess_exp_decay),
        ModelSpec("linear", ("slope", "intercept"),
                  ("slope", "y"), frozenset(),
                  _linear, _linear_jacobian, _guess_linear),
    )
}


def _model(name: str) -> ModelSpec:
    try:
        return MODELS[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; "
                         f"choose from {sorted(MODELS)}") from None


def _step_floors(spec: ModelSpec, x, y) -> np.ndarray:
    def span(values):
        extent = float(np.ptp(values))
        if extent > 0.0:
            return extent
        peak = float(np.max(np.abs(values)))
        return peak if peak > 0.0 else 1.0

    xspan, yspan = span(x), span(y)
    table = {"x": xspan, "y": yspan, "unit": 1.0, "slope": yspan / xspan}
    return np.array([table[kind] for kind in spec.kinds])


def _jacobian(spec: ModelSpec, x, params, floors) -> np.ndarray:
    jac = np.empty((len(x), len(params)))
    for j in range(len(params)):
        h = 1e-6 * max(abs(params[j]), floors[j])
        upper = params.copy()
        lower = params.copy()
        upper[j] += h
        lower[j] -= h
        jac[:, j] = (spec.function(x, upper) - spec.function(x, lower)) \
            / (2.0 * h)
    return jac


def auto_initial_guess(model: str, x, y) -> dict[str, float]:
    """Data-driven starting parameters for a registered model: raises
    ``ValueError`` on data it cannot start from, ``NumericalError`` when
    its least-squares solve fails."""
    spec = _model(model)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _require_each("x", x)
    _require_each("y", y)
    try:
        values = spec.guess(x, y)
    except ArithmeticError as exc:  # math.exp overflowing, say
        raise ValueError(f"cannot guess initial parameters for model "
                         f"{model!r}: {exc}") from None
    except np.linalg.LinAlgError as exc:  # lstsq's SVD failing, say
        raise NumericalError(f"initial guess for model {model!r} failed: "
                             f"{exc}") from None
    return dict(zip(spec.parameters, (float(v) for v in values)))


class FitResult(_Record):
    """Outcome of a least-squares fit.

    ``residual_sum_of_squares`` is the weighted sum entering the cost
    function; standard errors are NaN when the normal matrix is singular
    or the fit has no spare degrees of freedom.
    """

    model: str
    parameters: dict[str, float]
    standard_errors: dict[str, float]
    residual_sum_of_squares: float
    converged: bool
    iterations: int

    def evaluate(self, x):
        """Model curve at the fitted parameters."""
        spec = _model(self.model)
        vector = np.array([self.parameters[n] for n in spec.parameters])
        return spec.function(np.asarray(x, dtype=float), vector)

    def to_dict(self) -> dict:
        """The fields, each NaN estimate or error as None (JSON null)."""
        data = dict(zip(self.__match_args__, self._values()))
        for key in ("parameters", "standard_errors"):
            data[key] = {name: None if math.isnan(value) else value
                         for name, value in data[key].items()}
        return data


# overflow is reported once, by the finite check on the result
@np.errstate(over="ignore", invalid="ignore")
def fit(model: str, trace_or_x, y=None, *, initial_guess=None, weights=None,
        x_range: tuple[float, float] | None = None) -> FitResult:
    """Fit a registered model to data.

    Accepts either a :class:`~fpcavity.trace.Trace` or separate x and y
    arrays.  ``initial_guess`` is a full or partial parameter dict (missing
    entries fall back to the automatic guess).  ``weights`` is None or
    "poisson" (1/max(y, 1)); ``x_range`` is finite, low <= high, and x and
    y must be finite inside it.  Bad input raises ``ValueError``; a failed
    initial guess, or a fit that ends on a non-finite residual sum or
    parameter, raises ``NumericalError``.
    """
    spec = _model(model)
    if isinstance(trace_or_x, Trace):
        if y is not None:
            raise ValueError("pass either a trace or x and y, not both")
        x, y = trace_or_x.x, trace_or_x.y
    else:
        if y is None:
            raise ValueError("y data is required when x is an array")
        x = trace_or_x
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x_range is not None:
        lo, hi = x_range
        if not -math.inf < lo <= hi < math.inf:
            raise ValueError(f"x_range must be finite with low <= high, "
                             f"got ({lo}, {hi})")
        keep = (x >= lo) & (x <= hi)
        x, y = x[keep], y[keep]
    _require_each("x inside the fit window", x)
    _require_each("y inside the fit window", y)

    k = len(spec.parameters)
    if len(x) < k:
        raise ValueError(f"model {model!r} needs at least {k} points")

    if weights is None:
        w = np.ones_like(y)
    elif isinstance(weights, str) and weights == "poisson":
        w = 1.0 / np.maximum(y, 1.0)
    else:
        raise ValueError("weights must be None or 'poisson'")
    if initial_guess is None:
        initial_guess = {}
    elif not isinstance(initial_guess, dict):
        raise ValueError("initial_guess must be None or a dict of parameters")
    unknown = set(initial_guess) - set(spec.parameters)
    if unknown:
        raise ValueError(f"unknown parameters {sorted(unknown)} "
                         f"for model {model!r}")
    if set(initial_guess) == set(spec.parameters):
        params_map = dict(initial_guess)
    else:
        params_map = auto_initial_guess(model, x, y)
        params_map.update(initial_guess)
    params = np.array([float(params_map[n]) for n in spec.parameters])
    for name, value in zip(spec.parameters, params.tolist()):
        _require_finite(**{f"initial {name}": value})
        if name in spec.positive:
            _require_positive(f"initial {name}", value)

    floors = _step_floors(spec, x, y)

    def cost_of(p):
        r = y - spec.function(x, p)
        return float(np.sum(w * r * r)), r

    cost, residual = cost_of(params)
    damping = 1e-3
    converged = False
    iteration = 0
    while iteration < MAX_ITERATIONS:
        iteration += 1
        jac = spec.jacobian(x, params)
        jw = jac * w
        normal = jw @ jac.T
        gradient = jw @ residual
        diagonal = np.diag(normal).copy()
        diagonal[diagonal <= 0.0] = max(np.max(diagonal), 1.0)
        try:
            step = np.linalg.solve(normal + damping * np.diag(diagonal),
                                   gradient)
        except np.linalg.LinAlgError:
            damping *= 10.0
            if damping > 1e12:
                break
            continue
        trial = params + step
        for name in spec.positive:
            j = spec.parameters.index(name)
            if trial[j] <= 0.0:
                trial[j] = 0.1 * params[j]
        trial_cost, trial_residual = cost_of(trial)
        if trial_cost <= cost:
            relative = np.max(np.abs(trial - params)
                              / np.maximum(np.abs(params), floors))
            params, cost, residual = trial, trial_cost, trial_residual
            damping = max(damping / 3.0, 1e-12)
            if relative < TOLERANCE or cost == 0.0:
                converged = True
                break
        else:
            damping *= 10.0
            if damping > 1e12:
                break
    if not (math.isfinite(cost) and np.all(np.isfinite(params))):
        raise NumericalError(
            f"fit of model {model!r} ended on non-finite values: residual "
            f"sum of squares {cost}, parameters {params.tolist()}")

    jac = spec.jacobian(x, params)
    normal = (jac * w) @ jac.T
    errors = np.full(k, math.nan)
    dof = len(x) - k
    if dof > 0:
        try:
            covariance = (cost / dof) * np.linalg.inv(normal)
            variances = np.diag(covariance)
            # an infinite variance is as singular as a negative one
            if np.all((variances >= 0.0) & (variances < math.inf)):
                errors = np.sqrt(variances)
        except np.linalg.LinAlgError:
            pass

    return FitResult(
        model=model,
        parameters=dict(zip(spec.parameters, (float(p) for p in params))),
        standard_errors=dict(zip(spec.parameters,
                                 (float(e) for e in errors))),
        residual_sum_of_squares=cost,
        converged=converged,
        iterations=iteration,
    )
