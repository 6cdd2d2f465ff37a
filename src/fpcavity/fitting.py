"""Nonlinear least-squares fits for the measurement models.

A small registry of named models (Lorentzian peak and dip, power law,
square-root broadening, exponential decay, straight line) with automatic
initial guesses, fitted by a damped Gauss-Newton loop.  Each model states
its analytic partial derivatives, written into one k x N array.  Every
trial step costs one model pass; the Jacobian, the normal matrix and the
gradient are taken once per accepted step (and once at the start), and a
rejected step reuses them.  Parameter uncertainties come from the usual
linearized covariance s^2 (J^T W J)^-1.  The central-difference Jacobian
``_jacobian`` is kept as the oracle the analytic ones are tested against.

The solver is deliberately plain: normal equations with a Levenberg damping
term, multiplicative step control, and a relative step-size convergence
test.  Unweighted on default Poisson traces (seeds 0-99), it stopped at
MAX_ITERATIONS unconverged in 9 of 100 power_law fits of saturation traces
(ROADMAP item 13) and in none of 100 inverted_lorentzian fits of hole traces.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (NumericalError, _JsonRecord, _Record, _require_each,
                   _require_finite, _require_non_negative, _require_positive)
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


def _lorentzian_rows(rows, x, height, center, fwhm):
    """Write the partial derivatives of height / (1 + u^2),
    u = 2 (x - center) / fwhm, with respect to height, center and fwhm into
    the three ``rows``."""
    u = 2.0 * (x - center) / fwhm
    u_squared = u * u
    shape = np.divide(1.0, 1.0 + u_squared, out=rows[0])
    square = shape * shape
    np.multiply(square * u, 4.0 * height / fwhm, out=rows[1])
    np.multiply(square * u_squared, 2.0 * height / fwhm, out=rows[2])


def _lorentzian_jacobian(x, p):
    amplitude, center, fwhm, _ = p
    jac = np.empty((4, x.size))
    _lorentzian_rows(jac[:3], x, amplitude, center, fwhm)
    jac[3] = 1.0
    return jac


def _inverted_lorentzian(x, p):
    baseline, depth, center, fwhm = p
    return _lorentzian(x, (-depth, center, fwhm, baseline))


def _inverted_lorentzian_jacobian(x, p):
    _, depth, center, fwhm = p
    jac = np.empty((4, x.size))
    jac[0] = 1.0
    _lorentzian_rows(jac[1:], x, -depth, center, fwhm)
    np.negative(jac[1], out=jac[1])
    return jac


def _power_law(x, p):
    scale, exponent, offset = p
    return scale * np.power(x, exponent) + offset


def _power_law_jacobian(x, p):
    scale, exponent, _ = p
    jac = np.empty((3, x.size))
    power = np.power(x, exponent, out=jac[0])
    # x^e ln x -> 0 as x -> 0 for e > 0; taking ln 0 as 0 keeps that limit
    log_x = np.log(x, out=np.zeros_like(x), where=x > 0.0)
    jac[1] = scale * power * log_x
    jac[2] = 1.0
    return jac


def _exp_decay(x, p):
    amplitude, lifetime, offset = p
    return amplitude * np.exp(-x / lifetime) + offset


def _exp_decay_jacobian(x, p):
    amplitude, lifetime, _ = p
    jac = np.empty((3, x.size))
    decay = np.exp(-x / lifetime, out=jac[0])
    jac[1] = (amplitude / lifetime**2) * x * decay
    jac[2] = 1.0
    return jac


def _linear(x, p):
    slope, intercept = p
    return slope * x + intercept


def _linear_jacobian(x, p):
    jac = np.empty((2, x.size))
    jac[0] = x
    jac[1] = 1.0
    return jac


def _sqrt_offset(x, p):
    return _linear(np.sqrt(x), p)


def _sqrt_offset_jacobian(x, p):
    return _linear_jacobian(np.sqrt(x), p)


def _guess_lorentzian(x, y):
    # levels from many bins, not single noisy ones: the far level is the
    # median (by np.partition, since np.median would import numpy.ma), the
    # peak a running mean of up to five points, normalized at the edges
    n = y.size
    window = np.ones(min(5, max(1, n // 5)))
    smooth = np.convolve(y, window, "same") \
        / np.convolve(np.ones(n), window, "same")
    peak = int(np.argmax(smooth))
    middle = np.partition(y, ((n - 1) // 2, n // 2))
    offset = float(np.mean(middle[(n - 1) // 2:n // 2 + 1]))
    amplitude = float(smooth[peak]) - offset
    if amplitude <= 0.0:
        raise ValueError("cannot guess a Lorentzian from flat data")
    # the width of the run of points around the peak above half height; a
    # run one point wide takes a tenth of the span, and no span 1
    below = np.flatnonzero(smooth < offset + 0.5 * amplitude)
    i = int(np.searchsorted(below, peak))
    first = below[i - 1] + 1 if i > 0 else 0
    last = below[i] - 1 if i < below.size else n - 1
    fwhm = abs(float(x[last] - x[first])) or float(np.ptp(x)) / 10.0 or 1.0
    return np.array([amplitude, float(x[peak]), fwhm, offset])


def _guess_inverted_lorentzian(x, y):
    try:
        depth, center, fwhm, offset = _guess_lorentzian(x, -y)
    except ValueError:
        raise ValueError("cannot guess a dip from flat data") from None
    return np.array([-offset, depth, center, fwhm])


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
    return _guess_linear(np.sqrt(x), y)


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
    """Data-driven starting parameters for a registered model, in closed
    form: raises ``ValueError`` on data it cannot start from."""
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
    return dict(zip(spec.parameters, (float(v) for v in values)))


class FitResult(_JsonRecord):
    """Outcome of a least-squares fit.

    ``residual_sum_of_squares`` is the weighted sum entering the cost
    function; standard errors are NaN when the normal matrix is singular
    or the fit has no spare degrees of freedom, in ``to_dict`` too.
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


# overflow is reported once, by the finite check on the result
@np.errstate(over="ignore", invalid="ignore")
def fit(model: str, trace_or_x, y=None, *, initial_guess=None, weights=None,
        x_range: tuple[float, float] | None = None) -> FitResult:
    """Fit a registered model to data.

    Accepts either a :class:`~fpcavity.trace.Trace` or separate x and y
    arrays.  ``initial_guess`` is a full or partial parameter dict (missing
    entries fall back to the automatic guess).  ``weights`` is None or
    "poisson" (1/max(y, 1)); ``x_range`` is finite, low <= high, and x and
    y must be finite inside it.  Bad input, data the automatic guess
    cannot start from included, raises ``ValueError``; a fit that ends on a
    non-finite residual sum or parameter raises ``NumericalError``.
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

    def linearized(p, r):
        """The normal matrix J^T W J and the gradient J^T W r at p."""
        jac = spec.jacobian(x, p)
        jw = jac * w
        return jw @ jac.T, jw @ r

    positive = [spec.parameters.index(name) for name in spec.positive]
    cost, residual = cost_of(params)
    # taken again only after an accepted step, so a rejected one reuses
    # them; the last normal matrix gives the standard errors
    normal, gradient = linearized(params, residual)
    damping = 1e-3
    converged = False
    iteration = 0
    while not (converged or iteration == MAX_ITERATIONS or damping > 1e12):
        iteration += 1
        diagonal = np.diag(normal).copy()
        diagonal[diagonal <= 0.0] = max(np.max(diagonal), 1.0)
        try:
            step = np.linalg.solve(normal + damping * np.diag(diagonal),
                                   gradient)
        except np.linalg.LinAlgError:  # a singular solve is a rejected step
            damping *= 10.0
            continue
        trial = params + step
        for j in positive:
            if trial[j] <= 0.0:
                trial[j] = 0.1 * params[j]
        trial_cost, trial_residual = cost_of(trial)
        if trial_cost <= cost:
            relative = np.max(np.abs(trial - params)
                              / np.maximum(np.abs(params), floors))
            params, cost, residual = trial, trial_cost, trial_residual
            normal, gradient = linearized(params, residual)
            damping = max(damping / 3.0, 1e-12)
            converged = bool(relative < TOLERANCE or cost == 0.0)
        else:
            damping *= 10.0
    if not (math.isfinite(cost) and np.all(np.isfinite(params))):
        raise NumericalError(
            f"fit of model {model!r} ended on non-finite values: residual "
            f"sum of squares {cost}, parameters {params.tolist()}")

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
