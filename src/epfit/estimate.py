"""Estimators for EP location, scale and shape.

Two routes to the same M-estimators:

* iteratively reweighted estimating equations (EEs) for (mu, sigma)
  under any score family, optionally alternated with a shape EE, and
* direct maximization of the plain, q-deformed or distorted
  log-likelihood through the genetic optimizer.

The EE updates are

    mu    <- sum(w_i x_i) / sum(w_i),          w_i = S(y_i) / y_i
    sigma <- sqrt(sum(w_i (x_i - mu)^2) / D),

with D = n for the unweighted families and D = sum of the density
weights for the q-weighted and distorted families, exactly as the two
scale equations are written.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .epd import EpdParams
from .optimize import GaConfig, maximize, polish
from .scores import (
    CombinedHuber,
    CombinedPlain,
    Distorted,
    QWeighted,
    ScoreFamily,
    density_weight,
    ee_weight,
    uses_weight_denominator,
)
from .special_fn import digamma, log_gamma

__all__ = [
    "DegenerateDataError",
    "AlphaRootError",
    "FitConfig",
    "FitResult",
    "MLE",
    "MqLE",
    "MDLE",
    "initial_values",
    "fit_ee_location_scale",
    "fit_ee_alpha",
    "fit_objective",
    "objective_value",
    "objective_values",
    "default_search_bounds",
]

_SIGMA_FLOOR = 1e-6
_ALPHA_BRACKET = (0.05, 50.0)
# the shape root is returned once its bracket is this narrow, relative
# to the root
_ALPHA_RTOL = 1e-13


class DegenerateDataError(ValueError):
    """All EE weights vanished or the scale collapsed."""


class AlphaRootError(RuntimeError):
    """The shape EE has no root in the admissible bracket."""


@dataclass(frozen=True)
class FitConfig:
    """Iteration controls for the EE solvers.

    The parameter-change tolerance is tight by default so that the
    summed score vector at the returned point is negligible even for
    large samples.
    """

    max_iter: int = 500
    tol: float = 1e-11
    estimate_alpha: bool = False
    # the shape iteration approaches from the Laplace side so it locks
    # onto the first (central) solution of the shape equation
    alpha_start: float = 1.0

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class FitResult:
    """Fitted parameters plus whatever inference has been attached."""

    params: EpdParams
    converged: bool
    iterations: int
    estimated_alpha: bool
    family: object | None = None
    fisher: object | None = None
    variances: object | None = None
    ic: tuple | None = None
    volume: float | None = None
    mae: float | None = None
    objective_value: float | None = None
    ga_history: list = field(default_factory=list)


@dataclass(frozen=True)
class MLE:
    """Plain log-likelihood objective."""


@dataclass(frozen=True)
class MqLE:
    """q-deformed log-likelihood objective, q in (0, 1]."""

    q: float

    def __post_init__(self):
        if not (0.0 < self.q <= 1.0):
            raise ValueError(f"q must be in (0, 1], got {self.q}")


@dataclass(frozen=True)
class MDLE:
    """Distorted log-likelihood objective, beta >= 0."""

    beta: float

    def __post_init__(self):
        if self.beta < 0.0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")


ObjectiveMode = MLE | MqLE | MDLE


@functools.lru_cache(maxsize=128)
def _log_gamma_inverse(alpha: float) -> float:
    # GA children inherit most shapes unchanged, so this rarely misses
    return log_gamma(1.0 / alpha)


def objective_values(mode: ObjectiveMode, data, points) -> np.ndarray:
    """Summed objective of the chosen estimation mode at each point.

    ``points`` is an (m, 3) array of (mu, sigma, alpha) rows; the result
    has one value per row, -inf where sigma or alpha is not positive.
    All rows are evaluated together as (m, n) arrays, with the same
    elementwise operations as the single-point densities in ``epd``, so
    a row's value is bit-identical to its single-point objective and
    does not depend on the other rows.
    """
    if not isinstance(mode, (MLE, MqLE, MDLE)):
        raise TypeError(f"unknown objective mode {mode!r}")
    data = np.asarray(data, dtype=float)
    points = np.asarray(points, dtype=float)
    out = np.full(len(points), -np.inf)
    ok = (points[:, 1] > 0.0) & (points[:, 2] > 0.0)
    mu, sigma, alpha = points[ok].T
    # log of the density prefactor, term by term as EpdParams.log_norm_const
    log_c = np.array([
        math.log(a) - math.log(2.0 * s) - _log_gamma_inverse(a)
        for s, a in zip(sigma.tolist(), alpha.tolist())
    ])
    y = np.abs(data - mu[:, None]) / sigma[:, None]
    # power row by row: numpy computes x**2 and x**0.5 by exact shortcuts
    # when the exponent is one scalar, as in the single-point densities,
    # but not always when a column of exponents is broadcast
    pow_a = np.empty_like(y)
    for k, a in enumerate(alpha):
        np.power(y[k], a, out=pow_a[k])
    lf = log_c[:, None] - pow_a
    if isinstance(mode, MqLE) and mode.q != 1.0:
        lf = np.expm1((1.0 - mode.q) * lf) / (1.0 - mode.q)
    elif isinstance(mode, MDLE) and mode.beta > 0.0:
        lf = np.log(mode.beta + np.exp(lf))
    out[ok] = lf.sum(axis=1)
    return out


def objective_value(mode: ObjectiveMode, data: np.ndarray, p: EpdParams) -> float:
    """Summed objective of the chosen estimation mode at one point."""
    return float(objective_values(mode, data, np.array([[p.mu, p.sigma, p.alpha]]))[0])


def initial_values(data) -> tuple[float, float]:
    """Median and median absolute deviation as starting values.

    A collapsed MAD is replaced by a 1e-6 floor so the first
    standardization is well defined.
    """
    data = np.asarray(data, dtype=float)
    if data.size < 1:
        raise ValueError("data must be non-empty")
    mu0 = float(np.median(data))
    sigma0 = float(np.median(np.abs(data - mu0)))
    if sigma0 <= 0.0:
        sigma0 = _SIGMA_FLOOR
    return mu0, sigma0


def _as_clean_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size < 2:
        raise DegenerateDataError("need at least two observations")
    if not np.all(np.isfinite(arr)):
        raise DegenerateDataError("data contain non-finite values")
    if np.min(arr) == np.max(arr):
        raise DegenerateDataError("all observations are identical")
    return arr


def _max_shape(score: ScoreFamily, alpha: float) -> float:
    if isinstance(score, (CombinedPlain, CombinedHuber)):
        return max(score.triple.as_tuple())
    return alpha


def _resolve_alpha(score: ScoreFamily, alpha: float | None) -> float:
    if alpha is not None:
        if not alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        return float(alpha)
    if isinstance(score, (CombinedPlain, CombinedHuber)):
        return score.triple.alpha2
    raise ValueError("a scalar shape value is required for this score family")


def _ee_sweep(
    data: np.ndarray, score: ScoreFamily, p: EpdParams, damp: bool
) -> tuple[float, float]:
    w = np.asarray(ee_weight(score, data, p))
    sw = float(np.sum(w))
    if not math.isfinite(sw) or sw <= 0.0:
        raise DegenerateDataError("estimating-equation weights vanished")
    mu_new = float(np.sum(w * data) / sw)
    if uses_weight_denominator(score):
        denom = float(np.sum(density_weight(score, data, p)))
    else:
        denom = float(len(data))
    if not math.isfinite(denom) or denom <= 0.0:
        raise DegenerateDataError("scale-equation denominator vanished")
    s2 = float(np.sum(w * (data - mu_new) ** 2) / denom)
    if not math.isfinite(s2) or s2 <= 0.0:
        raise DegenerateDataError("scale update collapsed to zero")
    sigma_new = math.sqrt(s2)
    if damp < 1.0:
        # relaxation keeps the reweighting maps contractive for steep
        # shapes: the log-scale map has slope 1 - alpha/2, so mixing
        # with weight 2/alpha flattens it near the fixed point
        mu_new = (1.0 - damp) * p.mu + damp * mu_new
        sigma_new = math.exp((1.0 - damp) * math.log(p.sigma) + damp * math.log(sigma_new))
    return mu_new, sigma_new


class _AlphaResidual:
    """Mean shape-equation residual as a function of the shape alone.

    Standardized residual logs are precomputed once per (mu, sigma), so
    each evaluation inside the root search costs one exp pass.
    """

    def __init__(self, data, mu, sigma, q, beta):
        y = np.abs(np.asarray(data, dtype=float) - mu) / sigma
        self.zero = y < 1e-12
        self.log_y = np.log(np.where(self.zero, 1.0, y))
        self.n_total = len(y)
        self.sigma = sigma
        self.q = q
        self.beta = beta

    def __call__(self, alpha: float) -> float:
        # near-zero residuals: |y|^alpha -> 0 and the log term vanishes,
        # but the point still carries its density weight below
        with np.errstate(over="ignore", invalid="ignore"):
            pow_a = np.where(self.zero, 0.0, np.exp(alpha * self.log_y))
            pow_log = pow_a * self.log_y
            if self.q != 1.0 or self.beta > 0.0:
                log_c = (
                    math.log(alpha) - math.log(2.0 * self.sigma)
                    - log_gamma(1.0 / alpha)
                )
                log_f = log_c - pow_a
                if self.q != 1.0:
                    w = np.exp((1.0 - self.q) * log_f)
                else:
                    f = np.exp(log_f)
                    w = f / (self.beta + f)
                sw = float(np.sum(w))
                if sw <= 0.0:
                    raise DegenerateDataError("shape-equation weights vanished")
                # overflowing residual powers carry vanishing weights;
                # their weighted contribution tends to zero
                contrib = w * pow_log
                mean_pl = float(np.sum(np.where(np.isfinite(contrib), contrib, 0.0)) / sw)
            else:
                mean_pl = float(np.sum(pow_log)) / self.n_total
        return 1.0 / alpha + digamma(1.0 / alpha) / alpha**2 - mean_pl


def _brent(g, a: float, b: float, fa: float, fb: float) -> float:
    """Root of g on [a, b], where g(a) and g(b) differ in sign.

    Brent's method (Algorithms for Minimization without Derivatives,
    1973, ch. 4): inverse quadratic or secant steps, replaced by a
    bisection step whenever they would leave the bracket or shrink it
    too slowly.  Returns once the bracket is narrower than _ALPHA_RTOL
    relative to the root.
    """
    # b is the best iterate, the root lies between b and c, and a is
    # the previous iterate
    c, fc = a, fa
    d = e = b - a
    for _ in range(100):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * _ALPHA_RTOL * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return float(b)
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = g(b)
    return float(b)


def fit_ee_alpha(
    data,
    current: EpdParams,
    q: float = 1.0,
    beta: float = 0.0,
    bracket: tuple[float, float] = _ALPHA_BRACKET,
    hint: float | None = None,
) -> float:
    """Solve the shape estimating equation at fixed (mu, sigma).

    Root-finds the residual of the shape equation (equivalently, the
    shape derivative of the chosen objective) by Brent's bracketed
    method, taking the smallest root in the bracket so the iteration
    locks onto the central solution rather than a degenerate high-shape
    one.
    q = 1, beta = 0 is the plain-likelihood equation; q < 1 and beta > 0
    select the weighted variants.  ``hint`` narrows the initial bracket
    around a previous root.
    """
    data = _as_clean_array(data)
    if not current.sigma > 0.0:
        raise ValueError("current sigma must be positive")
    lo, hi = bracket
    g = _AlphaResidual(data, current.mu, current.sigma, q, beta)

    if hint is not None and lo < hint < hi:
        # expand geometrically around the previous root before scanning
        a = max(lo, hint / 1.6)
        b = min(hi, hint * 1.6)
        fa, fb = g(a), g(b)
        for _ in range(8):
            if fa * fb <= 0.0:
                return _brent(g, a, b, fa, fb)
            a, b = max(lo, a / 1.6), min(hi, b * 1.6)
            fa, fb = g(a), g(b)

    grid = np.geomspace(lo, hi, 40)
    vals = [g(a) for a in grid]
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            return float(grid[i])
        if vals[i] * vals[i + 1] < 0.0:
            return _brent(g, float(grid[i]), float(grid[i + 1]), vals[i], vals[i + 1])
    raise AlphaRootError(f"no shape-equation root in ({lo}, {hi})")


def _irls(
    data: np.ndarray,
    score: ScoreFamily,
    alpha: float,
    config: FitConfig,
    start: tuple[float, float] | None = None,
) -> tuple[float, float, int, bool]:
    """Reweighted location/scale iteration at a fixed shape."""
    mu0, sigma0 = initial_values(data)
    mu, sigma = start if start is not None else (mu0, sigma0)
    floor = 1e-10 * max(sigma0, _SIGMA_FLOOR)
    shape_max = _max_shape(score, alpha)
    damp = min(1.0, 2.0 / shape_max) if shape_max > 2.5 else 1.0
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iter + 1):
        p = EpdParams(mu, sigma, alpha)
        mu_new, sigma_new = _ee_sweep(data, score, p, damp)
        if sigma_new < floor:
            raise DegenerateDataError("scale collapsed toward a point mass")
        change = max(abs(mu_new - mu), abs(sigma_new - sigma))
        mu, sigma = mu_new, sigma_new
        if change < config.tol:
            converged = True
            break
    return mu, sigma, iterations, converged


def fit_ee_location_scale(
    data,
    score: ScoreFamily,
    alpha: float | None = None,
    config: FitConfig | None = None,
) -> FitResult:
    """Iteratively reweighted solution of the location/scale EEs.

    ``alpha`` is the EP shape used by the plain, q-weighted and
    distorted families (the combined families take their shapes from
    their triple, and record the center shape).

    With ``config.estimate_alpha`` each location/scale sweep alternates
    with one damped shape update toward the smallest root of the shape
    equation at the current iterate.  Contaminated samples can develop
    a long flat scale/shape valley in the deformed objectives; a fit
    that exhausts the iteration budget crawling along it is returned
    flagged ``converged=False`` (its parameters are the budget-limited
    solution, mirroring how bounded searches behave on these surfaces).
    """
    config = config or FitConfig()
    data = _as_clean_array(data)
    estimate_alpha = config.estimate_alpha
    if estimate_alpha and isinstance(score, (CombinedPlain, CombinedHuber)):
        raise ValueError("shape estimation is undefined for the combined families")

    if not estimate_alpha:
        alpha_val = _resolve_alpha(score, alpha)
        mu, sigma, iterations, converged = _irls(data, score, alpha_val, config)
        return FitResult(
            params=EpdParams(mu, sigma, alpha_val),
            converged=converged,
            iterations=iterations,
            estimated_alpha=False,
            family=score,
        )

    q, beta = 1.0, 0.0
    if isinstance(score, QWeighted):
        q = score.q
    elif isinstance(score, Distorted):
        beta = score.beta

    alpha_val = float(config.alpha_start) if alpha is None else _resolve_alpha(score, alpha)
    mu, sigma = initial_values(data)
    converged = False
    iterations = 0
    root_hint: float | None = None
    for iterations in range(1, config.max_iter + 1):
        p = EpdParams(mu, sigma, alpha_val)
        # only the extreme-shape safety relaxation here: the half-damped
        # shape update below already tempers the joint trajectory, and
        # extra interference widens where budget-limited fits stop
        damp = min(1.0, 2.0 / alpha_val) if alpha_val > 3.8 else 1.0
        mu_new, sigma_new = _ee_sweep(data, score, p, damp)
        root = fit_ee_alpha(
            data, EpdParams(mu_new, sigma_new, alpha_val),
            q=q, beta=beta, hint=root_hint,
        )
        root_hint = root
        alpha_new = 0.5 * alpha_val + 0.5 * root
        change = max(abs(mu_new - mu), abs(sigma_new - sigma), abs(alpha_new - alpha_val))
        mu, sigma, alpha_val = mu_new, sigma_new, alpha_new
        if change < config.tol:
            converged = True
            break

    return FitResult(
        params=EpdParams(mu, sigma, alpha_val),
        converged=converged,
        iterations=iterations,
        estimated_alpha=True,
        family=score,
    )


def default_search_bounds(data) -> tuple[tuple[float, float], ...]:
    """Data-driven search box for the objective maximizers."""
    data = np.asarray(data, dtype=float)
    lo, hi = float(np.min(data)), float(np.max(data))
    spread = hi - lo
    if spread <= 0.0:
        raise DegenerateDataError("all observations are identical")
    return (
        (lo - spread, hi + spread),
        (1e-2, 10.0 * spread),
        (0.1, 20.0),
    )


def fit_objective(
    data,
    mode: ObjectiveMode,
    seed: int = 0,
    bounds: Sequence[tuple[float, float]] | None = None,
    population: int = 50,
    generations: int = 200,
    do_polish: bool = True,
) -> FitResult:
    """Maximize the chosen objective over (mu, sigma, alpha).

    Runs the genetic optimizer over the search box (data-driven by
    default), seeding it with robust starting points, then refines the
    best point with the simplex polish.
    """
    data = _as_clean_array(data)
    if data.size < 4:
        raise DegenerateDataError("objective fits need at least four observations")
    if bounds is None:
        bounds = default_search_bounds(data)
    mu0, sigma0 = initial_values(data)
    seeds = [
        np.array([mu0, sigma0, 2.0]),
        np.array([mu0, sigma0, 1.2]),
        np.array([float(np.mean(data)), float(np.std(data)), 3.0]),
    ]

    f = functools.partial(objective_values, mode, data)
    cfg = GaConfig(
        bounds=tuple((float(a), float(b)) for a, b in bounds),
        population=population,
        generations=generations,
        seed=seed,
    )
    ga = maximize(f, cfg, seed_points=seeds)
    point, value = ga.best_point, ga.best_value
    if do_polish:
        point, value = polish(f, point, cfg.bounds)

    return FitResult(
        params=EpdParams(float(point[0]), float(point[1]), float(point[2])),
        converged=True,
        iterations=generations,
        estimated_alpha=True,
        family=mode,
        objective_value=float(value),
        ga_history=ga.history,
    )
