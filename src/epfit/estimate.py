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
scale equations are written.  A sweep computes those density weights
once and uses them in both w_i and D.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

import numpy as np

from .epd import EpdParams, _deformed, _log_norm_const
from .optimize import _GENERATIONS, maximize, polish
from .scores import _ZERO_TOL, ScoreFamily, density_weight, ee_weight, likelihood_weight
# the shape residual alone calls digamma by this name: perfbench counts
# its calls as residual evaluations
from .special_fn import digamma, digamma as _digamma, trigamma

__all__ = [
    "DegenerateDataError",
    "AlphaRootError",
    "FitResult",
    "initial_values",
    "fit_ee_location_scale",
    "fit_ee_alpha",
    "fit_objective",
    "objective_value",
    "objective_values",
]

_SIGMA_FLOOR = 1e-6
_ALPHA_BRACKET = (0.05, 50.0)
# the shape root is returned once its bracket is this narrow, relative
# to the root
_ALPHA_RTOL = 1e-13
# the shape iteration approaches from the Laplace side so it locks onto
# the first (central) solution of the shape equation
_ALPHA_START = 1.0
# iteration budget of the EE solvers, and the parameter change below
# which they stop: tight, so that the summed score vector at the
# returned point is negligible even for large samples
_MAX_ITER = 500
_TOL = 1e-11
# shape-estimating fits: plain map steps before the Anderson
# extrapolation starts, and the number of map outputs it combines
_WARMUP = 40
_DEPTH = 5
# largest max |sum psi| of a shape-estimating fit reported as converged
_STATIONARITY_TOL = 1e-6
# steps below _TOL without that certificate that end the fit at a
# fixed point of its map that is not stationary
_SETTLE = 30
# fixed-shape fits: sweeps the Anderson extrapolation combines, the
# least shape at which it runs for the likelihood families, and how
# many plain steps from the plain output an extrapolant may lie
_FIXED_DEPTH = 3
_ACCELERATED_SHAPE = 1.5
_REACH = 4.0


class DegenerateDataError(ValueError):
    """All EE weights vanished or the scale collapsed."""


class AlphaRootError(RuntimeError):
    """The shape EE has no root in the admissible bracket."""


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


def objective_values(family: ScoreFamily, data, points) -> np.ndarray:
    """Summed log-likelihood of the family at each point.

    The plain score gives the log-likelihood, the q-weighted score its
    q-deformed log and the distorted score log(beta + f); the Huber and
    combined scores derive from no likelihood and raise TypeError.
    ``points`` is an (m, 3) array of (mu, sigma, alpha) rows; the result
    has one value per row, -inf where the row is not an EP parameter
    triple (mu finite, sigma and alpha positive and finite).  All rows
    are evaluated together as (m, n) arrays, with the same elementwise
    operations as the single-point densities in ``epd``, so a row's
    value is bit-identical to its single-point objective and does not
    depend on the other rows.
    """
    return _objective(family, data)(points)


def _objective(family: ScoreFamily, data):
    """``objective_values`` of the family on ``data`` as a function of
    the points alone, set up once for the many calls of one fit."""
    deformation = getattr(family, "likelihood", None)
    if deformation is None:
        raise TypeError(f"no likelihood objective for {family!r}")
    q, beta = deformation
    data = np.asarray(data, dtype=float)
    one_point = np.empty_like(data)
    log, lgamma, inf = math.log, math.lgamma, math.inf

    def values(points):
        points = np.asarray(points, dtype=float)
        rows = points.tolist()
        # per valid row: its index, its log prefactor (epd._log_norm_const
        # inlined), and the shapes 0.5 and 2 kept for the exact pass below
        keep, log_c, exact = [], [], []
        for k, (mu, sigma, alpha) in enumerate(rows):
            if -inf < mu < inf and 0.0 < sigma < inf and 0.0 < alpha < inf:
                if alpha == 0.5 or alpha == 2.0:
                    exact.append((len(keep), alpha))
                keep.append(k)
                log_c.append(log(alpha) - log(2.0 * sigma) - lgamma(1.0 / alpha))
        if len(keep) < len(rows):
            out = np.full(len(rows), -np.inf)
            if keep:
                out[keep] = values(points[keep])
            return out
        if len(rows) == 1:
            # one point (the simplex polish's steps): a scalar exponent, as
            # in the single-point densities, in a buffer kept for the fit
            [(mu, sigma, alpha)] = rows
            y = np.subtract(data, mu, out=one_point)
            np.abs(y, out=y)
            y /= sigma
            np.power(y, alpha, out=y)
            np.subtract(log_c[0], y, out=y)
            return np.array([_sum(_deformed(y, q, beta))])
        y = data - points[:, :1]
        np.abs(y, out=y)
        y /= points[:, 1:2]
        # numpy computes x**2 and x**0.5 by exact shortcuts when the
        # exponent is one scalar, as in the single-point densities, but not
        # when a column of exponents is broadcast: redo those rows one by
        # one (the only shapes that differ, pinned by the objective-route
        # tests)
        exact = [(k, np.power(y[k], alpha)) for k, alpha in exact]
        np.power(y, points[:, 2:], out=y)
        for k, row in exact:
            y[k] = row
        np.subtract(np.array(log_c)[:, None], y, out=y)
        return _sum(_deformed(y, q, beta), axis=1)

    return values


def objective_value(family: ScoreFamily, data: np.ndarray, p: EpdParams) -> float:
    """Summed log-likelihood of the family at one point."""
    return float(objective_values(family, data, np.array([[p.mu, p.sigma, p.alpha]]))[0])


def _median(a: np.ndarray) -> float:
    """np.median of a non-empty array, bit for bit, without its
    wrapper: partition at the middle (and at the end, where a NaN
    would sort) and average the middle pair as np.mean does, summing
    from 0.0 (so -0.0 comes out as 0.0)."""
    a = a.ravel()
    half = a.size // 2
    if a.size % 2:
        part = np.partition(a, (half, -1))
        mid = part[half] + 0.0
    else:
        part = np.partition(a, (half - 1, half, -1))
        mid = (part[half - 1] + part[half] + 0.0) / 2
    return float("nan") if np.isnan(part[-1]) else float(mid)


def initial_values(data) -> tuple[float, float]:
    """Median and median absolute deviation as starting values.

    A collapsed MAD is replaced by a 1e-6 floor so the first
    standardization is well defined.
    """
    data = np.asarray(data, dtype=float)
    if data.size < 1:
        raise ValueError("data must be non-empty")
    mu0 = _median(data)
    sigma0 = _median(np.abs(data - mu0))
    if sigma0 <= 0.0:
        sigma0 = _SIGMA_FLOOR
    return mu0, sigma0


def _as_clean_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size < 2:
        raise DegenerateDataError("need at least two observations")
    if not np.isfinite(arr).all():
        raise DegenerateDataError("data contain non-finite values")
    if arr.min() == arr.max():
        raise DegenerateDataError("all observations are identical")
    return arr


def _resolve_alpha(score: ScoreFamily, alpha: float | None) -> float:
    if alpha is not None:
        if not alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        return float(alpha)
    if score.shapes is not None:
        return score.shapes.alpha2
    raise ValueError("a scalar shape value is required for this score family")


# ndarray.sum without its Python wrapper: the same pairwise sum
_sum = np.add.reduce


def _ee_sweep(
    data: np.ndarray, score: ScoreFamily, p: EpdParams, damp: float
) -> tuple[float, float]:
    # the weighted families' density weights enter both the EE weights
    # and the scale denominator: computed once, used twice
    dw = density_weight(score, data, p) if score.density_weighted else None
    w = ee_weight(score, data, p, density=dw)
    sw = float(_sum(w))
    if not math.isfinite(sw) or sw <= 0.0:
        raise DegenerateDataError("estimating-equation weights vanished")
    mu_new = float(_sum(w * data) / sw)
    denom = float(len(data)) if dw is None else float(_sum(dw))
    if not math.isfinite(denom) or denom <= 0.0:
        raise DegenerateDataError("scale-equation denominator vanished")
    r = data - mu_new
    r *= r
    r *= w
    s2 = float(_sum(r) / denom)
    if not math.isfinite(s2):
        # a far outlier's squared residual overflows: weighting the
        # residual before squaring it keeps a zero weight's term at zero
        d = data - mu_new
        s2 = float(_sum(w * d * d) / denom)
        if not math.isfinite(s2):
            raise DegenerateDataError("scale update overflowed")
    if s2 <= 0.0:
        raise DegenerateDataError("scale update collapsed to zero")
    sigma_new = math.sqrt(s2)
    if damp < 1.0:
        # relaxation keeps the reweighting maps contractive for steep
        # shapes: the log-scale map has slope 1 - alpha/2, so mixing
        # with weight 2/alpha flattens it near the fixed point
        mu_new = (1.0 - damp) * p.mu + damp * mu_new
        sigma_new = math.exp((1.0 - damp) * math.log(p.sigma) + damp * math.log(sigma_new))
    return mu_new, sigma_new


class _LikelihoodKernel:
    """The (q, beta)-deformed likelihood on one sample at one (mu, sigma),
    differentiated in (mu, sigma, alpha) as a function of the shape: a
    call is the shape residual, ``gradient`` the per-point gradient w g
    and ``hessian`` the summed Hessian (README, Convergence of EE fits).
    Powers of |y| are exp(expo log|y|).  A |y| below 1e-12 is an exact
    zero, where (mu, mu) is not clamped but the limit of the point's term:
    -inf for 1 < alpha < 2, nan at alpha = 1 and inf below.  A point
    whose weight is exactly 0 adds 0.  The caller sets the floating-point
    state."""

    def __init__(self, data, mu, sigma, q, beta):
        self.y = (np.asarray(data, dtype=float) - mu) / sigma
        ay = np.abs(self.y)
        self.zero = ay < _ZERO_TOL
        self.any_zero = bool(self.zero.any())
        self.log_y = np.log(np.where(self.zero, 1.0, ay))
        self.sigma, self.q = sigma, q
        self.weight = likelihood_weight(q, beta)

    def _power(self, expo: float, at_zero: float) -> np.ndarray:
        """|y|^expo, and ``at_zero`` where |y| is below the zero tolerance."""
        out = np.exp(expo * self.log_y)
        return np.where(self.zero, at_zero, out) if self.any_zero else out

    def __call__(self, alpha: float) -> float:
        # near-zero residuals: |y|^alpha -> 0 and the log term vanishes,
        # but the point still carries its density weight below
        pow_a = self._power(alpha, 0.0)
        pow_log = pow_a * self.log_y
        if self.weight is not None:
            w = self.weight(_log_norm_const(self.sigma, alpha) - pow_a)
            sw = float(_sum(w))
            if sw <= 0.0:
                raise DegenerateDataError("shape-equation weights vanished")
            contrib = w * pow_log
            total = _sum(contrib)
            if not math.isfinite(total):
                # overflowing residual powers carry vanishing weights;
                # their weighted contribution tends to zero
                total = _sum(np.where(np.isfinite(contrib), contrib, 0.0))
            mean_pl = float(total / sw)
        else:
            mean_pl = float(_sum(pow_log)) / self.log_y.size
        return 1.0 / alpha + digamma(1.0 / alpha) / alpha**2 - mean_pl

    def _log_density_gradient(self, alpha: float):
        """g per point, w (1.0 for the plain likelihood) and |y|^alpha."""
        pow_a = self._power(alpha, 0.0)
        g = np.stack([
            (alpha / self.sigma) * self._power(alpha - 1.0, float(alpha == 1.0)) * np.sign(self.y),
            (alpha * pow_a - 1.0) / self.sigma,
            1.0 / alpha + _digamma(1.0 / alpha) / alpha**2 - pow_a * self.log_y,
        ])
        w = 1.0 if self.weight is None else self.weight(_log_norm_const(self.sigma, alpha) - pow_a)
        return g, w, pow_a

    def gradient(self, alpha: float) -> np.ndarray:
        g, w, _ = self._log_density_gradient(alpha)
        return np.where(w == 0.0, 0.0, w * g)

    def hessian(self, alpha: float) -> np.ndarray:
        """sum w (c g g' + grad^2 log f), c = 0, 1 - q and 1 - w for the
        plain, q-weighted and distorted families (grad w = c w g)."""
        g, w, pow_a = self._log_density_gradient(alpha)
        sigma, log_y, inv = self.sigma, self.log_y, 1.0 / alpha
        singular = math.inf if alpha < 2.0 else float(alpha == 2.0)
        mu_mu = -alpha * (alpha - 1.0) / sigma**2 * self._power(alpha - 2.0, singular)
        mu_sigma = -alpha / sigma * g[0]
        mu_alpha = (inv + log_y) * g[0]
        sigma_sigma = (1.0 - alpha * (1.0 + alpha) * pow_a) / sigma**2
        sigma_alpha = pow_a * (1.0 + alpha * log_y) / sigma
        alpha_alpha = (-(inv**2) - 2.0 * _digamma(inv) * inv**3
                       - trigamma(inv) * inv**4 - pow_a * log_y**2)
        per_point = np.array([[mu_mu, mu_sigma, mu_alpha],
                              [mu_sigma, sigma_sigma, sigma_alpha],
                              [mu_alpha, sigma_alpha, alpha_alpha]])
        if self.weight is not None:
            # g_j g_k before the factor, so the matrix is exactly symmetric
            per_point += (1.0 - (self.q if self.q != 1.0 else w)) * (g[:, None] * g[None, :])
        return _sum(np.where(w == 0.0, 0.0, w * per_point), axis=-1)


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
    hint: float | None = None,
) -> float:
    """Solve the shape estimating equation at fixed (mu, sigma).

    Root-finds the residual of the shape equation (equivalently, the
    shape derivative of the chosen objective) by Brent's bracketed
    method in the shape bracket (0.05, 50).  Without a hint it scans 40
    geometric steps of the bracket and returns the root in the first
    step that changes sign, the smallest one the scan resolves, so the
    iteration locks onto the central solution rather than a degenerate
    high-shape one.  With a ``hint`` inside the bracket it first tries
    [hint/1.6, 1.6 hint], then that bracket widened by the same factor,
    up to seven times, and returns Brent's root in the first of those
    brackets that changes sign, which need not be the smallest root;
    only when none does it fall back to the scan.  q = 1, beta = 0 is
    the plain-likelihood equation; q < 1 and beta > 0 select the
    weighted variants.
    """
    data = _as_clean_array(data)
    lo, hi = _ALPHA_BRACKET
    g = _LikelihoodKernel(data, current.mu, current.sigma, q, beta)
    with np.errstate(over="ignore", invalid="ignore"):
        if hint is not None and lo < hint < hi:
            # expand geometrically around the previous root before scanning,
            # evaluating an end only when it moved (not once clipped)
            a = b = hint
            for _ in range(8):
                if a > lo:
                    a = max(lo, a / 1.6)
                    fa = g(a)
                if b < hi:
                    b = min(hi, b * 1.6)
                    fb = g(b)
                if fa * fb <= 0.0:
                    return _brent(g, a, b, fa, fb)

        grid = np.geomspace(lo, hi, 40)
        vals = [g(a) for a in grid]
        for i in range(len(grid) - 1):
            if vals[i] == 0.0:
                return float(grid[i])
            if vals[i] * vals[i + 1] < 0.0:
                return _brent(g, float(grid[i]), float(grid[i + 1]), vals[i], vals[i + 1])
        raise AlphaRootError(f"no shape-equation root in ({lo}, {hi})")


def _sweep_extrapolant(history) -> tuple[float, float] | None:
    """Type-II Anderson extrapolant of the fixed-shape sweep from its
    last two or three (mu, sigma, swept mu, swept sigma) rows.

    The residuals are the sweep steps.  With three rows their two
    differences span the (mu, sigma) plane, and the depth-2 mixing
    coefficients solve that 2x2 system by Cramer's rule; otherwise, or
    where the differences are parallel, the depth-1 coefficient is the
    least-squares fit to the last difference.  Only arithmetic, so a
    batched fit can repeat it row by row.  None where the residual did
    not change.
    """
    row0 = history[0] if len(history) == 3 else None
    mu1, sigma1, g_mu1, g_sigma1 = history[-2]
    mu2, sigma2, g_mu, g_sigma = history[-1]
    # the last two residuals, their difference and the outputs' difference
    f1_mu, f1_sigma = g_mu1 - mu1, g_sigma1 - sigma1
    f_mu, f_sigma = g_mu - mu2, g_sigma - sigma2
    a_mu, a_sigma = f_mu - f1_mu, f_sigma - f1_sigma
    ga_mu, ga_sigma = g_mu - g_mu1, g_sigma - g_sigma1
    if row0 is not None:
        mu0, sigma0, g_mu0, g_sigma0 = row0
        b_mu, b_sigma = f1_mu - (g_mu0 - mu0), f1_sigma - (g_sigma0 - sigma0)
        det = a_mu * b_sigma - b_mu * a_sigma
        if det != 0.0:
            ca = (f_mu * b_sigma - b_mu * f_sigma) / det
            cb = (a_mu * f_sigma - f_mu * a_sigma) / det
            return (g_mu - ca * ga_mu - cb * (g_mu1 - g_mu0),
                    g_sigma - ca * ga_sigma - cb * (g_sigma1 - g_sigma0))
    norm = a_mu * a_mu + a_sigma * a_sigma
    if norm == 0.0:
        return None
    c = (a_mu * f_mu + a_sigma * f_sigma) / norm
    return g_mu - c * ga_mu, g_sigma - c * ga_sigma


def _irls(data: np.ndarray, score: ScoreFamily, alpha: float) -> tuple[float, float, int, bool]:
    """Reweighted location/scale iteration at a fixed shape, Anderson
    accelerated where the sweep tolerates it (fit_ee_location_scale)."""
    mu, sigma = initial_values(data)
    floor = 1e-10 * max(sigma, _SIGMA_FLOOR)
    # the relaxation is for weights with the shape in them: Huber's have none
    if score.shapes is not None:
        shape_max = max(score.shapes.as_tuple())
    else:
        shape_max = alpha if score.likelihood is not None else 0.0
    damp = min(1.0, 2.0 / shape_max) if shape_max > 2.5 else 1.0
    accelerate = damp == 1.0 and score.shapes is None and (
        score.likelihood is None or alpha >= _ACCELERATED_SHAPE)
    # (mu, sigma, swept mu, swept sigma) of the last sweeps
    history: collections.deque = collections.deque(maxlen=_FIXED_DEPTH)
    # while an extrapolant is swept: the plain output it replaced and
    # the length of that plain step
    fallback: tuple | None = None
    for iterations in range(1, _MAX_ITER + 1):
        try:
            mu_new, sigma_new = _ee_sweep(data, score, EpdParams(mu, sigma, alpha), damp)
            if sigma_new < floor:
                raise DegenerateDataError("scale collapsed toward a point mass")
        except DegenerateDataError:
            if fallback is None:
                raise
            (mu, sigma, _), fallback = fallback, None
            history.clear()
            continue
        d_mu, d_sigma = mu_new - mu, sigma_new - sigma
        if max(abs(d_mu), abs(d_sigma)) < _TOL:
            return mu_new, sigma_new, iterations, True
        if not accelerate:
            mu, sigma = mu_new, sigma_new
            continue
        step = math.sqrt(d_mu * d_mu + d_sigma * d_sigma)
        if fallback is not None and step > fallback[2]:
            (mu, sigma, _), fallback = fallback, None
            history.clear()
            continue
        history.append((mu, sigma, mu_new, sigma_new))
        mu, sigma, fallback = mu_new, sigma_new, None
        trial = _sweep_extrapolant(history) if len(history) > 1 else None
        if trial is not None:
            # trust region: within a factor 2 of the output's scale and
            # _REACH plain steps of the output
            e_mu, e_sigma = trial[0] - mu_new, trial[1] - sigma_new
            if (0.5 * sigma_new < trial[1] < 2.0 * sigma_new
                    and math.sqrt(e_mu * e_mu + e_sigma * e_sigma) <= _REACH * step):
                (mu, sigma), fallback = trial, (mu_new, sigma_new, step)
    if fallback is not None:
        mu, sigma, _ = fallback
    return mu, sigma, _MAX_ITER, False


def _shape_map(
    data: np.ndarray, score: ScoreFamily, q: float, beta: float,
    point: tuple[float, float, float], hint: float | None,
) -> tuple[tuple[float, float, float], float]:
    """One step of the shape-estimating EE map: a (mu, sigma) sweep,
    then half a step of the shape toward the smallest root of the shape
    equation at the swept point.  Returns the new point and the root."""
    mu, sigma, alpha = point
    # only the extreme-shape safety relaxation here: the half-damped
    # shape update already tempers the joint trajectory
    damp = min(1.0, 2.0 / alpha) if alpha > 3.8 else 1.0
    mu_new, sigma_new = _ee_sweep(data, score, EpdParams(mu, sigma, alpha), damp)
    root = fit_ee_alpha(data, EpdParams(mu_new, sigma_new, alpha), q=q, beta=beta, hint=hint)
    return (mu_new, sigma_new, 0.5 * alpha + 0.5 * root), root


def _anderson(history) -> tuple[float, float, float] | None:
    """Type-II Anderson extrapolant of the map (Walker & Ni, SIAM J.
    Numer. Anal. 49, 2011) from (point, map output) pairs in (mu,
    log sigma, alpha), with residuals in (dmu/sigma, dlog sigma,
    dalpha).  None where it is not finite or its shape leaves the
    root bracket."""
    x, g = np.array(history).transpose(1, 0, 2)
    f = (g - x) * np.array([math.exp(-g[-1, 1]), 1.0, 1.0])
    gamma = np.linalg.lstsq(np.diff(f, axis=0).T, f[-1], rcond=None)[0]
    mu, log_sigma, alpha = g[-1] - np.diff(g, axis=0).T @ gamma
    lo, hi = _ALPHA_BRACKET
    if not (lo < alpha < hi and math.isfinite(mu) and abs(log_sigma) < 700.0):
        return None
    return float(mu), math.exp(log_sigma), float(alpha)


def _stationarity(data: np.ndarray, score: ScoreFamily, p: EpdParams) -> float:
    """max |sum psi| at a shape-estimating fit.

    The likelihood families sum the gradient of their objective; the
    Huber score sums its own location and scale equations and the plain
    shape equation it alternates with.
    """
    kernel = _LikelihoodKernel(data, p.mu, p.sigma, *(score.likelihood or (1.0, 0.0)))
    sums = kernel.gradient(p.alpha).sum(axis=1)
    if score.likelihood is None:
        s = score.score(data, p)
        y = (data - p.mu) / p.sigma
        sums[:2] = s.sum() / p.sigma, (s * y - 1.0).sum() / p.sigma
    return float(np.abs(sums).max())


def _shape_iteration(data: np.ndarray, score: ScoreFamily,
                     alpha: float | None) -> tuple[float, float, float, int, bool]:
    """The shape-estimating map iteration (fit_ee_location_scale) from
    the start shape ``alpha``: (mu, sigma, alpha, iterations, converged)."""
    # the Huber score alternates with the plain-likelihood shape equation
    q, beta = score.likelihood or (1.0, 0.0)
    point = (*initial_values(data), _ALPHA_START if alpha is None else _resolve_alpha(score, alpha))
    converged = False
    iterations = 0
    root_hint: float | None = None
    # (point, map output) pairs in (mu, log sigma, alpha)
    history: collections.deque = collections.deque(maxlen=_DEPTH)
    # while an extrapolant is evaluated: the plain output it replaced
    # and the length of that plain step
    fallback: tuple | None = None
    settled = 0
    # the last map step in (dmu/sigma, dlog sigma, dalpha), and the
    # number of steps since one receded (below)
    last, calm = (0.0, 0.0, 0.0), 0
    for iterations in range(1, _MAX_ITER + 1):
        try:
            out, root = _shape_map(data, score, q, beta, point, root_hint)
        except (DegenerateDataError, AlphaRootError):
            if fallback is None:
                raise
            point, fallback = fallback[0], None
            history.clear()
            continue
        change = max(abs(out[0] - point[0]), abs(out[1] - point[1]), abs(out[2] - point[2]))
        if change < _TOL:
            converged = _stationarity(data, score, EpdParams(*out)) <= _STATIONARITY_TOL
            settled += not converged
            if converged or settled == _SETTLE:
                point, fallback = out, None
                break
        d = ((out[0] - point[0]) / point[1], math.log(out[1] / point[1]), out[2] - point[2])
        step = math.hypot(*d)
        if fallback is not None and step > fallback[1]:
            point, fallback = fallback[0], None
            history.clear()
            continue
        root_hint = root
        history.append(((point[0], math.log(point[1]), point[2]),
                        (out[0], math.log(out[1]), out[2])))
        # a longer step the same way as the last one means the map is
        # pushing away from a fixed point, toward which an extrapolant
        # would pull the fit: extrapolate only from a history of steps
        # that did not
        receding = step > math.hypot(*last) and sum(a * b for a, b in zip(d, last)) > 0.0
        calm = 0 if receding else calm + 1
        point, fallback, last = out, None, d
        if iterations >= _WARMUP and len(history) > 1 and calm >= _DEPTH - 1:
            trial = _anderson(history)
            if trial is not None:
                point, fallback = trial, (out, step)

    mu, sigma, alpha = point if fallback is None else fallback[0]
    return mu, sigma, alpha, iterations, converged


def fit_ee_location_scale(
    data,
    score: ScoreFamily,
    alpha: float | None = None,
    estimate_alpha: bool = False,
) -> FitResult:
    """Iteratively reweighted solution of the location/scale EEs.

    ``alpha`` is the EP shape used by the plain, q-weighted and
    distorted families (the combined families take their shapes from
    their triple, and record the center shape).

    At a fixed shape each iteration is one (mu, sigma) sweep, relaxed
    toward the previous point for shapes above 2.5 unless the score is
    Huber, whose weights have no shape.  Where no sweep is relaxed and
    the score is Huber, or plain, q-weighted or distorted at a shape of
    at least 1.5, the next point is the type-II Anderson extrapolant of
    the last two or three sweeps (Walker & Ni, SIAM J. Numer. Anal. 49,
    2011), unless its scale leaves (sigma/2, 2 sigma) of the sweep
    output or it lies more than four sweep steps from that output.
    When the sweep at an extrapolant fails, collapses the scale or steps
    further than the plain step it replaced, the fit goes back to that
    plain output and starts a new history.  A sweep that changes neither
    parameter by 1e-11 ends the fit with ``converged=True`` and its
    output; otherwise the fit stops after 500 sweeps (``iterations``
    counts sweeps, including any that were undone).

    With ``estimate_alpha`` each iteration is one step of a map: a
    location/scale sweep, then half a step of the shape toward the
    smallest root of the shape equation at the swept point.  After 40
    plain steps, which settle the iteration in the central basin, the
    next point is the Anderson extrapolant of the last five map outputs,
    once four steps in a row have not run further the same way as the
    step before (the map is not pushing away from a fixed point, which
    the extrapolant would head for).  An extrapolant is dropped when
    its shape leaves the root bracket; when its step is longer than the
    plain step it replaced, or its sweep or root solve fails, the fit
    goes back to that plain output and starts a new history.

    A step that changes no parameter by more than 1e-11 ends the fit
    with ``converged=True`` when the summed score vector at its output
    (location, scale and shape; for Huber, its own location and scale
    equations) is at most 1e-6 in every component.  Contaminated
    samples can have a fixed point of the map with the location on an
    observation, a cusp of the scores at shapes below 2, where the
    summed scores do not vanish.  After 30 small steps that do not
    certify, the fit returns its last map output flagged
    ``converged=False``, as it does when the 500-iteration budget runs
    out.
    """
    data = _as_clean_array(data)
    if estimate_alpha and score.shapes is not None:
        raise ValueError("shape estimation is undefined for the combined families")

    # a far outlier overflows its squared residual, and its density
    # power for the weighted families; _ee_sweep then recomputes the
    # scale sum so that a zero weight's term is zero, and the
    # stationarity check scores a zero-weight point zero
    with np.errstate(over="ignore", invalid="ignore"):
        if estimate_alpha:
            mu, sigma, alpha_val, iterations, converged = _shape_iteration(data, score, alpha)
        else:
            alpha_val = _resolve_alpha(score, alpha)
            mu, sigma, iterations, converged = _irls(data, score, alpha_val)
    return FitResult(
        params=EpdParams(mu, sigma, alpha_val),
        converged=converged,
        iterations=iterations,
        estimated_alpha=estimate_alpha,
        family=score,
    )


def _search_bounds(data: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Search box of the objective maximizers, from data that are not
    all identical; the scale's floor shrinks with a spread below 1."""
    lo, hi = float(np.min(data)), float(np.max(data))
    spread = hi - lo
    if not math.isfinite(spread):
        raise DegenerateDataError(f"the spread of the data, {spread}, is not finite")
    return (
        (lo - spread, hi + spread),
        (1e-2 * min(1.0, spread), 10.0 * spread),
        (0.1, 20.0),
    )


def fit_objective(data, family: ScoreFamily, seed: int = 0) -> FitResult:
    """Maximize the family's log-likelihood over (mu, sigma, alpha).

    ``family`` is Plain, QWeighted or Distorted (see ``objective_values``).
    Runs the genetic optimizer over the search box spanned by the data,
    seeding it with robust starting points, then refines the best point
    with the simplex polish; ``iterations`` is the GA's 200 generations.
    """
    data = _as_clean_array(data)
    if data.size < 4:
        raise DegenerateDataError("objective fits need at least four observations")
    bounds = _search_bounds(data)
    mu0, sigma0 = initial_values(data)
    seeds = [
        np.array([mu0, sigma0, 2.0]),
        np.array([mu0, sigma0, 1.2]),
        np.array([float(np.mean(data)), float(np.std(data)), 3.0]),
    ]

    f = _objective(family, data)
    point, _ = maximize(f, bounds, seed, seed_points=seeds)
    point, value = polish(f, point, bounds)

    return FitResult(
        params=EpdParams(float(point[0]), float(point[1]), float(point[2])),
        converged=True,
        iterations=_GENERATIONS,
        estimated_alpha=True,
        family=family,
        objective_value=float(value),
    )
