"""Model-selection tools: volume, score-based information criteria,
mean absolute error, and the tuning-constant grid search.

The absolute score sum replaces the log-likelihood inside the criteria
(the signed sum is zero at the fit), and the expected sorted mean
absolute error against artificial samples from the fit, computed
exactly, is the primary selection rule, with volume and the criteria as
tie-breakers.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .epd import EpdParams, _standard_cdf, make_rng, sample
from .estimate import FitResult, fit_ee_location_scale
from .fisher import FisherMatrix, fisher_for_family, psd_check, variances
from .scores import score
from .special_fn import gamma_fn, log_gamma, regularized_gamma

__all__ = [
    "CandidateRecord",
    "SelectionReport",
    "volume",
    "ic_scores",
    "mae",
    "artificial_sample",
    "expected_mae",
    "evaluate_fit",
    "tune",
]


def volume(matrix: FisherMatrix, n: int) -> float:
    """Ellipsoid volume (2 pi v / n)^(d/2) / Gamma(d/2+1) / sqrt(det F),
    with v the rank of the matrix and d its dimension; a non-positive
    determinant or a non-finite entry reports an infinite volume.
    """
    if not np.all(np.isfinite(matrix.entries)):
        return math.inf
    d = matrix.dim
    v = int(np.linalg.matrix_rank(matrix.entries))
    det = float(np.linalg.det(matrix.entries))
    if det <= 0.0 or not math.isfinite(det):
        return math.inf
    return (2.0 * math.pi * v / n) ** (d / 2.0) / gamma_fn(d / 2.0 + 1.0) / math.sqrt(det)


def ic_scores(data, params: EpdParams, family, p: int,
              n: int) -> tuple[float, float | None, float]:
    """Information criteria 2 sum|S| + penalty for penalties 2p,
    2pn/(n-p-1) and p log n; the corrected one is None unless n > p + 1."""
    if p < 1:
        raise ValueError("p must be at least 1")
    base = 2.0 * float(np.sum(np.abs(score(family, np.asarray(data, dtype=float), params))))
    aic = base + 2.0 * p
    caic = base + 2.0 * p * n / (n - p - 1.0) if n > p + 1 else None
    bic = base + p * math.log(n)
    return (aic, caic, bic)


def mae(real_data, artificial_data) -> float:
    """Mean absolute difference between the two sorted samples."""
    real = np.sort(np.asarray(real_data, dtype=float))
    art = np.sort(np.asarray(artificial_data, dtype=float))
    if real.shape != art.shape:
        raise ValueError(f"length mismatch: {real.size} vs {art.size}")
    return float(np.mean(np.abs(real - art)))


def _component_shapes(params: EpdParams, family) -> tuple[float, float, float]:
    """Shapes of the three artificial-sample components: the combined
    families' branch shapes, else the fitted shape throughout."""
    if family.shapes is None:
        return (params.alpha, params.alpha, params.alpha)
    return family.shapes.as_tuple()


def artificial_sample(params: EpdParams, family, sizes: tuple[int, int, int], rng) -> np.ndarray:
    """Replicated sample from the fitted parameters.

    The three components share the fitted location and scale; the
    combined families give each component its own branch shape, the
    others use the fitted shape throughout.
    """
    rng = make_rng(rng)
    parts = [
        sample(EpdParams(params.mu, params.sigma, a), n, rng)
        for a, n in zip(_component_shapes(params, family), sizes)
        if n > 0
    ]
    return np.concatenate(parts)


def _default_sizes(n: int) -> tuple[int, int, int]:
    return (7, n - 9, 2) if n > 9 else (0, n, 0)


def _component_sizes(sizes, n: int) -> tuple[int, int, int]:
    """``sizes``, or the default for a sample of n when None; ValueError
    unless they are three non-negative integers summing to n."""
    sizes = _default_sizes(n) if sizes is None else tuple(sizes)
    if not (len(sizes) == 3 and sum(sizes) == n
            and all(isinstance(m, (int, np.integer)) and m >= 0 for m in sizes)):
        raise ValueError(f"component sizes {sizes} must be three non-negative integers "
                         f"summing to the sample size {n}")
    return sizes


# Gauss-Legendre 6-point rule on [-1, 1]
_GL_NODES = np.array([
    -0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
    0.2386191860831969, 0.6612093864662645, 0.9324695142031519,
])
_GL_WEIGHTS = np.array([
    0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
    0.46791393457269104, 0.3607615730481387, 0.17132449237917027,
])
# expected_mae also splits its panels where a component's |x - mu| /
# sigma raised to its shape crosses one of these, so that no panel
# holds more than one octave of a tail's exponential decay
_TAIL_BREAKS = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
# quadrature nodes per block of count probabilities (48 x (n + 1) values)
_NODE_BLOCK = 48
# floor on a probability before its logarithm: exp then gives an exact 0
_TINY = 1e-300


@functools.lru_cache(maxsize=32)
def _log_binomial(m: int) -> np.ndarray:
    """log C(m, j) for j = 0..m, read-only: every caller shares it."""
    out = np.array([math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)
                    for j in range(m + 1)])
    out.flags.writeable = False
    return out


def _binomial_pmf(prob: np.ndarray, m: int) -> np.ndarray:
    """Bin(m, p) probabilities of 0..m, one row per entry of ``prob``."""
    j = np.arange(m + 1)
    log_p = np.log(np.maximum(prob, _TINY))[:, None]
    log_q = np.log(np.maximum(1.0 - prob, _TINY))[:, None]
    return np.exp(_log_binomial(m) + j * log_p + (m - j) * log_q)


def _convolve_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise convolution: the law of the sum of two independent counts."""
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    out = np.zeros((a.shape[0], a.shape[1] + b.shape[1] - 1))
    for i in range(b.shape[1]):
        out[:, i:i + a.shape[1]] += b[:, i:i + 1] * a
    return out


def expected_mae(data, params: EpdParams, family,
                 sizes: tuple[int, int, int] | None = None) -> float:
    """Exact expected mean absolute error between the sorted data and a
    sorted artificial sample drawn from the fitted parameters.

    The artificial sample is the one ``artificial_sample`` draws: three
    components of ``sizes`` draws sharing the fitted location and scale,
    with the combined families' branch shapes, else the fitted shape
    throughout; ``sizes`` defaults to seven left and two right
    contamination draws around the bulk (all bulk below ten
    observations).

    With c the sorted data, k(x) the number of them at or below x and
    N(x) the number of artificial draws at or below x (a sum of
    binomial counts, one per distinct shape),

        E[MAE] = mu - mean(c) + (2/n) * integral of E[(N(x) - k(x))^+] dx.

    The integrand vanishes right of the largest observation and is
    E[N(x)] left of the smallest, integrated there in closed form.  In
    between, 6-point Gauss-Legendre panels run between consecutive
    observations, split at mu and at the tail break points.  This is the
    one-fit case of the pass ``tune`` makes over its whole grid.
    """
    c = np.sort(np.asarray(data, dtype=float))
    return _expected_maes(c, [(params, family)], _component_sizes(sizes, c.size))[0]


@dataclass
class _MaeTerms:
    """One fit's share of the expected MAE before the CDF pass."""

    comps: list  # (EpdParams with each distinct shape, its draw count)
    c0: float  # the smallest observation
    y0: float  # its standardized residual
    y: np.ndarray  # standardized panel nodes
    w: np.ndarray  # panel weights
    below: np.ndarray  # observations at or below each node's panel


def _mae_terms(c: np.ndarray, params: EpdParams, family, sizes) -> _MaeTerms:
    counts: dict[float, int] = {}
    for a, m in zip(_component_shapes(params, family), sizes):
        if m > 0:
            counts[a] = counts.get(a, 0) + m
    comps = [(EpdParams(params.mu, params.sigma, a), m) for a, m in counts.items()]

    breaks = np.concatenate([[params.mu]] + [
        params.mu + params.sigma * np.concatenate([-r, r])
        for r in (_TAIL_BREAKS ** (1.0 / p.alpha) for p, _ in comps)])
    edges = np.sort(np.concatenate([c, breaks[(breaks > c[0]) & (breaks < c[-1])]]))
    keep = edges[1:] > edges[:-1]
    lo, hi = edges[:-1][keep], edges[1:][keep]
    half = 0.5 * (hi - lo)[:, None]
    x = (0.5 * (hi + lo)[:, None] + half * _GL_NODES).ravel()
    w = (half * _GL_WEIGHTS).ravel()
    below = np.repeat(np.searchsorted(c, lo, side="right"), _GL_NODES.size)
    c0 = float(c[0])
    return _MaeTerms(comps, c0, (c0 - params.mu) / params.sigma,
                     (x - params.mu) / params.sigma, w, below)


def _left_integrals(terms: list) -> list[float]:
    """Each fit's integral of E[N(x)] left of the smallest observation t:
    the sum over its components of m times the integral of their CDF
    over (-inf, t],

        (t - mu) F(t) + sigma Gamma(2/alpha, u) / (2 Gamma(1/alpha)),

    with u = |y0|^alpha.  F(t) needs P and Q(1/alpha, u), the second
    term Q(2/alpha, u): the points of all fits meet the incomplete gamma
    function in one call.
    """
    points = [(t, p) for t in terms for p, _ in t.comps]
    # |y0|^alpha as a scalar power, as the one-point CDF computes it
    with np.errstate(over="ignore"):
        u = [float(np.abs(t.y0) ** p.alpha) for t, p in points]
    # P and Q at (1/alpha, u) and (2/alpha, u) of each point in turn
    lower, upper = regularized_gamma(
        np.array([k / p.alpha for _, p in points for k in (1.0, 2.0)]), np.repeat(u, 2))
    out, i = [], 0
    for t in terms:
        total = 0
        for p, m in t.comps:
            cdf_t = 0.5 * upper[i] if t.y0 < 0.0 else 0.5 + 0.5 * lower[i]
            ratio = math.exp(log_gamma(2.0 / p.alpha) - log_gamma(1.0 / p.alpha))
            total += m * float((t.c0 - p.mu) * cdf_t + 0.5 * p.sigma * upper[i + 1] * ratio)
            i += 2
        out.append(total)
    return out


def _mae_sum(c: np.ndarray, params: EpdParams, terms: _MaeTerms, probs, left: float) -> float:
    """The expected MAE from the CDF of each component at the nodes and
    the integral left of the smallest observation."""
    n = c.size
    inner = 0.0
    j = np.arange(n + 1)
    for s in range(0, terms.w.size, _NODE_BLOCK):
        block = slice(s, s + _NODE_BLOCK)
        pmf = functools.reduce(_convolve_rows, [
            _binomial_pmf(prob[block], m) for prob, (_, m) in zip(probs, terms.comps)])
        excess = np.maximum(j - terms.below[block, None], 0)
        inner += float(terms.w[block] @ np.sum(pmf * excess, axis=1))
    return params.mu - float(np.mean(c)) + 2.0 / n * (left + inner)


def _expected_maes(c: np.ndarray, fits: list, sizes) -> list[float]:
    """``expected_mae`` of each (params, family) pair of ``fits`` on the
    sorted data c.

    The nodes of all pairs meet the incomplete gamma function together,
    one call per distinct component shape, and their points left of the
    data in one more call, so its series and continued fraction loops
    run once per grid, not once per fit.  Each CDF value
    depends on its own node alone, so the result of every pair is the
    one it gets alone; the count probabilities and the sums stay per fit.
    """
    terms = [_mae_terms(c, params, family, sizes) for params, family in fits]
    by_shape: dict[float, list] = {}
    for t in terms:
        for p, _ in t.comps:
            by_shape.setdefault(p.alpha, []).append(t.y)
    cdfs = {a: iter(np.split(_standard_cdf(np.concatenate(ys), a),
                             np.cumsum([y.size for y in ys[:-1]])))
            for a, ys in by_shape.items()}
    return [_mae_sum(c, params, t, [next(cdfs[p.alpha]) for p, _ in t.comps], left)
            for (params, _), t, left in zip(fits, terms, _left_integrals(terms))]


def evaluate_fit(data, fit: FitResult, fisher_method: str = "auto") -> FitResult:
    """Attach the information matrix with its semidefiniteness
    diagnostics, the variances, criteria and volume; ``tune`` does this
    for each candidate.

    The criteria count the shape when it was estimated.  The matrix
    covers it only for the likelihood families: a Huber fit with the
    shape estimated keeps its (mu, sigma) matrix.
    """
    data = np.asarray(data, dtype=float)
    n = len(data)
    p = 3 if fit.estimated_alpha else 2
    dim = 3 if fit.estimated_alpha and fit.family.likelihood is not None else 2
    matrix = fisher_for_family(fit.family, fit.params, n, dim=dim, method=fisher_method)
    psd_check(matrix)
    out = dataclasses.replace(fit)
    out.fisher = matrix
    out.variances = variances(matrix)
    out.ic = ic_scores(data, fit.params, fit.family, p, n)
    out.volume = volume(matrix, n)
    return out


@dataclass
class CandidateRecord:
    label: str
    tuning: dict
    fit: FitResult | None
    volume: float
    aic: float
    caic: float | None
    bic: float
    mae: float
    error: str | None = None


@dataclass
class SelectionReport:
    candidates: list
    chosen: int
    trace: str


def _label_of(candidate) -> str:
    name = type(candidate).__name__
    tc = candidate.tuning()
    if not tc:
        return name
    inner = ",".join(f"{k}={v:g}" for k, v in tc.items())
    return f"{name}({inner})"


def tune(
    data,
    candidates,
    alpha: float | None = None,
    sizes: tuple[int, int, int] | None = None,
) -> SelectionReport:
    """Grid search over tuning-constant candidates.

    Each candidate (a score family with its tuning constants baked in)
    is fitted by its estimating equations and gets its matrix, volume
    and criteria from ``evaluate_fit``.  Its mean absolute error is the
    exact expected sorted mean absolute error against artificial samples
    drawn from the fitted parameters (``expected_mae``), computed for the
    whole grid with one incomplete-gamma pass per distinct component
    shape.  A candidate whose fit, matrix or mean absolute error fails is
    recorded with its error.
    The smallest mean absolute error wins; candidates within 1% of it
    are re-ranked by volume and then the Bayesian-penalty criterion.
    Deterministic for a fixed candidate order: no random draws are made.
    """
    data = np.asarray(data, dtype=float)
    if not candidates:
        raise ValueError("candidate grid must be non-empty")
    sizes = _component_sizes(sizes, len(data))

    fits = []
    for cand in candidates:
        try:
            fits.append(fit_ee_location_scale(data, cand, alpha=alpha))
        except Exception as exc:  # candidate-level failure is data, not fatal
            fits.append(exc)
    c = np.sort(data)
    ok = {i: fit for i, fit in enumerate(fits) if not isinstance(fit, Exception)}
    # the grid makes one MAE pass; where it fails, each candidate is redone
    # on its own, so a failure stays with its own
    try:
        maes = dict(zip(ok, _expected_maes(c, [(f.params, f.family) for f in ok.values()], sizes)))
    except Exception:
        maes = {}
    records = []
    for i, (cand, fit) in enumerate(zip(candidates, fits)):
        if not isinstance(fit, Exception):
            try:
                fit = evaluate_fit(data, fit)
                mae = maes[i] if i in maes else _expected_maes(c, [(fit.params, cand)], sizes)[0]
            except Exception as exc:  # candidate-level failure is data, not fatal
                fit = exc
        if isinstance(fit, Exception):
            records.append(CandidateRecord(
                label=_label_of(cand), tuning=cand.tuning(), fit=None,
                volume=math.inf, aic=math.nan, caic=math.nan, bic=math.nan,
                mae=math.inf, error=f"{type(fit).__name__}: {fit}",
            ))
        else:
            records.append(CandidateRecord(
                label=_label_of(cand), tuning=cand.tuning(), fit=fit,
                volume=fit.volume, aic=fit.ic[0], caic=fit.ic[1], bic=fit.ic[2], mae=mae,
            ))

    usable = [r for r in records if r.error is None]
    if not usable:
        details = "; ".join(f"{r.label}: {r.error}" for r in records)
        raise RuntimeError(f"every candidate failed to fit ({details})")

    best_mae = min(r.mae for r in usable)
    near = [i for i, r in enumerate(records) if r.error is None and r.mae <= 1.01 * best_mae]
    chosen = min(near, key=lambda i: (records[i].volume, records[i].bic))
    if len(near) == 1:
        trace = f"chose {records[chosen].label}: smallest mean absolute error {best_mae:.6g}"
    else:
        trace = (
            f"chose {records[chosen].label} among {len(near)} candidates within 1% of "
            f"mean absolute error {best_mae:.6g}, breaking the tie by volume then the "
            f"Bayesian-penalty criterion"
        )
    return SelectionReport(candidates=records, chosen=chosen, trace=trace)
