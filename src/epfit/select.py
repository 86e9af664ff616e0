"""Model-selection tools: volume, score-based information criteria,
mean absolute error, and the tuning-constant grid search.

The absolute score sum replaces the log-likelihood inside the criteria
(the signed sum is zero at the fit), and the sorted mean absolute error
against replicated artificial samples is the primary selection rule,
with volume and the criteria as tie-breakers.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .epd import EpdParams, make_rng, sample
from .estimate import FitConfig, FitResult, fit_ee_location_scale
from .fisher import FisherMatrix, fisher_for_family, psd_check, variances
from .scores import score
from .special_fn import gamma_fn

__all__ = [
    "CandidateRecord",
    "SelectionReport",
    "volume",
    "ic_scores",
    "mae",
    "artificial_sample",
    "replicated_mae",
    "evaluate_fit",
    "tune",
]


def volume(matrix: FisherMatrix, n: int, v: int | None = None, d: int | None = None) -> float:
    """Ellipsoid volume (2 pi v / n)^(d/2) / Gamma(d/2+1) / sqrt(det F).

    v defaults to the rank of the matrix and d to its dimension; a
    non-positive determinant or a non-finite entry reports an infinite volume.
    """
    if not np.all(np.isfinite(matrix.entries)):
        return math.inf
    d = matrix.dim if d is None else d
    if v is None:
        v = int(np.linalg.matrix_rank(matrix.entries))
    det = float(np.linalg.det(matrix.entries))
    if det <= 0.0 or not math.isfinite(det):
        return math.inf
    return (2.0 * math.pi * v / n) ** (d / 2.0) / gamma_fn(d / 2.0 + 1.0) / math.sqrt(det)


def ic_scores(data, params: EpdParams, family, p: int, n: int) -> tuple[float, float, float]:
    """Information criteria 2 sum|S| + penalty for penalties 2p,
    2pn/(n-p-1) and p log n."""
    if p < 1:
        raise ValueError("p must be at least 1")
    if n <= p + 1:
        raise ValueError(f"corrected criterion needs n > p + 1 (n={n}, p={p})")
    base = 2.0 * float(np.sum(np.abs(score(family, np.asarray(data, dtype=float), params))))
    aic = base + 2.0 * p
    caic = base + 2.0 * p * n / (n - p - 1.0)
    bic = base + p * math.log(n)
    return (aic, caic, bic)


def mae(real_data, artificial_data) -> float:
    """Mean absolute difference between the two sorted samples."""
    real = np.sort(np.asarray(real_data, dtype=float))
    art = np.sort(np.asarray(artificial_data, dtype=float))
    if real.shape != art.shape:
        raise ValueError(f"length mismatch: {real.size} vs {art.size}")
    return float(np.mean(np.abs(real - art)))


def artificial_sample(params: EpdParams, family, sizes: tuple[int, int, int], rng) -> np.ndarray:
    """Replicated sample from the fitted parameters.

    The three components share the fitted location and scale; the
    combined families give each component its own branch shape, the
    others use the fitted shape throughout.
    """
    if family.shapes is None:
        shapes = (params.alpha, params.alpha, params.alpha)
    else:
        shapes = family.shapes.as_tuple()
    rng = make_rng(rng)
    parts = [
        sample(EpdParams(params.mu, params.sigma, a), n, rng)
        for a, n in zip(shapes, sizes)
        if n > 0
    ]
    return np.concatenate(parts)


def _default_sizes(n: int) -> tuple[int, int, int]:
    return (7, n - 9, 2) if n > 9 else (0, n, 0)


def replicated_mae(data, params: EpdParams, family, seed: int, spawn_keys,
                   sizes: tuple[int, int, int] | None = None) -> float:
    """Mean absolute error averaged over replicated artificial samples.

    One replication per spawn key, each drawn from the seed sequence of
    ``seed`` with that key; ``sizes`` defaults to seven left and two
    right contamination draws around the bulk (all bulk below ten
    observations).
    """
    data = np.asarray(data, dtype=float)
    if sizes is None:
        sizes = _default_sizes(len(data))
    maes = np.empty(len(spawn_keys))
    for i, key in enumerate(spawn_keys):
        rng = np.random.SeedSequence(entropy=seed, spawn_key=key)
        maes[i] = mae(data, artificial_sample(params, family, sizes, rng))
    return float(np.mean(maes))


def evaluate_fit(data, fit: FitResult, fisher_method: str = "auto") -> FitResult:
    """Attach the information matrix, variances, criteria and volume."""
    data = np.asarray(data, dtype=float)
    n = len(data)
    p = 3 if fit.estimated_alpha else 2
    matrix = fisher_for_family(fit.family, fit.params, n, dim=p, method=fisher_method)
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
    caic: float
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
    seed: int,
    alpha: float | None = None,
    replications: int = 500,
    sizes: tuple[int, int, int] | None = None,
    config: FitConfig | None = None,
) -> SelectionReport:
    """Grid search over tuning-constant candidates.

    Each candidate (a score family with its tuning constants baked in)
    is fitted by its estimating equations, its volume and criteria are
    recorded, and its mean absolute error is averaged over replicated
    artificial samples drawn from the fitted parameters.  The smallest
    mean absolute error wins; candidates within 1% of it are re-ranked
    by volume and then the Bayesian-penalty criterion.  Deterministic
    for a fixed seed and candidate order.
    """
    data = np.asarray(data, dtype=float)
    if not candidates:
        raise ValueError("candidate grid must be non-empty")
    n = len(data)
    if sizes is None:
        sizes = _default_sizes(n)
    if sum(sizes) != n:
        raise ValueError(f"component sizes {sizes} must sum to the sample size {n}")

    records = []
    for idx, cand in enumerate(candidates):
        label = _label_of(cand)
        try:
            fit = evaluate_fit(data, fit_ee_location_scale(data, cand, alpha=alpha, config=config))
            records.append(CandidateRecord(
                label=label, tuning=cand.tuning(), fit=fit,
                volume=fit.volume, aic=fit.ic[0], caic=fit.ic[1], bic=fit.ic[2],
                mae=replicated_mae(data, fit.params, cand, seed,
                                   [(idx, r + 1) for r in range(replications)], sizes),
            ))
        except Exception as exc:  # candidate-level failure is data, not fatal
            records.append(CandidateRecord(
                label=label, tuning=cand.tuning(), fit=None,
                volume=math.inf, aic=math.nan, caic=math.nan, bic=math.nan,
                mae=math.inf, error=f"{type(exc).__name__}: {exc}",
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
