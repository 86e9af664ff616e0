"""Information matrices built from parameter derivatives of the scores.

For the location/scale families the matrix collects expectations of
outer products of dS/d(mu, sigma) under the underlying density; for the
weighted families the integrand carries the deformation term and the
tilted density, giving generally asymmetric 3x3 matrices.  Closed forms
(in terms of complete/incomplete gammas, digamma and trigamma) give the
Huber and combined matrices at every branch shape and the plain and
q-weighted ones at every shape.  Quadrature gives the distorted ones and
is the cross-check for the likelihood closed forms: one pass of a fixed
exp-sinh rule, with the centre parts in closed form.  On both routes
parity decides which entries vanish or coincide, and the power of the
residual at the center which diverge, reported as ``inf``.

All matrices are scaled by the sample size n; scaling is exactly linear,
and so are the quadrature's per-entry error bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .epd import EpdParams
from .scores import likelihood_weight
from .special_fn import (
    DomainError,
    digamma,
    gamma_fn,
    incomplete_gammas,
    regularized_gamma,
    trigamma,
)

__all__ = [
    "FisherMatrix",
    "PsdDiagnostics",
    "VarianceReport",
    "fisher_for_family",
    "psd_check",
    "variances",
]

@dataclass
class PsdDiagnostics:
    determinant_test: bool
    pivot_test: bool
    min_eigenvalue: float
    asymmetry: float


@dataclass
class FisherMatrix:
    """d x d information matrix, already scaled by the sample size."""

    entries: np.ndarray
    dim: int
    n: int
    method: str
    element_errors: np.ndarray | None = None
    psd: PsdDiagnostics | None = None


@dataclass
class VarianceReport:
    """Diagonal of the (pseudo-)inverse information matrix.

    ``raw`` keeps the signed diagonal; a negative entry (possible for
    the asymmetric matrices) is flagged and its magnitude reported in
    ``abs_values``.
    """

    raw: tuple
    abs_values: tuple
    pseudo_inverse: bool
    negative: tuple


def _method(values, errors) -> str:
    """'quadrature-partial' if some per-observation entry is not finite or
    its error bound exceeds 1e-7 of it and 1e-10, else 'quadrature'."""
    ok = np.isfinite(values) & (errors <= np.maximum(1e-10, 1e-7 * np.abs(values)))
    return "quadrature" if ok.all() else "quadrature-partial"


def _huber_closed(a: float, r: float) -> np.ndarray:
    """The moments p = 0, 2 of the EP density on [-r, r], where the Huber slope is 1."""
    lower, _ = regularized_gamma([1.0 / a, 3.0 / a], r**a)
    return np.diag([lower[0], gamma_fn(3.0 / a) / gamma_fn(1.0 / a) * lower[1]])


def _combined_closed(params: EpdParams, family):
    """The moments m = 0, 1, 2 of y^m S'(y)^2 under the centre shape a2,
    with S'(y) = a (a - 1) |y|^(a - 2) on a branch of shape a: incomplete
    gammas of z = (2 a - 3 + m) / a2 at k^a2 and t^a2, upper on the tails
    and lower in the centre.  Where a branch reaching y = 0 has z <= 0
    its gamma, and so its entry, is inf; a term with coefficient 0 (a
    branch of shape 1, a huberized zero cut) is 0 even then.
    """
    a1, a2, a3 = family.triple.as_tuple()
    k, t, huberized = family.k, family.t, family.huberized
    sig = params.sigma
    pref = 1.0 / (2.0 * sig**2 * gamma_fn(1.0 / a2))
    A1 = (a1**2 - a1) ** 2 * (k**2 if huberized else 1.0)
    A3 = (a3**2 - a3) ** 2 * (t**2 if huberized else 1.0)
    A2 = (a2**2 - a2) ** 2
    # the incomplete gammas of the (mu, mu), (mu, sigma) and (sigma, sigma)
    # entries, p = 3, 2, 1: upper ones beyond the cuts k^a2 and t^a2 with
    # the outer shapes, lower ones inside them with the center shape
    p = np.array([[3.0], [2.0], [1.0]])
    z = np.hstack([(2 * a1 - p) / a2, (2 * a3 - p) / a2, 2 - p / a2, 2 - p / a2])
    lower, upper = incomplete_gammas(z, [k**a2, t**a2, k**a2, t**a2])
    up_k, up_t, low_k, low_t = np.where(np.array([A1, A3, A2, A2]) == 0.0, 0.0,
                                        np.hstack([upper[:, :2], lower[:, 2:]])).T
    # the (mu, sigma) entry takes the terms at k with the opposite sign
    sign = np.array([1.0, -1.0, 1.0])
    with np.errstate(invalid="ignore"):
        e_mm, e_ms, e_ss = pref * (sign * A1 * up_k + A3 * up_t + A2 * (sign * low_k + low_t))
    entries = np.array([[e_mm, e_ms], [e_ms, e_ss]])
    return np.where(np.isfinite(entries), entries, math.inf)


# The weighted-family entries E[(deform d_j + d_i) d_j] under the tilted
# density: d_mu, the deformation and the tilt are even in y, d_sigma and
# d_alpha odd, so (mu, sigma) and (mu, alpha) vanish, (alpha, mu) equals
# (sigma, mu), (alpha, sigma) equals (sigma, alpha), and five even
# integrands remain.  Each is finite iff alpha exceeds its threshold: near
# y = 0 they behave like y^(2 alpha - 4), y^(3 alpha - 4) and y^(2 alpha - 2)
# (times powers of log y for the shape entries).
_WEIGHTED_THRESHOLDS = {(0, 0): 1.5, (1, 0): 1.0, (1, 1): 0.5, (1, 2): 0.5, (2, 2): 0.5}


def _q_closed(params: EpdParams, q: float) -> np.ndarray:
    """The plain and q-weighted 3x3 matrix at any shape: each entry that
    _WEIGHTED_THRESHOLDS calls finite from its gamma closed form, the
    others inf, and the parity zeros exact."""
    alpha, sig = params.alpha, params.sigma
    entries = np.full((3, 3), math.inf)
    entries[0, 1:] = 0.0
    if q == 1.0:  # no deformation: (sigma, mu) and (alpha, mu) vanish
        entries[1:, 0] = 0.0
    # every finite entry has the factor Gamma(2 - 1/alpha)
    if not alpha > _WEIGHTED_THRESHOLDS[(1, 1)]:
        return entries
    cq = 2.0 ** (q - 1.0) * gamma_fn(1.0 / alpha) ** (q - 2.0)
    two_q = 2.0 - q
    log_2q = math.log(two_q)
    psi0 = digamma(2.0 - 1.0 / alpha)
    psi1 = trigamma(2.0 - 1.0 / alpha)
    g21 = gamma_fn(2.0 - 1.0 / alpha)
    bracket = 1.0 + psi0 - log_2q

    if alpha > _WEIGHTED_THRESHOLDS[(0, 0)]:
        entries[0, 0] = (
            cq * alpha ** (3.0 - q) * (alpha - 1.0) * sig ** (q - 3.0)
            * two_q ** (3.0 / alpha - 3.0) * gamma_fn(2.0 - 3.0 / alpha)
            * ((q - 1.0) * sig * (2.0 * alpha - 3.0) + (alpha - 1.0) * two_q)
        )
    if alpha > _WEIGHTED_THRESHOLDS[(1, 0)] and q != 1.0:
        entries[1:, 0] = (
            cq * (q - 1.0) * alpha ** (4.0 - q) * (alpha - 1.0)
            * sig ** (q - 2.0) * two_q ** (3.0 / alpha - 3.0) * gamma_fn(3.0 - 3.0 / alpha)
        )
    entries[1, 1] = (
        cq * alpha ** (3.0 - q) * (alpha - 1.0) ** 2 * sig ** (q - 3.0)
        * two_q ** (1.0 / alpha - 2.0) * g21
    )
    entries[1, 2] = entries[2, 1] = (
        -cq * alpha ** (2.0 - q) * (alpha - 1.0) * sig ** (q - 2.0)
        * two_q ** (1.0 / alpha - 2.0) * g21 * bracket
    )
    entries[2, 2] = (
        cq * alpha ** (1.0 - q) * sig ** (q - 1.0)
        * two_q ** (1.0 / alpha - 2.0) * g21 * (bracket**2 + psi1)
    )
    return entries


# The exp-sinh rule of Takahasi & Mori (Publ. RIMS 9, 1974) on (0, inf):
# v = exp(pi/2 sinh s) at s = -6, -6 + 1/32, ..., 3, each node weighted by
# the step times d(log v)/ds, so an integrand enters multiplied by v.
# Every other node, at twice the weight, is the rule one level below;
# _DE_BELOW gives the difference from it.
_DE_STEPS = np.arange(-192, 97) / 32.0
_DE_LOG_V = 0.5 * math.pi * np.sinh(_DE_STEPS)
_DE_V = np.exp(_DE_LOG_V)
_DE_WEIGHTS = 0.5 * math.pi * np.cosh(_DE_STEPS) / 32.0
_DE_BELOW = _DE_WEIGHTS * np.where(np.arange(_DE_STEPS.size) % 2, 1.0, -1.0)


def _likelihood_quadrature(params: EpdParams, q: float, beta: float, n: int,
                           dim: int) -> FisherMatrix:
    """The plain, q-weighted or distorted matrix from one pass of the
    exp-sinh rule in v = |y|^alpha.

    With y = v^(1/alpha) on the half line, doubled, each finite entry of
    _WEIGHTED_THRESHOLDS is 2 sigma / alpha times an integral over v > 0
    of a power of v, the tilted density f0 exp(-v) w(v) and the
    deformation.  The centre part, the tilt's centre value w0 times
    exp(-v), is w0 times the plain closed form (the (sigma, mu) entry's
    is its own gamma term); the rule takes the rest, which vanishes at
    v = 0.  An entry's error bound is its difference from the level below
    plus 1e-14 of its closed part and of its absolute terms.
    """
    alpha, sig = params.alpha, params.sigma
    weight = likelihood_weight(q, beta)
    log_norm = params.log_norm_const()
    c = alpha * (alpha - 1.0) / sig
    # the plain matrix has no tilt and no deformation: it is the closed form
    w0 = 1.0 if weight is None else float(weight(log_norm))
    f0 = math.exp(log_norm)
    t0 = f0 * w0
    closed = w0 * _q_closed(params, 1.0)
    keys = []
    if weight is not None:
        def deformation(dens):
            return alpha * alpha * ((1.0 - q) if q != 1.0 else beta / (beta + dens))

        d0 = deformation(f0)
        closed[1:, 0] = (-2.0 * sig * c * d0 * t0 * gamma_fn(3.0 - 3.0 / alpha) / alpha
                         if alpha > _WEIGHTED_THRESHOLDS[(1, 0)] else math.inf)
        keys = [k for k in _WEIGHTED_THRESHOLDS if max(k) < dim and math.isfinite(closed[k])]
    errors = np.where(np.isfinite(closed), 1e-14 * np.abs(closed), math.inf)
    values = closed.copy()
    if keys:
        v = _DE_V
        lf = log_norm - v
        dens = np.exp(lf)
        decay = np.exp(-v)
        t = dens * weight(lf)
        deform = deformation(dens)
        rest = t - t0 * decay
        block = v ** (2.0 - 1.0 / alpha) * rest
        grow = 1.0 + _DE_LOG_V
        # only the finite entries: a divergent one's power overflows near v = 0
        terms = {
            (0, 0): lambda: c * v ** (2.0 - 3.0 / alpha) * (c * rest - deform * v * t),
            (1, 0): lambda: -c * v ** (3.0 - 3.0 / alpha) * (deform * t - d0 * t0 * decay),
            (1, 1): lambda: c * c * block,
            (1, 2): lambda: -c * grow * block,
            (2, 2): lambda: grow * grow * block,
        }
        stack = 2.0 * sig / alpha * np.stack([terms[k]() for k in keys])
        rows, cols = zip(*keys)
        values[rows, cols] += stack @ _DE_WEIGHTS
        errors[rows, cols] += np.abs(stack @ _DE_BELOW) + 1e-14 * (np.abs(stack) @ _DE_WEIGHTS)
        # (alpha, mu) = (sigma, mu) and (alpha, sigma) = (sigma, alpha)
        values[2, :2], errors[2, :2] = values[1, [0, 2]], errors[1, [0, 2]]
    values, errors = values[:dim, :dim], errors[:dim, :dim]
    return FisherMatrix(n * values, dim, n, _method(values, errors), element_errors=n * errors)


def fisher_for_family(family, params: EpdParams, n: int, dim: int = 2,
                      method: str = "auto") -> FisherMatrix:
    """The information matrix of a fitted family, chosen from what the
    family states: its branch shapes (combined scores), its likelihood
    deformation (q, beta), or that it has none (Huber).

    ``dim`` is 2 for a fixed-shape fit and 3 for an estimated-shape fit
    of the likelihood families; the Huber and combined matrices are
    always 2x2, and asking for them with dim 3 raises ValueError.
    ``method`` is 'closed', 'quad' or 'auto'.  The Huber and combined
    matrices are closed at every shape, and 'quad' raises DomainError on
    them.  So are the plain and q-weighted ones (and the distorted one at
    beta = 0), whose 'quad' is the cross-check; the distorted (beta > 0)
    ones have none, and 'closed' raises DomainError on them.  Quadrature
    is one pass of a fixed exp-sinh rule, with per-entry error bounds
    scaled by n as the entries are.  The q-weighted matrix is asymmetric
    for q < 1: its lower triangle keeps the deformation term after the
    odd parts integrate out.  Divergent entries are ``inf`` on both
    routes, by the same rule, and make a quadrature matrix
    quadrature-partial.  A closed form raises DomainError where a gamma
    in it overflows: the Huber one below shape 3/171.6, about 0.0175.
    """
    if method not in ("closed", "quad", "auto"):
        raise ValueError(f"method must be closed/quad/auto, got {method!r}")
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim!r}")
    if dim == 3 and family.likelihood is None:
        raise ValueError(f"dim 3 needs a likelihood family, got {family!r}")
    if family.likelihood is None:
        if method == "quad":
            raise DomainError(f"no quadrature for {family!r}: its closed form is exact")
        entries = (_huber_closed(params.alpha, family.r) / params.sigma**2
                   if family.shapes is None else _combined_closed(params, family))
        return FisherMatrix(n * entries, 2, n, "closed_form")
    q, beta = family.likelihood
    if method != "quad" and beta == 0.0:
        return FisherMatrix(n * _q_closed(params, q)[:dim, :dim], dim, n, "closed_form")
    if method == "closed":
        raise DomainError(f"no closed-form information matrix for {family!r}; "
                          "use the quadrature method")
    return _likelihood_quadrature(params, q, beta, n, dim)


def psd_check(matrix: FisherMatrix | np.ndarray) -> PsdDiagnostics:
    """Determinant and pivot tests for positive semidefiniteness.

    Asymmetric matrices are tested on their symmetrized part, with the
    asymmetry magnitude reported separately.  A non-finite matrix fails
    both tests, with NaN eigenvalue and asymmetry.
    """
    entries = matrix.entries if isinstance(matrix, FisherMatrix) else np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(entries)):
        diag = PsdDiagnostics(False, False, math.nan, math.nan)
    else:
        sym = 0.5 * (entries + entries.T)
        asym = float(np.max(np.abs(entries - entries.T)))
        scale = max(1.0, float(np.max(np.abs(sym))))
        tol = 1e-10 * scale
        d = sym.shape[0]

        det_ok = True
        for k in range(1, d + 1):
            if np.linalg.det(sym[:k, :k]) < -tol * scale ** (k - 1):
                det_ok = False
                break

        pivot_ok = True
        work = sym.copy()
        for k in range(d):
            pivot = work[0, 0]
            if pivot < -tol:
                pivot_ok = False
                break
            if work.shape[0] == 1:
                break
            if abs(pivot) <= tol:
                # zero pivot: semidefiniteness requires the whole row to vanish
                if np.max(np.abs(work[0, 1:])) > tol:
                    pivot_ok = False
                    break
                work = work[1:, 1:]
                continue
            work = work[1:, 1:] - np.outer(work[1:, 0], work[0, 1:]) / pivot

        min_eig = float(np.min(np.linalg.eigvalsh(sym)))
        diag = PsdDiagnostics(det_ok, pivot_ok, min_eig, asym)
    if isinstance(matrix, FisherMatrix):
        matrix.psd = diag
    return diag


def variances(matrix: FisherMatrix) -> VarianceReport:
    """Diagonal of the inverse information matrix.

    A parameter with infinite information (a divergent diagonal entry)
    gets variance 0, the limit of the inverse.  The block of the others
    is inverted as-is, by the Moore-Penrose pseudo-inverse when it is
    numerically singular or the inversion fails; a non-finite entry left
    in it gives NaN variances.
    """
    keep = np.diag(matrix.entries) != np.inf
    block = matrix.entries[np.ix_(keep, keep)]
    diag = np.zeros(matrix.dim)
    pseudo = False
    if not np.all(np.isfinite(block)):
        diag[keep] = np.nan
    elif keep.any():
        try:
            norm = float(np.linalg.norm(block, 2))
            det = float(np.linalg.det(block))
            pseudo = abs(det) < 1e-12 * max(norm, 1.0) ** len(block)
            inv = np.linalg.pinv(block) if pseudo else np.linalg.inv(block)
        except np.linalg.LinAlgError:
            pseudo = True
            inv = np.linalg.pinv(block)
        diag[keep] = np.diag(inv)
    raw = tuple(float(v) for v in diag)
    return VarianceReport(
        raw=raw,
        abs_values=tuple(abs(v) for v in raw),
        pseudo_inverse=pseudo,
        negative=tuple(v < 0.0 for v in raw),
    )
