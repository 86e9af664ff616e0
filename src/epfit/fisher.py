"""Information matrices built from parameter derivatives of the scores.

For the location/scale families the matrix collects expectations of
outer products of dS/d(mu, sigma) under the underlying density; for the
weighted families the integrand carries the deformation term and the
tilted density, giving generally asymmetric 3x3 matrices.  Closed forms
(in terms of complete/incomplete gammas, digamma and trigamma) are
provided where the shape constraints allow; adaptive quadrature is the
authoritative fallback and the cross-check for every closed form.  A
quadrature matrix is one vector-valued pass over its entries: parity
decides which vanish or coincide, and the power of the residual at the
center which diverge, reported as ``inf`` without being integrated.

All matrices are scaled by the sample size n; scaling is exactly linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .epd import EpdParams, pdf
from .scores import (
    CombinedHuber, CombinedPlain, Distorted, Huber, Plain, QWeighted, likelihood_weight,
)
from .special_fn import (
    DomainError,
    QuadratureError,
    QuadratureSpec,
    digamma,
    gamma_fn,
    incomplete_gamma,
    integrate,
    trigamma,
)

__all__ = [
    "FisherMatrix",
    "PsdDiagnostics",
    "VarianceReport",
    "fisher_combined",
    "fisher_q",
    "fisher_distorted",
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

    def unit(self) -> np.ndarray:
        """Per-observation matrix (the n-scaling removed)."""
        return self.entries / self.n


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


# per-entry tolerances and the split budget of one integration pass
_QUAD = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=400)


def _truncation_halfwidth(alpha: float) -> float:
    # exp(-y^alpha) tail mass beyond the window is far below quadrature
    # tolerance; the width grows as the shape drops below 1
    return max(40.0, 60.0 ** (1.0 / alpha))


def _integrate_finite(finite, integrand, grid, closed=0.0):
    """Entries of one matrix: ``closed`` plus one vector-valued pass of
    ``integrand`` over the panels between grid points for those flagged
    ``finite`` (the others are infinite).  Returns values, error bounds
    and whether each is finite with a bound within 1e-7 of it or 1e-10."""
    errors = np.where(finite, 0.0, math.inf)
    values = errors + closed
    # nothing is integrated when every entry diverges
    for lo, hi in zip(grid[:-1], grid[1:]) if finite.any() else ():
        try:
            res = integrate(integrand, replace(_QUAD, domain=(lo, hi)))
            v, e = res.value, res.error
        except QuadratureError as exc:  # keep the best estimate and its bound
            v, e = exc.best, exc.bound
        values[finite] += v
        errors[finite] += e
    usable = finite.all() and np.all(errors <= np.maximum(1e-10, 1e-7 * np.abs(values)))
    return values, errors, usable


def _ee_2x2_quadrature(family, params: EpdParams, n: int):
    """Expected outer products of dS/d(mu, sigma) under the EP density.

    For a score S(y) of the standardized residual alone (the Huber and
    combined scores), the parameter derivatives are dS/dmu = -S'(y)/sigma
    and dS/dsigma = -y S'(y)/sigma, so the entries are the moments
    p = 0, 1, 2 of y^p S'(y)^2.  The family gives S'(y) and the residuals
    where it breaks.  The combined scores integrate under their center
    shape alpha2, where y^p S'(y)^2 ~ |y|^(2 alpha2 - 4 + p), finite iff
    that power exceeds -1; Huber's slope is bounded.
    """
    powers = np.array([0.0, 1.0, 2.0])
    alpha_ref = params.alpha if family.shapes is None else family.shapes.alpha2
    finite = powers > (-math.inf if family.shapes is None else 3.0 - 2.0 * alpha_ref)
    dens = EpdParams(0.0, 1.0, alpha_ref)
    w = _truncation_halfwidth(alpha_ref)
    grid = [-w] + [b for b in family.breaks if -w < b < w] + [w]

    def integrand(y):
        return family.slope(y) ** 2 * y ** powers[finite, None] * pdf(y, dens)

    m, e, ok = _integrate_finite(finite, integrand, grid)
    # moments p = 0, 1, 2 fill [[(mu, mu), (mu, sigma)], [(sigma, mu), (sigma, sigma)]]
    entries, errors = np.array([m, e])[:, [[0, 1], [1, 2]]] / params.sigma**2
    return FisherMatrix(n * entries, 2, n, "quadrature" if ok else "quadrature-partial",
                        element_errors=errors)


def _combined_closed(params: EpdParams, family: CombinedPlain | CombinedHuber):
    a1, a2, a3 = family.triple.as_tuple()
    k, t, huberized = family.k, family.t, family.huberized
    for name, val in (("alpha1", a1), ("alpha2", a2), ("alpha3", a3)):
        if val <= 1.5:
            raise DomainError(
                f"closed form requires {name} > 3/2 (got {val}); use the quadrature method"
            )
    sig = params.sigma
    pref = 1.0 / (2.0 * sig**2 * gamma_fn(1.0 / a2))
    A1 = (a1**2 - a1) ** 2 * (k**2 if huberized else 1.0)
    A3 = (a3**2 - a3) ** 2 * (t**2 if huberized else 1.0)
    A2 = (a2**2 - a2) ** 2
    ka, ta = k**a2, t**a2

    def up(z, a):
        return incomplete_gamma(z, a, "upper")

    def low(z, a):
        return incomplete_gamma(z, a, "lower")

    e_mm = pref * (
        A1 * up((2 * a1 - 3) / a2, ka)
        + A3 * up((2 * a3 - 3) / a2, ta)
        + A2 * (low(2 - 3 / a2, ka) + low(2 - 3 / a2, ta))
    )
    e_ms = pref * (
        -A1 * up((2 * a1 - 2) / a2, ka)
        + A3 * up((2 * a3 - 2) / a2, ta)
        + A2 * (-low(2 - 2 / a2, ka) + low(2 - 2 / a2, ta))
    )
    e_ss = pref * (
        A1 * up((2 * a1 - 1) / a2, ka)
        + A3 * up((2 * a3 - 1) / a2, ta)
        + A2 * (low(2 - 1 / a2, ka) + low(2 - 1 / a2, ta))
    )
    return np.array([[e_mm, e_ms], [e_ms, e_ss]])


def fisher_combined(
    params: EpdParams,
    family: CombinedPlain | CombinedHuber,
    n: int,
    method: str = "closed",
) -> FisherMatrix:
    """2x2 information matrix of the combined piecewise score.

    The closed form needs every branch shape above 3/2; ``method='auto'``
    falls back to quadrature outside that domain, ``'closed'`` raises.
    Branch cut points are in standardized residual units.
    """
    if method not in ("closed", "quad", "auto"):
        raise ValueError(f"method must be closed/quad/auto, got {method!r}")
    if method == "quad":
        return _ee_2x2_quadrature(family, params, n)
    try:
        entries = _combined_closed(params, family)
    except DomainError:
        if method == "auto":
            return _ee_2x2_quadrature(family, params, n)
        raise
    return FisherMatrix(n * entries, 2, n, "closed_form")


def _q_closed(params: EpdParams, q: float) -> np.ndarray:
    alpha, sig = params.alpha, params.sigma
    if alpha <= 1.5:
        raise DomainError(
            f"closed form requires alpha > 3/2 (got {alpha}); use the quadrature method"
        )
    cq = 2.0 ** (q - 1.0) * gamma_fn(1.0 / alpha) ** (q - 2.0)
    two_q = 2.0 - q
    log_2q = math.log(two_q)
    psi0 = digamma(2.0 - 1.0 / alpha)
    psi1 = trigamma(2.0 - 1.0 / alpha)
    g23 = gamma_fn(2.0 - 3.0 / alpha)
    g33 = gamma_fn(3.0 - 3.0 / alpha)
    g21 = gamma_fn(2.0 - 1.0 / alpha)
    bracket = 1.0 + psi0 - log_2q

    e_mm = (
        cq * alpha ** (3.0 - q) * (alpha - 1.0) * sig ** (q - 3.0)
        * two_q ** (3.0 / alpha - 3.0) * g23
        * ((q - 1.0) * sig * (2.0 * alpha - 3.0) + (alpha - 1.0) * two_q)
    )
    e_sm = (
        cq * (q - 1.0) * alpha ** (4.0 - q) * (alpha - 1.0)
        * sig ** (q - 2.0) * two_q ** (3.0 / alpha - 3.0) * g33
    )
    e_ss = (
        cq * alpha ** (3.0 - q) * (alpha - 1.0) ** 2 * sig ** (q - 3.0)
        * two_q ** (1.0 / alpha - 2.0) * g21
    )
    e_sa = (
        -cq * alpha ** (2.0 - q) * (alpha - 1.0) * sig ** (q - 2.0)
        * two_q ** (1.0 / alpha - 2.0) * g21 * bracket
    )
    e_aa = (
        cq * alpha ** (1.0 - q) * sig ** (q - 1.0)
        * two_q ** (1.0 / alpha - 2.0) * g21 * (bracket**2 + psi1)
    )
    return np.array([
        [e_mm, 0.0, 0.0],
        [e_sm, e_ss, e_sa],
        [e_sm, e_sa, e_aa],
    ])


# The weighted-family entries E[(deform d_j + d_i) d_j] under the tilted
# density: d_mu, the deformation and the tilt are even in y, d_sigma and
# d_alpha odd, so (mu, sigma) and (mu, alpha) vanish, (alpha, mu) equals
# (sigma, mu), (alpha, sigma) equals (sigma, alpha), and five even
# integrands remain.  Each is finite iff alpha exceeds its threshold: near
# y = 0 they behave like y^(2 alpha - 4), y^(3 alpha - 4) and y^(2 alpha - 2)
# (times powers of log y for the shape entries).
_WEIGHTED_THRESHOLDS = {(0, 0): 1.5, (1, 0): 1.0, (1, 1): 0.5, (1, 2): 0.5, (2, 2): 0.5}


def _weighted_quadrature(params: EpdParams, q: float, beta: float, n: int,
                         dim: int) -> FisherMatrix:
    alpha, sig = params.alpha, params.sigma
    weight = likelihood_weight(q, beta)
    log_norm = params.log_norm_const()
    c = alpha * (alpha - 1.0) / sig
    # without a deformation the (sigma, mu) integrand is identically zero
    keys = [k for k in _WEIGHTED_THRESHOLDS if max(k) < dim and (k != (1, 0) or weight is not None)]
    finite = np.array([alpha > _WEIGHTED_THRESHOLDS[k] for k in keys])
    t0 = math.exp(log_norm) * (1.0 if weight is None else weight(log_norm))

    def integrand(u):
        # y = u^3 on the half line, doubled; the jacobian 3 u^2 and the
        # scale of dx = sigma dy are folded into each single power of u,
        # so no factor overflows however close to the center u gets
        ya = u ** (3.0 * alpha)
        lf = log_norm - ya
        dens = np.exp(lf)
        t, deform = dens, 0.0
        if weight is not None:
            t = dens * weight(lf)
            deform = alpha * alpha * ((1.0 - q) if q != 1.0 else beta / (beta + dens))
        grow = 1.0 + 3.0 * alpha * np.log(u)
        block = u ** (6.0 * alpha - 4.0) * t
        terms = {
            # the location entry leaves its singular part, t0 exp(-y^alpha)
            # for the tilt, to the closed form below; the rest is regular
            (0, 0): lambda: c * (c * u ** (6.0 * alpha - 10.0) * (t - t0 * np.exp(-ya))
                                 - deform * u ** (9.0 * alpha - 10.0) * t),
            (1, 0): lambda: -c * deform * u ** (9.0 * alpha - 10.0) * t,
            (1, 1): lambda: c * c * block,
            (1, 2): lambda: -c * grow * block,
            (2, 2): lambda: grow * grow * block,
        }
        return 6.0 * sig * np.stack([terms[k]() for k, ok in zip(keys, finite) if ok])

    closed = np.zeros(len(keys))
    if finite[0]:
        closed[0] = 2.0 * sig * c * c * t0 * gamma_fn(2.0 - 3.0 / alpha) / alpha
    grid = [0.0, _truncation_halfwidth(alpha) ** (1.0 / 3.0)]
    values, errors, ok = _integrate_finite(finite, integrand, grid, closed)
    full = np.zeros((2, 3, 3))  # the entries and their error bounds
    for (i, j), v, e in zip(keys, values, errors):
        full[:, i, j] = v, e
    # (alpha, mu) = (sigma, mu) and (alpha, sigma) = (sigma, alpha)
    full[:, 2, :2] = full[:, 1, [0, 2]]
    entries, bounds = full[:, :dim, :dim]
    return FisherMatrix(n * entries, dim, n, "quadrature" if ok else "quadrature-partial",
                        element_errors=bounds)


def fisher_q(
    params: EpdParams,
    q: float,
    n: int,
    method: str = "closed",
    dim: int = 3,
) -> FisherMatrix:
    """Information matrix of the q-weighted score family.

    The closed form needs alpha > 3/2 and q in (0, 1]; q = 1 recovers
    the plain-score information.  The matrix is asymmetric for q < 1
    (the lower triangle keeps the deformation term after the odd parts
    integrate out).  ``dim=2`` restricts to the (mu, sigma) block.
    """
    if not (0.0 < q <= 1.0):
        raise DomainError(f"q must be in (0, 1], got {q}")
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if method not in ("closed", "quad", "auto"):
        raise ValueError(f"method must be closed/quad/auto, got {method!r}")
    if method == "quad":
        return _weighted_quadrature(params, q, 0.0, n, dim)
    try:
        full = _q_closed(params, q)
    except DomainError:
        if method == "auto":
            return _weighted_quadrature(params, q, 0.0, n, dim)
        raise
    return FisherMatrix(n * full[:dim, :dim].copy(), dim, n, "closed_form")


def fisher_distorted(
    params: EpdParams,
    beta: float,
    n: int,
    dim: int = 3,
) -> FisherMatrix:
    """Information matrix of the distorted score family, by quadrature.

    beta = 0 coincides with the q = 1 matrix.  The location entry is
    finite for alpha > 3/2, the (sigma, mu) entry for alpha > 1 and the
    (sigma, alpha) block for alpha > 1/2; a divergent entry is ``inf``
    and makes the matrix quadrature-partial, with per-entry error bounds
    kept.
    """
    if beta < 0.0:
        raise DomainError(f"beta must be non-negative, got {beta}")
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    return _weighted_quadrature(params, 1.0, beta, n, dim)


def fisher_for_family(family, params: EpdParams, n: int, dim: int = 2,
                      method: str = "auto") -> FisherMatrix:
    """Dispatch the appropriate information matrix for a fitted family.

    ``dim`` is 2 for a fixed-shape fit and 3 for an estimated-shape fit
    of the plain, q-weighted and distorted families; the Huber and
    combined matrices are always 2x2.
    """
    if isinstance(family, (CombinedPlain, CombinedHuber)):
        return fisher_combined(params, family, n, method=method)
    if isinstance(family, Plain):
        return fisher_q(params, 1.0, n, method=method, dim=dim)
    if isinstance(family, Huber):
        return _ee_2x2_quadrature(family, params, n)
    if isinstance(family, QWeighted):
        return fisher_q(params, family.q, n, method=method, dim=dim)
    if isinstance(family, Distorted):
        return fisher_distorted(params, family.beta, n, dim=dim)
    raise TypeError(f"no information matrix for {family!r}")


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
