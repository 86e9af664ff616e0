"""Information matrices built from parameter derivatives of the scores.

For the location/scale families the matrix collects expectations of
outer products of dS/d(mu, sigma) under the underlying density; for the
weighted families the integrand carries the deformation term and the
tilted density, giving generally asymmetric 3x3 matrices.  Closed forms
(in terms of complete/incomplete gammas, digamma and trigamma) give the
Huber, plain and q-weighted matrices at every shape and the combined
ones with every branch shape above 3/2; adaptive quadrature gives the
others, in one vector-valued pass over the entries of one or more
matrices, and is the cross-check for every closed form.  On both routes
parity decides which entries vanish or coincide, and the power of the
residual at the center which diverge, reported as ``inf`` unevaluated.

All matrices are scaled by the sample size n; scaling is exactly linear.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .epd import EpdParams, pdf
from .scores import likelihood_weight
from .special_fn import (
    DomainError,
    QuadratureError,
    digamma,
    gamma_fn,
    incomplete_gammas,
    integrate,
    regularized_gamma,
    trigamma,
)

__all__ = [
    "FisherMatrix",
    "PsdDiagnostics",
    "VarianceReport",
    "fisher_for_family",
    "fisher_for_group",
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


def _truncation_halfwidth(alpha: float) -> float:
    # exp(-y^alpha) tail mass beyond the window is far below quadrature
    # tolerance; the width grows as the shape drops below 1
    return max(40.0, 60.0 ** (1.0 / alpha))


def _integrate_finite(finite, integrand, grid, closed=0.0, keep_best=True):
    """Entries of matrices: ``closed`` plus one vector-valued pass of
    ``integrand`` over the panels between grid points for those flagged
    ``finite`` (the others are infinite).  Returns values, error bounds and
    whether each is finite with a bound within 1e-7 of it or 1e-10; a panel
    out of splits keeps its best estimate, or raises if not ``keep_best``."""
    errors = np.where(finite, 0.0, math.inf)
    values = errors + closed
    # nothing is integrated when every entry diverges
    for lo, hi in zip(grid[:-1], grid[1:]) if finite.any() else ():
        try:
            res = integrate(integrand, lo, hi)
            v, e = res.value, res.error
        except QuadratureError as exc:
            if not keep_best:
                raise
            v, e = exc.best, exc.bound
        values[finite] += v
        errors[finite] += e
    return values, errors, finite & (errors <= np.maximum(1e-10, 1e-7 * np.abs(values)))


def _ee_2x2_quadrature(family, params: EpdParams, n: int):
    """Expected outer products of dS/d(mu, sigma) under the EP density.

    For a score S(y) of the standardized residual alone (the Huber and
    combined scores), the parameter derivatives are dS/dmu = -S'(y)/sigma
    and dS/dsigma = -y S'(y)/sigma, so the entries are the moments
    p = 0, 1, 2 of y^p S'(y)^2.  The family gives S'(y) and the residuals
    where it breaks.  The combined scores integrate under their center
    shape alpha2; y^p S'(y)^2 ~ |y|^(2 a - 4 + p) near y = 0, finite iff
    that power exceeds -1; Huber's slope is bounded.
    """
    powers = np.array([0.0, 1.0, 2.0])
    alpha_ref = params.alpha if family.shapes is None else family.shapes.alpha2
    # a is the least shape of the branches that reach y = 0 with a nonzero
    # slope: the center one beside a positive cut, else the tail one, unless
    # a huberized zero cut scales that tail's slope to 0
    reaching = [] if family.shapes is None else [
        alpha_ref if cut > 0.0 else tail
        for cut, tail in ((family.k, family.shapes.alpha1), (family.t, family.shapes.alpha3))
        if cut > 0.0 or not family.huberized]
    finite = powers > 3.0 - 2.0 * min(reaching, default=math.inf)
    dens = EpdParams(0.0, 1.0, alpha_ref)
    w = _truncation_halfwidth(alpha_ref)
    grid = [-w] + [b for b in family.breaks if -w < b < w] + [w]

    def integrand(y):
        return family.slope(y) ** 2 * y ** powers[finite, None] * pdf(y, dens)

    m, e, ok = _integrate_finite(finite, integrand, grid)
    # moments p = 0, 1, 2 fill [[(mu, mu), (mu, sigma)], [(sigma, mu), (sigma, sigma)]]
    entries, errors = np.array([m, e])[:, [[0, 1], [1, 2]]] / params.sigma**2
    return FisherMatrix(n * entries, 2, n, "quadrature" if ok.all() else "quadrature-partial",
                        element_errors=errors)


def _huber_closed(a: float, r: float) -> np.ndarray:
    """The moments p = 0, 2 of the EP density on [-r, r], where the Huber slope is 1."""
    lower, _ = regularized_gamma([1.0 / a, 3.0 / a], r**a)
    return np.diag([lower[0], gamma_fn(3.0 / a) / gamma_fn(1.0 / a) * lower[1]])


def _combined_closed(params: EpdParams, family):
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
    # the incomplete gammas of the (mu, mu), (mu, sigma) and (sigma, sigma)
    # entries, p = 3, 2, 1: upper ones beyond the cuts k^a2 and t^a2 with
    # the outer shapes, lower ones inside them with the center shape
    p = np.array([[3.0], [2.0], [1.0]])
    z = np.hstack([(2 * a1 - p) / a2, (2 * a3 - p) / a2, 2 - p / a2, 2 - p / a2])
    lower, upper = incomplete_gammas(z, [k**a2, t**a2, k**a2, t**a2])
    up_k, up_t, low_k, low_t = np.hstack([upper[:, :2], lower[:, 2:]]).T
    # the (mu, sigma) entry takes the terms at k with the opposite sign
    sign = np.array([1.0, -1.0, 1.0])
    e_mm, e_ms, e_ss = pref * (sign * A1 * up_k + A3 * up_t + A2 * (sign * low_k + low_t))
    return np.array([[e_mm, e_ms], [e_ms, e_ss]])


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


def _weighted_part(params: EpdParams, q: float, beta: float, dim: int):
    """A fit's share of a weighted quadrature pass: its entries (keys), which
    are finite, their closed parts, and its finite integrands (stack)."""
    alpha, sig = params.alpha, params.sigma
    weight = likelihood_weight(q, beta)
    log_norm = params.log_norm_const()
    c = alpha * (alpha - 1.0) / sig
    # without a deformation the (sigma, mu) integrand is identically zero
    keys = [k for k in _WEIGHTED_THRESHOLDS if max(k) < dim and (k != (1, 0) or weight is not None)]
    finite = np.array([alpha > _WEIGHTED_THRESHOLDS[k] for k in keys])
    f0 = math.exp(log_norm)
    t0 = f0 * (1.0 if weight is None else weight(log_norm))

    def deformation(dens):
        return alpha * alpha * ((1.0 - q) if q != 1.0 else beta / (beta + dens))

    d0 = deformation(f0)

    def stack(ya, decay, grow, power):
        # y = u^3 on the half line, doubled; the jacobian 3 u^2 and the
        # scale of dx = sigma dy are folded into each single power of u,
        # so no factor overflows however close to the center u gets
        lf = log_norm - ya
        dens = np.exp(lf)
        t, deform = dens, 0.0
        if weight is not None:
            t = dens * weight(lf)
            deform = deformation(dens)
        block = power(6.0 * alpha - 4.0) * t
        # the location and (sigma, mu) entries leave their singular parts,
        # the center values t0 exp(-y^alpha) and d0 t0 exp(-y^alpha), to
        # the closed forms below; the rest is regular
        singular = t0 * decay
        terms = {
            (0, 0): lambda: c * (c * power(6.0 * alpha - 10.0) * (t - singular)
                                 - deform * power(9.0 * alpha - 10.0) * t),
            (1, 0): lambda: -c * power(9.0 * alpha - 10.0) * (deform * t - d0 * singular),
            (1, 1): lambda: c * c * block,
            (1, 2): lambda: -c * grow * block,
            (2, 2): lambda: grow * grow * block,
        }
        return 6.0 * sig * np.stack([terms[k]() for k, ok in zip(keys, finite) if ok])

    # 6 sigma u^(3 alpha p - 10) exp(-u^(3 alpha)) integrates to
    # 2 sigma Gamma(p - 3/alpha) / alpha; keys[1] is (sigma, mu) when deformed
    closed = np.zeros(len(keys))
    if finite[0]:
        closed[0] = 2.0 * sig * c * c * t0 * gamma_fn(2.0 - 3.0 / alpha) / alpha
    if weight is not None and finite[1]:
        closed[1] = -2.0 * sig * c * d0 * t0 * gamma_fn(3.0 - 3.0 / alpha) / alpha
    return keys, finite, closed, stack


def _weighted_quadrature(fits, n: int, dim: int, keep_best: bool = True) -> list[FisherMatrix]:
    """The matrices of (params, q, beta) fits at one shape from one pass,
    which computes the node terms once and splits panels for them all."""
    alpha = fits[0][0].alpha
    keys, finite, closed, stacks = zip(*[_weighted_part(p, q, beta, dim) for p, q, beta in fits])

    def integrand(u):
        ya = u ** (3.0 * alpha)
        # each power of u once, when an entry first needs it
        shared = ya, np.exp(-ya), 1.0 + 3.0 * alpha * np.log(u), functools.cache(u.__pow__)
        return np.concatenate([stack(*shared) for stack in stacks])

    grid = [0.0, _truncation_halfwidth(alpha) ** (1.0 / 3.0)]
    values, errors, ok = _integrate_finite(np.concatenate(finite), integrand, grid,
                                           np.concatenate(closed), keep_best)
    matrices = []
    splits = np.cumsum([len(k) for k in keys[:-1]], dtype=int)
    for k, v, e, usable in zip(keys, *(np.split(a, splits) for a in (values, errors, ok))):
        full = np.zeros((2, 3, 3))  # the entries and their error bounds
        full[:, [i for i, _ in k], [j for _, j in k]] = v, e
        # (alpha, mu) = (sigma, mu) and (alpha, sigma) = (sigma, alpha)
        full[:, 2, :2] = full[:, 1, [0, 2]]
        entries, bounds = full[:, :dim, :dim]
        method = "quadrature" if usable.all() else "quadrature-partial"
        matrices.append(FisherMatrix(n * entries, dim, n, method, element_errors=bounds))
    return matrices


def fisher_for_family(family, params: EpdParams, n: int, dim: int = 2,
                      method: str = "auto") -> FisherMatrix:
    """The information matrix of a fitted family, chosen from what the
    family states: its branch shapes (combined scores), its likelihood
    deformation (q, beta), or that it has none (Huber).

    ``dim`` is 2 for a fixed-shape fit and 3 for an estimated-shape fit
    of the likelihood families; the Huber and combined matrices are
    always 2x2, and asking for them with dim 3 raises ValueError.
    ``method`` is 'closed', 'quad' or 'auto'.  The Huber, plain and
    q-weighted matrices (and the distorted one at beta = 0) have a closed
    form at every shape, the combined ones when every branch shape is
    above 3/2; the distorted (beta > 0) matrices have none.  Where no
    closed form applies, 'auto' integrates by quadrature and 'closed'
    raises DomainError.  The q-weighted matrix is asymmetric for q < 1:
    its lower triangle keeps the deformation term after the odd parts
    integrate out.  Divergent entries are ``inf`` on both routes, by the
    same rule; they make a quadrature matrix quadrature-partial, with
    per-entry error bounds kept.  q = 1 and beta = 0 give the
    plain-likelihood matrix.
    """
    if method not in ("closed", "quad", "auto"):
        raise ValueError(f"method must be closed/quad/auto, got {method!r}")
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim!r}")
    if dim == 3 and family.likelihood is None:
        raise ValueError(f"dim 3 needs a likelihood family, got {family!r}")
    if method != "quad":
        try:
            if family.shapes is not None:
                entries = _combined_closed(params, family)
            elif family.likelihood is None:
                entries = _huber_closed(params.alpha, family.r) / params.sigma**2
            elif family.likelihood[1] == 0.0:
                entries = _q_closed(params, family.likelihood[0])[:dim, :dim]
            else:
                raise DomainError(f"no closed-form information matrix for {family!r}; "
                                  "use the quadrature method")
            return FisherMatrix(n * entries, len(entries), n, "closed_form")
        except DomainError:
            if method == "closed":
                raise
    if family.likelihood is None:
        return _ee_2x2_quadrature(family, params, n)
    return _weighted_quadrature([(params, *family.likelihood)], n, dim)[0]


def fisher_for_group(fits, n: int) -> list[FisherMatrix]:
    """The 2x2 ``fisher_for_family(family, params, n, method='quad')`` of each
    (family, params) likelihood fit at one shape, from one pass (each judged
    partial on its own); a pass of several out of splits raises QuadratureError."""
    if (len({params.alpha for _, params in fits}) != 1
            or any(family.likelihood is None for family, _ in fits)):
        raise ValueError("a group needs likelihood fits at one shape")
    return _weighted_quadrature([(params, *family.likelihood) for family, params in fits],
                                n, 2, keep_best=len(fits) == 1)


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
