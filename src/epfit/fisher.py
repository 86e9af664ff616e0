"""Information matrices built from parameter derivatives of the scores.

For the location/scale families the matrix collects expectations of
outer products of dS/d(mu, sigma) under the underlying density; for the
weighted families the integrand carries the deformation term and the
tilted density, giving generally asymmetric 3x3 matrices.  Closed forms
(in terms of complete/incomplete gammas, digamma and trigamma) are
provided where the shape constraints allow; adaptive quadrature is the
authoritative fallback and the cross-check for every closed form.

All matrices are scaled by the sample size n; scaling is exactly linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .epd import EpdParams, pdf
from .scores import CombinedHuber, CombinedPlain, Distorted, Huber, Plain, QWeighted
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

_PARAM_NAMES = ("mu", "sigma", "alpha")


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


def _truncation_halfwidth(alpha: float) -> float:
    # exp(-y^alpha) tail mass beyond the window is far below quadrature
    # tolerance; the width grows as the shape drops below 1
    return max(40.0, 60.0 ** (1.0 / alpha))


def _quad_entry(f, lo: float, hi: float, spec: QuadratureSpec) -> tuple[float, float]:
    """One panel; a panel that cannot meet its own tolerance still
    returns its best estimate with an honest bound."""
    local = QuadratureSpec(spec.abs_tol, spec.rel_tol, spec.max_subdivisions, (lo, hi))
    try:
        res = integrate(f, local)
        return res.value, res.error
    except QuadratureError as exc:
        return exc.best, exc.bound


def _piecewise_quad(f, breaks: list[float], lo: float, hi: float, spec: QuadratureSpec,
                    singular: tuple[float, ...] = ()):
    """Sum of panel integrals with the error judged at the entry level.

    Graded panels around algebraic singularities jump-start the adaptive
    refinement that would otherwise crawl toward them.  Raises only when
    the summed bound is too large relative to the summed value.
    """
    pts = set(b for b in breaks if lo < b < hi)
    width = hi - lo
    for s in singular:
        if lo < s < hi:
            for scale in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
                for side in (-1.0, 1.0):
                    cand = s + side * scale * width
                    if lo < cand < hi:
                        pts.add(cand)
    grid = [lo] + sorted(pts) + [hi]
    total, err = 0.0, 0.0
    for a, b in zip(grid[:-1], grid[1:]):
        v, e = _quad_entry(f, a, b, spec)
        total += v
        err += e
    if err > max(100.0 * spec.abs_tol, 1e-7 * abs(total)):
        raise QuadratureError(
            f"matrix entry integral uncertain (estimate {total:.6g}, bound {err:.3g})",
            best=total, bound=err,
        )
    return total, err


def _ee_2x2_quadrature(family, params: EpdParams, n: int, spec: QuadratureSpec | None):
    """Expected outer products of dS/d(mu, sigma) under the EP density.

    For a score S(y) of the standardized residual alone (the Huber and
    combined scores), the parameter derivatives are dS/dmu = -S'(y)/sigma
    and dS/dsigma = -y S'(y)/sigma, so every entry is a weighted moment
    of S'(y)^2.  The family gives S'(y) and the residuals where it breaks;
    the combined scores integrate under their center shape.
    """
    spec = spec or QuadratureSpec(abs_tol=1e-12, rel_tol=1e-9, max_subdivisions=400)
    sig = params.sigma
    alpha_ref = params.alpha if family.shapes is None else family.shapes.alpha2
    breaks = list(family.breaks)
    w = _truncation_halfwidth(alpha_ref)
    dens = EpdParams(0.0, 1.0, alpha_ref)

    def integrand(power):
        def f(y):
            slope = family.slope(y)
            return slope**2 * y**power * pdf(y, dens)
        return f

    entries = np.zeros((2, 2))
    errors = np.zeros((2, 2))
    failed = False
    for (i, j, power) in ((0, 0, 0), (0, 1, 1), (1, 1, 2)):
        try:
            v, e = _piecewise_quad(integrand(power), breaks, -w, w, spec, singular=(0.0,))
        except QuadratureError as exc:
            v, e = exc.best, exc.bound
            failed = True
        entries[i, j] = v / sig**2
        errors[i, j] = e / sig**2
    entries[1, 0], errors[1, 0] = entries[0, 1], errors[0, 1]
    method = "quadrature-partial" if failed else "quadrature"
    return FisherMatrix(n * entries, 2, n, method, element_errors=errors)


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
    spec: QuadratureSpec | None = None,
) -> FisherMatrix:
    """2x2 information matrix of the combined piecewise score.

    The closed form needs every branch shape above 3/2; ``method='auto'``
    falls back to quadrature outside that domain, ``'closed'`` raises.
    Branch cut points are in standardized residual units.
    """
    if method not in ("closed", "quad", "auto"):
        raise ValueError(f"method must be closed/quad/auto, got {method!r}")
    if method == "quad":
        return _ee_2x2_quadrature(family, params, n, spec)
    try:
        entries = _combined_closed(params, family)
    except DomainError:
        if method == "auto":
            return _ee_2x2_quadrature(family, params, n, spec)
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


def _weighted_integrands(params: EpdParams, q: float, beta: float):
    """Integrand factory for the weighted-family matrices.

    Works on the standardized residual y directly (never reconstituting
    x), so evaluations arbitrarily close to the center keep their full
    floating-point resolution.
    """
    sig, alpha = params.sigma, params.alpha
    log_norm = params.log_norm_const()

    def parts(y):
        y = np.asarray(y, dtype=float)
        ay = np.abs(y)
        tiny = ay < 1e-290
        ay_safe = np.where(tiny, 1.0, ay)
        sgn = np.sign(y)
        pow_a = np.where(tiny, 0.0, ay_safe**alpha)
        pow_am1 = np.where(tiny, 0.0, ay_safe ** (alpha - 1.0))
        pow_am2 = np.where(tiny, 0.0, ay_safe ** (alpha - 2.0))
        log_ay = np.log(ay_safe)
        s_val = alpha * pow_am1 * sgn
        d_mu = -(alpha * (alpha - 1.0) / sig) * pow_am2
        d_sigma = -(alpha * (alpha - 1.0) / sig) * pow_am1 * sgn
        d_alpha = pow_am1 * sgn * (1.0 + alpha * log_ay)
        f = np.exp(log_norm - pow_a)
        if q != 1.0:
            tilt = f ** (2.0 - q)
            deform = (1.0 - q) * s_val**2
        else:
            denom = np.where(beta + f > 0.0, beta + f, 1.0)
            tilt = f * f / denom
            deform = (beta / denom) * s_val**2
        return (d_mu, d_sigma, d_alpha), deform, tilt

    return parts


def _weighted_quadrature(
    params: EpdParams, q: float, beta: float, n: int, dim: int,
    spec: QuadratureSpec | None,
) -> FisherMatrix:
    spec = spec or QuadratureSpec(abs_tol=1e-12, rel_tol=1e-9, max_subdivisions=400)
    parts = _weighted_integrands(params, q, beta)
    # integrate over the standardized residual through y = u^3: the cubic
    # jacobian absorbs most of the algebraic singularity at the center,
    # so the adaptive refinement converges instead of crawling
    w = _truncation_halfwidth(params.alpha)
    ulim = w ** (1.0 / 3.0)
    sig = params.sigma
    entries = np.zeros((dim, dim))
    errors = np.zeros((dim, dim))
    failed = False
    for i in range(dim):
        for j in range(dim):
            # the location-location entry integrand carries the steepest
            # inverse power of the residual and stops being integrable at
            # shape 3/2; report it as divergent rather than chase it
            if i == 0 and j == 0 and params.alpha <= 1.5:
                entries[i, j] = math.inf
                errors[i, j] = math.inf
                failed = True
                continue
            def f(u, i=i, j=j):
                u = np.asarray(u, dtype=float)
                y = u**3
                derivs, deform, tilt = parts(y)
                core = (deform * derivs[j] + derivs[i] * derivs[j]) * tilt
                return core * 3.0 * sig * u**2
            try:
                v, e = _piecewise_quad(f, [0.0], -ulim, ulim, spec, singular=(0.0,))
            except QuadratureError as exc:
                v, e = exc.best, exc.bound
                failed = True
            entries[i, j] = v
            errors[i, j] = e
    method = "quadrature-partial" if failed else "quadrature"
    return FisherMatrix(n * entries, dim, n, method, element_errors=errors)


def fisher_q(
    params: EpdParams,
    q: float,
    n: int,
    method: str = "closed",
    dim: int = 3,
    spec: QuadratureSpec | None = None,
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
        return _weighted_quadrature(params, q, 0.0, n, dim, spec)
    try:
        full = _q_closed(params, q)
    except DomainError:
        if method == "auto":
            return _weighted_quadrature(params, q, 0.0, n, dim, spec)
        raise
    return FisherMatrix(n * full[:dim, :dim].copy(), dim, n, "closed_form")


def fisher_distorted(
    params: EpdParams,
    beta: float,
    n: int,
    dim: int = 3,
    spec: QuadratureSpec | None = None,
) -> FisherMatrix:
    """Information matrix of the distorted score family, by quadrature.

    beta = 0 coincides with the q = 1 matrix.  The shape integrands are
    only integrable for alpha above roughly 3/2 in the location entry;
    failures degrade the matrix to quadrature-partial with per-entry
    error bounds kept.
    """
    if beta < 0.0:
        raise DomainError(f"beta must be non-negative, got {beta}")
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    return _weighted_quadrature(params, 1.0, beta, n, dim, spec)


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
        return _ee_2x2_quadrature(family, params, n, None)
    if isinstance(family, QWeighted):
        return fisher_q(params, family.q, n, method=method, dim=dim)
    if isinstance(family, Distorted):
        return fisher_distorted(params, family.beta, n, dim=dim)
    raise TypeError(f"no information matrix for {family!r}")


def psd_check(matrix: FisherMatrix | np.ndarray) -> PsdDiagnostics:
    """Determinant and pivot tests for positive semidefiniteness.

    Asymmetric matrices are tested on their symmetrized part, with the
    asymmetry magnitude reported separately.
    """
    entries = matrix.entries if isinstance(matrix, FisherMatrix) else np.asarray(matrix, dtype=float)
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

    Falls back to the Moore-Penrose pseudo-inverse when the matrix is
    numerically singular, or when the inversion fails on finite entries.
    A matrix with non-finite entries that cannot be inverted (overflowed
    quadrature) gets NaN variances.  Asymmetric matrices are inverted
    as-is.
    """
    entries = matrix.entries
    d = matrix.dim
    try:
        norm = float(np.linalg.norm(entries, 2))
        det = float(np.linalg.det(entries))
        pseudo = abs(det) < 1e-12 * max(norm, 1.0) ** d
        inv = np.linalg.pinv(entries) if pseudo else np.linalg.inv(entries)
    except np.linalg.LinAlgError:
        pseudo = bool(np.all(np.isfinite(entries)))
        inv = np.linalg.pinv(entries) if pseudo else np.full((d, d), np.nan)
    raw = tuple(float(v) for v in np.diag(inv))
    return VarianceReport(
        raw=raw,
        abs_values=tuple(abs(v) for v in raw),
        pseudo_inverse=pseudo,
        negative=tuple(v < 0.0 for v in raw),
    )
