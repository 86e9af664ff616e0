"""Self-contained special-function and quadrature kernel.

Gamma, log-gamma, incomplete gammas, digamma, trigamma, and adaptive
one-dimensional integration.  Everything here is pure and reentrant; no
state is shared between calls.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DomainError",
    "QuadratureError",
    "QuadratureSpec",
    "IntegrationResult",
    "gamma_fn",
    "log_gamma",
    "incomplete_gamma",
    "regularized_gamma",
    "digamma",
    "trigamma",
    "integrate",
    "quad",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of a special function."""


class QuadratureError(RuntimeError):
    """Adaptive integration failed to reach the requested tolerance.

    Carries the best estimate and its error bound (arrays for a vector
    integrand) so callers can decide whether the partial answer is usable.
    """

    def __init__(self, message: str, best, bound):
        super().__init__(message)
        self.best = best
        self.bound = bound


# Lanczos approximation, g = 607/128, 15 terms (Godfrey coefficient set).
# Relative error below 1e-13 over the positive real axis.
_LANCZOS_G = 4.7421875
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# from here base ** (z - 0.5) comes close to overflowing before exp(-base)
# scales it back, so gamma_fn takes the power as two half-powers
_GAMMA_SPLIT = 140.0
# largest argument whose Gamma is a finite double
_GAMMA_MAX = 171.6243769563027


def _lanczos_sum(z: float) -> float:
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (z + i - 1.0)
    return acc


def gamma_fn(z: float) -> float:
    """Gamma function for real z > 0.

    Lanczos approximation for z >= 0.5; the recurrence Gamma(z) =
    Gamma(z+1)/z handles (0, 0.5) without a reflection step.  Above
    about 171.62 Gamma exceeds the largest double and DomainError is
    raised.
    """
    z = float(z)
    if not z > 0.0:
        raise DomainError(f"gamma_fn requires z > 0, got {z}")
    if z > _GAMMA_MAX:
        raise DomainError(f"gamma_fn overflows for z > {_GAMMA_MAX}, got {z}")
    if z < 0.5:
        return gamma_fn(z + 1.0) / z
    base = z + _LANCZOS_G - 0.5
    if z < _GAMMA_SPLIT:
        return _SQRT_2PI * base ** (z - 0.5) * math.exp(-base) * _lanczos_sum(z)
    half = base ** (0.5 * (z - 0.5))
    return _SQRT_2PI * half * (half * math.exp(-base)) * _lanczos_sum(z)


def log_gamma(z: float) -> float:
    """log(Gamma(z)) for real z > 0, stable for large z."""
    z = float(z)
    if not z > 0.0:
        raise DomainError(f"log_gamma requires z > 0, got {z}")
    if z < 0.5:
        return log_gamma(z + 1.0) - math.log(z)
    base = z + _LANCZOS_G - 0.5
    return (
        math.log(_SQRT_2PI)
        + (z - 0.5) * math.log(base)
        - base
        + math.log(_lanczos_sum(z))
    )


def _lower_gamma_series(z: float, a: float) -> float:
    """gamma(z, a) e^a / a^z by power series; preferred for a < z + 1."""
    term = 1.0 / z
    total = term
    denom = z
    for _ in range(500):
        denom += 1.0
        term *= a / denom
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
    return total


def _upper_gamma_cf(z: float, a: float) -> float:
    """Gamma(z, a) e^a / a^z by Lentz continued fraction; preferred for
    a >= z + 1."""
    tiny = 1e-300
    b = a + 1.0 - z
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, 500):
        an = -i * (i - z)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def incomplete_gamma(z: float, a: float, kind: str = "lower") -> float:
    """Non-regularized incomplete gamma function.

    ``lower`` is the integral of t^(z-1) e^(-t) over (0, a); ``upper`` the
    integral over (a, inf).  The two always partition gamma_fn(z).
    """
    z = float(z)
    a = float(a)
    if not z > 0.0:
        raise DomainError(f"incomplete_gamma requires z > 0, got {z}")
    if a < 0.0:
        raise DomainError(f"incomplete_gamma requires a >= 0, got {a}")
    if kind not in ("lower", "upper"):
        raise ValueError(f"kind must be 'lower' or 'upper', got {kind!r}")
    whole = gamma_fn(z)
    if a < z + 1.0:
        lower = _lower_gamma_series(z, a) * math.exp(z * math.log(a) - a) if a > 0.0 else 0.0
        return lower if kind == "lower" else whole - lower
    upper = math.exp(z * math.log(a) - a) * _upper_gamma_cf(z, a)
    return whole - upper if kind == "lower" else upper


def regularized_gamma(z: float, a: float) -> tuple[float, float]:
    """P(z, a) = gamma(z, a) / Gamma(z) and Q(z, a) = 1 - P(z, a), for
    z > 0 and a in [0, inf].

    The series gives P and the continued fraction Q, each to full
    relative accuracy, so a small P or Q is not lost to cancellation.
    The prefactor a^z e^(-a) / Gamma(z) is formed in log space, so the
    pair stays finite where gamma_fn(z) overflows.
    """
    z = float(z)
    a = float(a)
    if not z > 0.0:
        raise DomainError(f"regularized_gamma requires z > 0, got {z}")
    if not a >= 0.0:
        raise DomainError(f"regularized_gamma requires a >= 0, got {a}")
    if a == 0.0:
        return 0.0, 1.0
    if math.isinf(a):
        return 1.0, 0.0
    prefactor = math.exp(z * math.log(a) - a - log_gamma(z))
    if a < z + 1.0:
        lower = _lower_gamma_series(z, a) * prefactor
        return lower, 1.0 - lower
    upper = _upper_gamma_cf(z, a) * prefactor
    return 1.0 - upper, upper


# Asymptotic Bernoulli coefficients B_2k / (2k) for the digamma tail.
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def digamma(z: float) -> float:
    """Digamma function psi(z) for real z > 0."""
    z = float(z)
    if not z > 0.0:
        raise DomainError(f"digamma requires z > 0, got {z}")
    acc = 0.0
    while z < 8.0:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    tail = 0.0
    power = inv2
    for coeff in _DIGAMMA_TAIL:
        tail += coeff * power
        power *= inv2
    return acc + math.log(z) - 0.5 / z - tail


# Asymptotic coefficients B_2k for the trigamma tail (powers z^-(2k+1)).
_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def trigamma(z: float) -> float:
    """Trigamma function psi'(z) for real z > 0."""
    z = float(z)
    if not z > 0.0:
        raise DomainError(f"trigamma requires z > 0, got {z}")
    acc = 0.0
    while z < 8.0:
        acc += 1.0 / (z * z)
        z += 1.0
    inv = 1.0 / z
    inv2 = inv * inv
    tail = 0.0
    power = inv * inv2
    for coeff in _TRIGAMMA_TAIL:
        tail += coeff * power
        power *= inv2
    return acc + inv + 0.5 * inv2 + tail


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and domain description for :func:`integrate`.

    Infinite endpoints are mapped to a finite interval by the rational
    substitutions x = a + u/(1-u), x = b - u/(1-u) and x = u/(1-u^2);
    a reversed domain (a > b) flips the sign of the result.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 200
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


@dataclass(frozen=True)
class IntegrationResult:
    value: float | np.ndarray
    error: float | np.ndarray
    subdivisions: int

    def __float__(self) -> float:
        return self.value


# Gauss-Kronrod 7-15 nodes and weights (positive half, node 0 last).
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.2293532201052922e-1, 0.6309209262997855e-1, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
])

_NODES = np.concatenate([-_XGK[:7], _XGK[::-1]])  # 15 ascending nodes
_KW = np.concatenate([_WGK[:7], _WGK[::-1]])
_GW = np.zeros(15)
_GW[[1, 3, 5, 7, 9, 11, 13]] = np.concatenate([_WG[:3], _WG[::-1]])


def _gk15(f: Callable, lo: float, hi: float):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid + half * _NODES
    fx = np.asarray(f(x), dtype=float)
    # Integrable singularities evaluate non-finite at isolated nodes; the
    # offending node is dropped and refinement recovers the nearby mass.
    fx = np.where(np.isfinite(fx), fx, 0.0)
    kronrod = half * (fx @ _KW)
    err = np.abs(kronrod - half * (fx @ _GW))
    # rescale against the deviation integral so the estimate stays
    # conservative near non-smooth points, where |K - G| alone is
    # over-optimistic
    mean = 0.5 * (fx @ _KW)
    resasc = abs(half) * (np.abs(fx - mean[..., None]) @ _KW)
    scaled = (resasc != 0.0) & (err != 0.0)
    ratio = 200.0 * err / np.where(scaled, resasc, 1.0)
    err = np.where(scaled, resasc * np.minimum(1.0, ratio) ** 1.5, err)
    return kronrod, err


def _transform(f: Callable, a: float, b: float):
    """Map an infinite domain onto a finite one, returning (g, lo, hi)."""
    a_inf = math.isinf(a)
    b_inf = math.isinf(b)
    if not a_inf and not b_inf:
        return f, a, b
    if a_inf and b_inf:
        def g(u):
            u = np.asarray(u, dtype=float)
            w = 1.0 - u * u
            return f(u / w) * (1.0 + u * u) / (w * w)
        return g, -1.0, 1.0
    if not a_inf and b_inf:
        def g(u):
            u = np.asarray(u, dtype=float)
            w = 1.0 - u
            return f(a + u / w) / (w * w)
        return g, 0.0, 1.0

    def g(u):
        u = np.asarray(u, dtype=float)
        w = 1.0 - u
        return f(b - u / w) / (w * w)
    return g, 0.0, 1.0


def integrate(f: Callable, spec: QuadratureSpec) -> IntegrationResult:
    """Adaptive Gauss-Kronrod integration of f over spec.domain.

    The integrand maps a numpy array of abscissae to the array of values,
    or to a (k, nodes) stack whose k components are integrated together:
    value and error are then length-k arrays, each component is judged
    against its own max(abs_tol, rel_tol |value|), and the panel with the
    largest error relative to those tolerances is split next.  Raises
    :class:`QuadratureError` (carrying the best estimate) when the
    tolerance cannot be met within ``spec.max_subdivisions`` splits.
    """
    a, b = spec.domain
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0
    if a == b:
        return IntegrationResult(0.0, 0.0, 0)
    g, lo, hi = _transform(f, a, b)

    def excess(total, err):
        return np.max(err / np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total)))

    total, total_err = _gk15(g, lo, hi)
    heap = [(-excess(total, total_err), lo, hi, total, total_err)]
    splits = 0
    while excess(total, total_err) > 1.0:
        if splits >= spec.max_subdivisions:
            raise QuadratureError(
                f"integration did not converge after {splits} subdivisions "
                f"(estimate {sign * total}, bound {total_err})",
                best=sign * total,
                bound=total_err,
            )
        _, ilo, ihi, ival, ierr = heapq.heappop(heap)
        mid = 0.5 * (ilo + ihi)
        lval, lerr = _gk15(g, ilo, mid)
        rval, rerr = _gk15(g, mid, ihi)
        # rebinding, not +=: the heap still holds the arrays of earlier panels
        total = total + ((lval + rval) - ival)
        total_err = total_err + ((lerr + rerr) - ierr)
        heapq.heappush(heap, (-excess(total, lerr), ilo, mid, lval, lerr))
        heapq.heappush(heap, (-excess(total, rerr), mid, ihi, rval, rerr))
        splits += 1
    return IntegrationResult(sign * total, total_err, splits)


def quad(
    f: Callable,
    a: float,
    b: float,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-8,
    max_subdivisions: int = 200,
) -> float:
    """Convenience wrapper returning only the integral value."""
    spec = QuadratureSpec(abs_tol, rel_tol, max_subdivisions, (a, b))
    return integrate(f, spec).value
