"""Special-function and quadrature kernel.

Gamma and log-gamma (from the standard library), the incomplete gammas,
regularized (z > 0) or not (any finite real z), digamma, trigamma, and
adaptive one-dimensional integration, which only the tests call.
Everything here is pure and reentrant; no state is shared between calls.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DomainError",
    "QuadratureError",
    "IntegrationResult",
    "gamma_fn",
    "log_gamma",
    "regularized_gamma",
    "incomplete_gammas",
    "digamma",
    "trigamma",
    "integrate",
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


# the smallest z whose 1/z^2 is a finite double
_TRIGAMMA_MIN = 1.0 / math.sqrt(sys.float_info.max)


def _positive(name: str, z) -> float:
    """z as a float, or DomainError unless z > 0."""
    z = float(z)
    if not z > 0.0:
        raise DomainError(f"{name} requires z > 0, got {z}")
    return z


def gamma_fn(z: float) -> float:
    """Gamma function for real z > 0 (``math.gamma``); DomainError where
    it exceeds the largest double: z above about 171.62 or below 5.6e-309."""
    z = _positive("gamma_fn", z)
    try:
        if z < math.inf:
            return math.gamma(z)
    except OverflowError:
        pass
    raise DomainError(f"gamma_fn overflows at z = {z}")


def log_gamma(z: float) -> float:
    """log(Gamma(z)) for real z > 0 (``math.lgamma``), inf at z = inf;
    DomainError above about 2.5e305, where it exceeds the largest double."""
    z = _positive("log_gamma", z)
    try:
        return math.lgamma(z)
    except OverflowError:
        raise DomainError(f"log_gamma overflows at z = {z}") from None


def _lower_gamma_series(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """gamma(z, a) e^a / a^z by power series, elementwise over equal-shape
    1-d arrays; preferred for a < z + 1.

    Each element stops on its own convergence test, and the converged
    ones leave the active set, so one slow element does not keep the
    others iterating.
    """
    out = np.empty(a.shape)
    idx = np.arange(a.size)
    term = 1.0 / z
    total = term.copy()
    denom = np.array(z, dtype=float)
    for _ in range(500):
        denom += 1.0
        term *= a / denom
        total += term
        done = np.abs(term) < 1e-17 * np.abs(total)
        if done.any():
            out[idx[done]] = total[done]
            keep = ~done
            idx, a, term, total, denom = idx[keep], a[keep], term[keep], total[keep], denom[keep]
            if not idx.size:
                return out
    out[idx] = total
    return out


def _upper_gamma_cf(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Gamma(z, a) e^a / a^z by Lentz continued fraction, elementwise over
    equal-shape 1-d arrays with a >= z + 1 (so the first denominator is
    at least 2); each element stops on its own convergence test."""
    tiny = 1e-300
    out = np.empty(a.shape)
    idx = np.arange(a.size)
    b = a + 1.0 - z
    c = np.full(a.shape, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, 500):
        an = -i * (i - z)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < 1e-16
        if done.any():
            out[idx[done]] = h[done]
            keep = ~done
            idx, z, b, c, d, h = idx[keep], z[keep], b[keep], c[keep], d[keep], h[keep]
            if not idx.size:
                return out
    out[idx] = h
    return out


def regularized_gamma(z, a):
    """P(z, a) = gamma(z, a) / Gamma(z) and Q(z, a) = 1 - P(z, a), for
    z > 0 and a in [0, inf], elementwise over broadcast arrays.

    Scalar arguments give a (float, float) pair, arrays a pair of arrays
    of the broadcast shape.  The series gives P and the continued
    fraction Q, each to full relative accuracy, so a small P or Q is not
    lost to cancellation.  The prefactor a^z e^(-a) / Gamma(z) is formed
    in log space, so the pair stays finite where gamma_fn(z) overflows.
    """
    return _incomplete_pair("regularized_gamma", z, a, regularized=True)


def incomplete_gammas(z, a):
    """The lower and upper incomplete gammas gamma(z, a) and Gamma(z, a),
    not regularized, for finite real z and a in [0, inf], elementwise
    over broadcast arrays as ``regularized_gamma``.

    For z > 0 each is formed from the series or the continued fraction
    times e^(z log a - a), not as gamma_fn(z) times a regularized one, so
    a value near the underflow keeps its digits where P or Q would be
    subnormal; DomainError where gamma_fn(z) overflows.  For z <= 0 the
    lower gamma diverges, inf (0 at a = 0), and so does the upper one at
    a = 0; at a >= 1 the upper one comes from the continued fraction, and
    below 1 it is Gamma(z, 1) plus the integral over [a, 1] termwise
    (DLMF 8.7; Gautschi, ACM TOMS 5, 1979).
    """
    return _incomplete_pair("incomplete_gammas", z, a, regularized=False)


def _upper_gamma_below_one(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Gamma(z, a) for z <= 0 and 0 < a < 1, elementwise over equal-shape
    1-d arrays: Gamma(z, 1) plus the integral of t^(z-1) e^-t over [a, 1],
    sum_n (-1)^n / n! (1 - a^(z+n)) / (z+n), each quotient formed by
    expm1 so that z near an integer keeps its digits."""
    log_a = np.log(a)
    total = _upper_gamma_cf(z, np.ones(a.shape)) / math.e
    coeff = 1.0
    done = np.zeros(a.shape, dtype=bool)
    # the terms fall in magnitude, so an element is done at its first
    # negligible one and adds 0 from then on, as it would alone; where
    # a^z overflows, so does the sum (inf - inf, taken as inf), and at
    # z + n = 0 the quotient is its limit -log(a), not 0 / 0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(500):
            w = z + n
            term = coeff * np.where(w == 0.0, -log_a, -np.expm1(w * log_a) / w)
            total += np.where(done, 0.0, term)
            done |= np.abs(term) < 1e-17 * total
            if done.all():
                break
            coeff /= -(n + 1.0)
    return np.where(np.isnan(total), math.inf, total)


def _incomplete_pair(name, z, a, regularized):
    """(lower, upper) incomplete gammas, divided by Gamma(z) when
    ``regularized``: the one the series or the continued fraction gives,
    then the other as their sum, 1 or Gamma(z), minus it.  Unregularized,
    z <= 0 takes the sum as inf."""
    z_in = np.asarray(z, dtype=float)
    a_in = np.asarray(a, dtype=float)
    bad = ~(z_in > 0.0) if regularized else ~np.isfinite(z_in)
    if bad.any():
        need = "z > 0" if regularized else "finite z"
        raise DomainError(f"{name} requires {need}, got {z_in[bad].flat[0]}")
    bad = ~(a_in >= 0.0)
    if bad.any():
        raise DomainError(f"{name} requires a >= 0, got {a_in[bad].flat[0]}")
    zb, ab = np.broadcast_arrays(z_in, a_in)
    zf, af = zb.ravel(), ab.ravel()
    if regularized:
        total = np.ones(af.shape)
        log_gamma_z = (log_gamma(float(z_in)) if z_in.ndim == 0
                       else np.array([log_gamma(v) for v in zf]))
    else:
        total = np.array([gamma_fn(v) if v > 0.0 else math.inf for v in zf])
    # for z <= 0 the lower gamma diverges at every a > 0
    lower = np.where((zf <= 0.0) & (af > 0.0), math.inf, 0.0)
    upper = total.copy()
    inf = np.isinf(af)
    lower[inf], upper[inf] = total[inf], 0.0
    positive = zf > 0.0
    series = (af > 0.0) & (af < zf + 1.0) & positive
    frac = (af >= np.where(positive, zf + 1.0, 1.0)) & ~inf
    below_one = (af > 0.0) & (af < 1.0) & ~positive

    def scaled(method, mask):
        zm, am = zf[mask], af[mask]
        log_scale = zm * np.log(am) - am
        if regularized:
            log_scale -= log_gamma_z if z_in.ndim == 0 else log_gamma_z[mask]
        return method(zm, am) * np.exp(log_scale)

    if series.any():
        lower[series] = scaled(_lower_gamma_series, series)
        upper[series] = total[series] - lower[series]
    if frac.any():
        upper[frac] = scaled(_upper_gamma_cf, frac)
        lower[frac] = total[frac] - upper[frac]
    if below_one.any():
        upper[below_one] = _upper_gamma_below_one(zf[below_one], af[below_one])
    if zb.ndim == 0:
        return float(lower[0]), float(upper[0])
    return lower.reshape(zb.shape), upper.reshape(zb.shape)


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
    """Digamma function psi(z) for real z > 0, inf at z = inf; DomainError
    below about 5.6e-309, where -1/z exceeds the largest double."""
    z = _positive("digamma", z)
    acc = 0.0
    while z < 8.0:
        acc -= 1.0 / z
        z += 1.0
    if math.isinf(acc):
        raise DomainError("digamma overflows: 1/z exceeds the largest double")
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
    """Trigamma function psi'(z) for real z > 0, 0 at z = inf; DomainError
    below about 7.5e-155, where 1/z^2 exceeds the largest double."""
    z = _positive("trigamma", z)
    if z < _TRIGAMMA_MIN:
        raise DomainError(f"trigamma overflows at z = {z}")
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
class IntegrationResult:
    value: float | np.ndarray
    error: float | np.ndarray
    subdivisions: int


# per-component tolerance of integrate, absolute and relative, and its
# split budget
_TOL = 1e-12
_MAX_SPLITS = 400

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


def _panel_nodes(lo: float, hi: float):
    """Half the width of the panel [lo, hi] and its 15 nodes."""
    half = 0.5 * (hi - lo)
    return half, 0.5 * (hi + lo) + half * _NODES


def _gk15(fx: np.ndarray, half: float):
    """Kronrod estimate and error bound of one panel from its 15
    integrand values (last axis, contiguous) and half its width."""
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


def integrate(f: Callable, lo: float, hi: float) -> IntegrationResult:
    """Adaptive Gauss-Kronrod integration of f over the finite panel
    [lo, hi], lo <= hi; a zero-width panel integrates to 0.

    The integrand maps a numpy array of abscissae to the array of values,
    or to a (k, nodes) stack whose k components are integrated together:
    value and error are then length-k arrays, each component is judged
    against its own max(1e-12, 1e-12 |value|), and the panel with the
    largest error relative to those tolerances is split next.  The two
    halves of a split panel are evaluated together, in one 30-node call
    of the integrand, so it must act elementwise on its abscissae.  Raises
    :class:`QuadratureError` (carrying the best estimate) when the
    tolerance cannot be met within 400 splits.
    """
    if lo == hi:
        return IntegrationResult(0.0, 0.0, 0)

    def excess(total, err):
        return np.max(err / np.maximum(_TOL, _TOL * np.abs(total)))

    half, x = _panel_nodes(lo, hi)
    total, total_err = _gk15(np.asarray(f(x), dtype=float), half)
    heap = [(-excess(total, total_err), lo, hi, total, total_err)]
    splits = 0
    while excess(total, total_err) > 1.0:
        if splits >= _MAX_SPLITS:
            raise QuadratureError(
                f"integration did not converge after {splits} subdivisions "
                f"(estimate {total}, bound {total_err})",
                best=total,
                bound=total_err,
            )
        _, ilo, ihi, ival, ierr = heapq.heappop(heap)
        mid = 0.5 * (ilo + ihi)
        # both halves in one integrand call; each reaches the reduction
        # as its own contiguous array, as a single-panel call would
        lhalf, lx = _panel_nodes(ilo, mid)
        rhalf, rx = _panel_nodes(mid, ihi)
        fx = np.asarray(f(np.concatenate([lx, rx])), dtype=float)
        lval, lerr = _gk15(np.ascontiguousarray(fx[..., :15]), lhalf)
        rval, rerr = _gk15(np.ascontiguousarray(fx[..., 15:]), rhalf)
        # rebinding, not +=: the heap still holds the arrays of earlier panels
        total = total + ((lval + rval) - ival)
        total_err = total_err + ((lerr + rerr) - ierr)
        heapq.heappush(heap, (-excess(total, lerr), ilo, mid, lval, lerr))
        heapq.heappush(heap, (-excess(total, rerr), mid, ihi, rval, rerr))
        splits += 1
    return IntegrationResult(total, total_err, splits)

