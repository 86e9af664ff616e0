"""The exponential power (EP) distribution.

Density, log-density, q-deformed and distorted log-densities, the
closed-form CDF, and the gamma-transform random sampler.  The density is

    f(x; mu, sigma, alpha) = alpha / (2 sigma Gamma(1/alpha))
                             * exp(-(|x - mu| / sigma)^alpha)

with sigma > 0, alpha > 0.  alpha = 2 is Gaussian-type, alpha = 1
Laplace-type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_fn import log_gamma, regularized_gamma

__all__ = [
    "EpdParams",
    "pdf",
    "log_pdf",
    "log_q_pdf",
    "distorted_log_pdf",
    "sample",
    "make_rng",
    "cdf",
]


@dataclass(frozen=True)
class EpdParams:
    """Location, scale and shape triple of the EP distribution."""

    mu: float
    sigma: float
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma) and math.isfinite(self.alpha)):
            raise ValueError("EP parameters must be finite")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def log_norm_const(self) -> float:
        """log of the density prefactor alpha / (2 sigma Gamma(1/alpha))."""
        return _log_norm_const(self.sigma, self.alpha)


def _log_norm_const(sigma: float, alpha: float) -> float:
    """log of the density prefactor alpha / (2 sigma Gamma(1/alpha))."""
    return math.log(alpha) - math.log(2.0 * sigma) - log_gamma(1.0 / alpha)


def _deformed(lf: np.ndarray, q: float, beta: float) -> np.ndarray:
    """The (q, beta)-deformed log of the density from its log ``lf``,
    computed in place: expm1((1 - q) lf) / (1 - q) or log(beta + exp(lf))."""
    if q != 1.0:
        lf *= 1.0 - q
        np.expm1(lf, out=lf)
        lf /= 1.0 - q
    elif beta > 0.0:
        np.exp(lf, out=lf)
        lf += beta
        np.log(lf, out=lf)
    return lf


def pdf(x, p: EpdParams):
    """EP density, vectorized over x."""
    x = np.asarray(x, dtype=float)
    y = np.abs(x - p.mu) / p.sigma
    out = np.exp(p.log_norm_const() - y**p.alpha)
    return out if out.ndim else float(out)


def log_pdf(x, p: EpdParams):
    """log of the EP density, vectorized over x."""
    x = np.asarray(x, dtype=float)
    y = np.abs(x - p.mu) / p.sigma
    out = _log_norm_const(p.sigma, p.alpha) - y**p.alpha
    return out if out.ndim else float(out)


def log_q_pdf(x, p: EpdParams, q: float):
    """q-deformed log-density; continuous in q at q = 1."""
    return _deformed_log_pdf(x, p, q, 0.0)


def distorted_log_pdf(x, p: EpdParams, beta: float):
    """log(beta + f(x)); exactly log_pdf when beta = 0."""
    if beta < 0.0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    return _deformed_log_pdf(x, p, 1.0, beta)


def _deformed_log_pdf(x, p: EpdParams, q: float, beta: float):
    """The (q, beta)-deformed log-density, vectorized over x."""
    out = _deformed(np.asarray(log_pdf(x, p)), q, beta)
    return out if out.ndim else float(out)


def make_rng(seed) -> np.random.Generator:
    """Counter-based generator (Philox) for reproducible streams.

    ``seed`` may be an integer, a ``numpy.random.SeedSequence`` or an
    existing Generator (returned unchanged).  Philox is documented and
    splittable, so parallel replications can derive independent streams
    from spawn keys of one master seed.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(seed))


def sample(p: EpdParams, n: int, seed) -> np.ndarray:
    """Draw n EP variates.

    Y ~ Gamma(1/alpha, 1), then x = mu + (sigma Z) Y^(1/alpha), in place
    on the gamma draws, with Z = +/-1 equiprobable.  The sign variable makes the draws cover the
    whole real line, matching the density's symmetry about mu.  Gamma
    variates come from the generator's Marsaglia-Tsang sampler (with the
    shape < 1 boost).  Draw order is fixed: gammas first, then signs.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    rng = make_rng(seed)
    y = rng.gamma(shape=1.0 / p.alpha, scale=1.0, size=n)
    z = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    y **= 1.0 / p.alpha
    y *= p.sigma * z
    y += p.mu
    return y


def cdf(x, p: EpdParams):
    """EP CDF, elementwise over x, in closed form (Nadarajah, J. Appl.
    Stat. 2005):

        F(x) = 1/2 + sign(x - mu) P(1/alpha, (|x - mu| / sigma)^alpha) / 2

    with P the regularized lower incomplete gamma function.  Below mu
    the equal form Q/2, with Q = 1 - P, keeps the lower tail's relative
    accuracy.  Exactly 0.5 at x = mu, 0 and 1 at -inf and inf.
    """
    x = np.asarray(x, dtype=float)
    out = _standard_cdf((x - p.mu) / p.sigma, p.alpha)
    return out if out.ndim else float(out)


def _standard_cdf(y, alpha: float) -> np.ndarray:
    """CDF of the standardized EP law of shape alpha, elementwise over y:
    each value depends only on its own y, so standardized points of
    several EP laws sharing the shape can be evaluated in one call."""
    with np.errstate(over="ignore"):
        t = np.abs(y) ** alpha
    lower, upper = regularized_gamma(1.0 / alpha, t)
    return np.where(y < 0.0, 0.5 * upper, 0.5 + 0.5 * lower)
