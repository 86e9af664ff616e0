"""Score functions and score vectors for EP estimating equations.

Six families: plain S, Huber S^H, the combined piecewise scores (plain and
huberized), the q-weighted score and the distorted-weighted score.  All
score functions act on the standardized residual y = (x - mu) / sigma and
carry sign(y), so S(y)/y is the non-negative reweighting factor used by
the estimating equations.

Residuals below 1e-12 in standardized units are treated as exact zeros:
their score weight uses the y -> 0 limit where it is finite (alpha >= 2)
and drops the point where it is singular (alpha < 2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .epd import EpdParams, log_pdf

__all__ = [
    "ShapeTriple",
    "Plain",
    "Huber",
    "CombinedPlain",
    "CombinedHuber",
    "QWeighted",
    "Distorted",
    "ScoreFamily",
    "s_plain",
    "s_huber",
    "s_combined",
    "score",
    "ee_weight",
    "density_weight",
    "likelihood_weight",
    "psi_vector",
]

_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class ShapeTriple:
    """Shape exponents for the left tail, center and right tail."""

    alpha1: float
    alpha2: float
    alpha3: float

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "alpha3"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alpha1, self.alpha2, self.alpha3)


class _Family:
    """What every score family states about itself.

    ``tuning_names`` lists its tuning constants in the order r, k, t, q,
    beta.  ``likelihood`` is the (q, beta) deformation of the
    log-likelihood the score is the gradient of; it is None for the
    Huber and combined scores, which derive from no likelihood.
    ``shapes`` is the ShapeTriple of branch shapes of the combined
    scores; the other families use one EP shape throughout (None).
    ``density_weighted`` says whether the scale EE divides by the summed
    density weights rather than the sample size.

    Each family computes ``score``, ``ee_weight`` (the reweighting factor
    S(y)/y) and ``density_weight`` (None for a family without one) at x
    as arrays; the module-level functions of the same names wrap them.
    ``ee_weight`` takes the density weight at x as ``density`` when the
    caller has already computed it, and computes it itself otherwise.
    """

    tuning_names: tuple[str, ...] = ()
    likelihood: tuple[float, float] | None = None
    shapes: ShapeTriple | None = None
    density_weighted = False

    def tuning(self) -> dict:
        """Tuning constants by name, in the order r, k, t, q, beta."""
        return {name: getattr(self, name) for name in self.tuning_names}

    def density_weight(self, x: np.ndarray, p: EpdParams):
        return None


class _LikelihoodScore(_Family):
    """The plain EP score times the density weight of the family's
    likelihood: f^(1-q) for the log_q likelihood, f/(beta + f) for the
    distorted one, none for the plain one."""

    likelihood = (1.0, 0.0)

    def density_weight(self, x, p):
        weight = likelihood_weight(*self.likelihood)
        return None if weight is None else weight(log_pdf(x, p))

    def score(self, x, p):
        s = s_plain((x - p.mu) / p.sigma, p.alpha)
        w = self.density_weight(x, p)
        return s if w is None else w * s

    def ee_weight(self, x, p, density=None):
        w = self.density_weight(x, p) if density is None else density
        if p.alpha == 2.0:
            # |y|^0 is exactly 1, the zero clamp included
            return np.full(x.shape, 2.0) if w is None else w * 2.0
        pow_am2 = _abs_pow(np.abs((x - p.mu) / p.sigma), p.alpha - 2.0)
        return p.alpha * pow_am2 if w is None else w * p.alpha * pow_am2


@dataclass(frozen=True)
class Plain(_LikelihoodScore):
    """Unweighted log-score S(y) = alpha |y|^(alpha-1) sign(y)."""


@dataclass(frozen=True)
class Huber(_Family):
    """Huber score: identity inside [-r, r], clipped to +/-r outside."""

    r: float
    tuning_names = ("r",)

    def __post_init__(self):
        if not self.r > 0.0:
            raise ValueError(f"r must be positive, got {self.r}")

    def score(self, x, p):
        return s_huber((x - p.mu) / p.sigma, self.r)

    def ee_weight(self, x, p, density=None):
        ay = np.abs((x - p.mu) / p.sigma)
        return np.where(ay <= self.r, 1.0, self.r / np.where(ay == 0, 1.0, ay))


def _validate_cut(k: float, t: float):
    if k < 0.0 or t < 0.0:
        raise ValueError(f"cut points must be non-negative, got k={k}, t={t}")


@dataclass(frozen=True)
class _Combined(_Family):
    """Piecewise score with branch shapes alpha1/alpha2/alpha3.

    Branches split at y = -k and y = t; the discontinuities there are
    intentional.  The huberized variant scales the left branch by k and
    the right branch by t.
    """

    triple: ShapeTriple
    k: float
    t: float
    tuning_names = ("k", "t")
    huberized = False

    def __post_init__(self):
        _validate_cut(self.k, self.t)

    @property
    def shapes(self) -> ShapeTriple:
        return self.triple

    def score(self, x, p):
        return s_combined((x - p.mu) / p.sigma, self.triple, self.k, self.t, self.huberized)

    def ee_weight(self, x, p, density=None):
        y = (x - p.mu) / p.sigma
        alpha, mult = _branches(y, self.triple, self.k, self.t, self.huberized)
        return alpha * _abs_pow(np.abs(y), alpha - 2.0) * mult


@dataclass(frozen=True)
class CombinedPlain(_Combined):
    """Combined piecewise score with plain branches."""


@dataclass(frozen=True)
class CombinedHuber(_Combined):
    """Huberized combined score: tail branches scaled by k and t."""

    huberized = True


@dataclass(frozen=True)
class QWeighted(_LikelihoodScore):
    """Redescending score S_q = f^(1-q) S; q in (0, 1]."""

    q: float
    tuning_names = ("q",)
    density_weighted = True

    @property
    def likelihood(self) -> tuple[float, float]:
        return (self.q, 0.0)

    def __post_init__(self):
        if not (0.0 < self.q <= 1.0):
            raise ValueError(f"q must be in (0, 1], got {self.q}")


@dataclass(frozen=True)
class Distorted(_LikelihoodScore):
    """Redescending score S^D = f/(beta + f) S; beta >= 0."""

    beta: float
    tuning_names = ("beta",)
    density_weighted = True

    @property
    def likelihood(self) -> tuple[float, float]:
        return (1.0, self.beta)

    def __post_init__(self):
        if self.beta < 0.0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")


ScoreFamily = Plain | Huber | CombinedPlain | CombinedHuber | QWeighted | Distorted


def _abs_pow(ay: np.ndarray, expo) -> np.ndarray:
    """|y|^expo with the y = 0 value forced to the limit (0 for expo > 0,
    1 for expo == 0) instead of inf for negative exponents.  ``expo`` is
    one float or an array of per-point exponents."""
    zero = ay < _ZERO_TOL
    if not zero.any():
        # both np.where passes below would select ay ** expo throughout
        return ay ** expo
    return np.where(zero, expo == 0.0, np.where(zero, 1.0, ay) ** expo)


def s_plain(y, alpha: float):
    """Plain score alpha |y|^(alpha-1) sign(y); odd, S(0) = 0."""
    y = np.asarray(y, dtype=float)
    out = alpha * _abs_pow(np.abs(y), alpha - 1.0) * np.sign(y)
    return out if out.ndim else float(out)


def s_huber(y, r: float):
    """Huber score: y inside [-r, r], sign(y) r outside."""
    y = np.asarray(y, dtype=float)
    out = np.clip(y, -r, r)
    return out if out.ndim else float(out)


def _branches(y: np.ndarray, triple: ShapeTriple, k: float, t: float, huberized: bool):
    """Per-point shape and branch multiplier (k on the left tail and t
    on the right when huberized, else 1)."""
    a1, a2, a3 = triple.as_tuple()
    left = y < -k
    right = y > t
    alpha = np.where(left, a1, np.where(right, a3, a2))
    mult = np.where(left, k, np.where(right, t, 1.0)) if huberized else 1.0
    return alpha, mult


def s_combined(y, triple: ShapeTriple, k: float, t: float, huberized: bool):
    """Combined piecewise score.

    Each branch evaluates alpha_j |y|^(alpha_j - 1); huberized scales the
    left branch by k and the right branch by t.  Every branch carries
    sign(y), keeping the score odd-like so the EE weights S(y)/y stay
    non-negative.
    """
    y = np.asarray(y, dtype=float)
    alpha, mult = _branches(y, triple, k, t, huberized)
    out = alpha * _abs_pow(np.abs(y), alpha - 1.0) * mult * np.sign(y)
    return out if out.ndim else float(out)


# memoised: every EE sweep asks for its family's map again
@functools.lru_cache(maxsize=64)
def likelihood_weight(q: float, beta: float):
    """The density weight of the (q, beta)-deformed likelihood as a map
    of the log-density: exp((1-q) lf) = f^(1-q) for q != 1, f/(beta + f)
    with f = exp(lf) for beta > 0, and None for the plain likelihood."""
    if q != 1.0:
        def weight(lf):
            with np.errstate(over="ignore"):
                return np.exp((1.0 - q) * lf)
    elif beta > 0.0:
        def weight(lf):
            f = np.exp(lf)
            return f / (beta + f)
    else:
        weight = None
    return weight


def score(family: ScoreFamily, x, p: EpdParams):
    """Score value of the family at x, standardized through p."""
    out = family.score(np.asarray(x, dtype=float), p)
    return out if np.ndim(out) else float(out)


def ee_weight(family: ScoreFamily, x, p: EpdParams, density=None):
    """The non-negative reweighting factor S(y)/y of the EE updates.

    ``density`` is the family's density weight at x, as
    ``density_weight`` returns it, for a caller that needs it too: the
    likelihood families then multiply by it instead of computing it
    again, with the same result.  The Huber and combined families
    ignore it.
    """
    out = family.ee_weight(np.asarray(x, dtype=float), p, density=density)
    return out if out.ndim else float(out)


def density_weight(family: ScoreFamily, x, p: EpdParams):
    """The density factor w_i of the weighted families (ones otherwise)."""
    x = np.asarray(x, dtype=float)
    out = family.density_weight(x, p)
    if out is None:
        out = np.ones_like(x)
    return out if out.ndim else float(out)


def psi_vector(x, p: EpdParams, q: float = 1.0, beta: float = 0.0):
    """Gradient of the chosen objective in (mu, sigma, alpha) at x, the
    per-point gradient of ``estimate._LikelihoodKernel``: of the plain
    log-likelihood at q = 1, beta = 0, of the q-deformed one at q != 1
    and of the distorted one at beta > 0 (not both)."""
    if q != 1.0 and beta > 0.0:
        raise ValueError("choose either q-deformation or distortion, not both")
    from .estimate import _LikelihoodKernel  # here: estimate imports this module

    with np.errstate(invalid="ignore"):
        psi = _LikelihoodKernel(x, p.mu, p.sigma, q, beta).gradient(p.alpha)
    return tuple(map(float, psi)) if psi.ndim == 1 else psi
