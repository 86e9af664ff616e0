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

from dataclasses import dataclass

import numpy as np

from .epd import EpdParams, log_pdf, pdf
from .special_fn import digamma

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
    "weight_q",
    "weight_distorted",
    "score",
    "ee_weight",
    "density_weight",
    "uses_weight_denominator",
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
    """

    tuning_names: tuple[str, ...] = ()
    likelihood: tuple[float, float] | None = None

    def tuning(self) -> dict:
        """Tuning constants by name, in the order r, k, t, q, beta."""
        return {name: getattr(self, name) for name in self.tuning_names}


@dataclass(frozen=True)
class Plain(_Family):
    """Unweighted log-score S(y) = alpha |y|^(alpha-1) sign(y)."""

    likelihood = (1.0, 0.0)


@dataclass(frozen=True)
class Huber(_Family):
    """Huber score: identity inside [-r, r], clipped to +/-r outside."""

    r: float
    tuning_names = ("r",)

    def __post_init__(self):
        if not self.r > 0.0:
            raise ValueError(f"r must be positive, got {self.r}")


def _validate_cut(k: float, t: float):
    if k < 0.0 or t < 0.0:
        raise ValueError(f"cut points must be non-negative, got k={k}, t={t}")


@dataclass(frozen=True)
class CombinedPlain(_Family):
    """Piecewise score with branch shapes alpha1/alpha2/alpha3.

    Branches split at y = -k and y = t; the discontinuities there are
    intentional.
    """

    triple: ShapeTriple
    k: float
    t: float
    tuning_names = ("k", "t")

    def __post_init__(self):
        _validate_cut(self.k, self.t)


@dataclass(frozen=True)
class CombinedHuber(_Family):
    """Huberized combined score: tail branches scaled by k and t."""

    triple: ShapeTriple
    k: float
    t: float
    tuning_names = ("k", "t")

    def __post_init__(self):
        _validate_cut(self.k, self.t)


@dataclass(frozen=True)
class QWeighted(_Family):
    """Redescending score S_q = f^(1-q) S; q in (0, 1]."""

    q: float
    tuning_names = ("q",)

    @property
    def likelihood(self) -> tuple[float, float]:
        return (self.q, 0.0)

    def __post_init__(self):
        if not (0.0 < self.q <= 1.0):
            raise ValueError(f"q must be in (0, 1], got {self.q}")


@dataclass(frozen=True)
class Distorted(_Family):
    """Redescending score S^D = f/(beta + f) S; beta >= 0."""

    beta: float
    tuning_names = ("beta",)

    @property
    def likelihood(self) -> tuple[float, float]:
        return (1.0, self.beta)

    def __post_init__(self):
        if self.beta < 0.0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")


ScoreFamily = Plain | Huber | CombinedPlain | CombinedHuber | QWeighted | Distorted


def _abs_pow(ay: np.ndarray, expo) -> np.ndarray:
    """|y|^expo with the y = 0 value forced to the limit (0 for expo > 0,
    1 for expo == 0) instead of inf for negative exponents."""
    expo = np.asarray(expo, dtype=float)
    zero = ay < _ZERO_TOL
    safe = np.where(zero, 1.0, ay)
    out = safe**expo
    return np.where(zero, np.where(expo > 0.0, 0.0, np.where(expo == 0.0, 1.0, 0.0)), out)


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


def _branch_arrays(y: np.ndarray, triple: ShapeTriple, k: float, t: float):
    a1, a2, a3 = triple.as_tuple()
    left = y < -k
    right = y > t
    alpha = np.where(left, a1, np.where(right, a3, a2))
    return left, right, alpha


def s_combined(
    y,
    triple: ShapeTriple,
    k: float,
    t: float,
    huberized: bool,
    literal_tail_sign: bool = False,
):
    """Combined piecewise score.

    Each branch evaluates alpha_j |y|^(alpha_j - 1); huberized scales the
    left branch by k and the right branch by t.  By default every branch
    carries sign(y), keeping the score odd-like so the EE weights S(y)/y
    stay non-negative.  ``literal_tail_sign`` instead reads the piecewise
    formulas verbatim (no sign factor; the huberized left branch keeps
    its printed minus) for comparison.
    """
    y = np.asarray(y, dtype=float)
    left, right, alpha = _branch_arrays(y, triple, k, t)
    mag = alpha * _abs_pow(np.abs(y), alpha - 1.0)
    if huberized:
        mag = mag * np.where(left, k, np.where(right, t, 1.0))
    if literal_tail_sign:
        out = np.where(left & huberized, -mag, mag)
    else:
        out = mag * np.sign(y)
    return out if out.ndim else float(out)


def weight_q(x, p: EpdParams, q: float):
    """Density weight f(x)^(1-q); identically 1 at q = 1.

    Accepts any q > 0 so the q > 1 unboundedness probes can be run; the
    estimation path restricts itself to q in (0, 1].
    """
    if not q > 0.0:
        raise ValueError(f"q must be positive, got {q}")
    x = np.asarray(x, dtype=float)
    if q == 1.0:
        out = np.ones_like(x)
    else:
        with np.errstate(over="ignore"):
            out = np.exp((1.0 - q) * log_pdf(x, p))
    return out if out.ndim else float(out)


def weight_distorted(x, p: EpdParams, beta: float):
    """Density weight f/(beta + f) in (0, 1]; identically 1 at beta = 0."""
    if beta < 0.0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    x = np.asarray(x, dtype=float)
    f = np.asarray(pdf(x, p), dtype=float)
    out = np.ones_like(f) if beta == 0.0 else f / (beta + f)
    return out if out.ndim else float(out)


def score(family: ScoreFamily, x, p: EpdParams):
    """Score value of the family at x, standardized through p."""
    x = np.asarray(x, dtype=float)
    y = (x - p.mu) / p.sigma
    if isinstance(family, Plain):
        out = s_plain(y, p.alpha)
    elif isinstance(family, Huber):
        out = s_huber(y, family.r)
    elif isinstance(family, CombinedPlain):
        out = s_combined(y, family.triple, family.k, family.t, huberized=False)
    elif isinstance(family, CombinedHuber):
        out = s_combined(y, family.triple, family.k, family.t, huberized=True)
    elif isinstance(family, QWeighted):
        out = weight_q(x, p, family.q) * s_plain(y, p.alpha)
    elif isinstance(family, Distorted):
        out = weight_distorted(x, p, family.beta) * s_plain(y, p.alpha)
    else:
        raise TypeError(f"unknown score family {family!r}")
    return out if np.ndim(out) else float(out)


def ee_weight(family: ScoreFamily, x, p: EpdParams):
    """The non-negative reweighting factor S(y)/y of the EE updates."""
    x = np.asarray(x, dtype=float)
    y = (x - p.mu) / p.sigma
    ay = np.abs(y)
    if isinstance(family, Plain):
        out = p.alpha * _abs_pow(ay, p.alpha - 2.0)
    elif isinstance(family, Huber):
        with np.errstate(divide="ignore"):
            out = np.where(ay <= family.r, 1.0, family.r / np.where(ay == 0, 1.0, ay))
    elif isinstance(family, (CombinedPlain, CombinedHuber)):
        left, right, alpha = _branch_arrays(y, family.triple, family.k, family.t)
        out = alpha * _abs_pow(ay, alpha - 2.0)
        if isinstance(family, CombinedHuber):
            out = out * np.where(left, family.k, np.where(right, family.t, 1.0))
    elif isinstance(family, QWeighted):
        out = weight_q(x, p, family.q) * p.alpha * _abs_pow(ay, p.alpha - 2.0)
    elif isinstance(family, Distorted):
        out = weight_distorted(x, p, family.beta) * p.alpha * _abs_pow(ay, p.alpha - 2.0)
    else:
        raise TypeError(f"unknown score family {family!r}")
    return out if np.ndim(out) else float(out)


def density_weight(family: ScoreFamily, x, p: EpdParams):
    """The density factor w_i of the weighted families (ones otherwise)."""
    x = np.asarray(x, dtype=float)
    if isinstance(family, QWeighted):
        out = weight_q(x, p, family.q)
    elif isinstance(family, Distorted):
        out = weight_distorted(x, p, family.beta)
    else:
        out = np.ones_like(x)
    return out if np.ndim(out) else float(out)


def uses_weight_denominator(family: ScoreFamily) -> bool:
    """Whether the scale EE divides by the summed density weights
    rather than the sample size."""
    return isinstance(family, (QWeighted, Distorted))


def psi_vector(x, p: EpdParams, q: float = 1.0, beta: float = 0.0):
    """Gradient of the chosen objective in (mu, sigma, alpha) at x.

    q = 1, beta = 0 gives the plain log-likelihood score vector; q != 1
    selects the q-deformed objective and beta > 0 the distorted one (the
    two are mutually exclusive).  Matches centered finite differences of
    the corresponding log-density, and the summed vector vanishes at a
    converged fit.
    """
    if q != 1.0 and beta > 0.0:
        raise ValueError("choose either q-deformation or distortion, not both")
    x = np.asarray(x, dtype=float)
    y = (x - p.mu) / p.sigma
    ay = np.abs(y)
    alpha, sigma = p.alpha, p.sigma

    if q != 1.0:
        w = weight_q(x, p, q)
    elif beta > 0.0:
        w = weight_distorted(x, p, beta)
    else:
        w = np.ones_like(np.asarray(x, dtype=float))

    pow_am1 = _abs_pow(ay, alpha - 1.0)
    pow_a = ay**alpha
    zero = ay < _ZERO_TOL
    log_ay = np.log(np.where(zero, 1.0, ay))
    pow_log = np.where(zero, 0.0, pow_a * log_ay)

    base_mu = (alpha / sigma) * pow_am1 * np.sign(y)
    base_sigma = (alpha * pow_a - 1.0) / sigma
    base_alpha = 1.0 / alpha + digamma(1.0 / alpha) / alpha**2 - pow_log

    with np.errstate(invalid="ignore"):
        psi = np.stack([w * base_mu, w * base_sigma, w * base_alpha])
    if psi.ndim == 1:
        return float(psi[0]), float(psi[1]), float(psi[2])
    return psi
