"""Test-side oracle for the 2x2 information matrices of the combined
scores, plain and huberized: scipy's adaptive quadrature of the moments
m = 0, 1, 2 of y^m S'(y)^2 under the centre-shape EP density, piece by
piece between the cuts.

On a branch of shape a the slope is S'(y) = c a (a - 1) |y|^(a - 2),
c the branch's huberized multiplier (or 1), so a piece that starts at
y = 0 carries |y|^(2 a - 4 + m); it is integrated with scipy's
algebraic weight, and it diverges when that power is -1 or less.  A
piece whose coefficient is 0 (a branch of shape 1, a huberized zero
cut) adds nothing.
"""

import math
import warnings

import numpy as np
import scipy.integrate


_OPTS = dict(epsabs=0.0, epsrel=2e-14, limit=200)


def _smooth(f, lo, hi, a2):
    """The integral of f over [lo, hi], 0 < lo, split where |y|^a2 is 1,
    8, 64 and 512 so that a heavy tail is not one piece, and ended where
    it is 800: beyond, exp(-|y|^a2) underflows."""
    splits = [u ** (1.0 / a2) for u in (1.0, 8.0, 64.0, 512.0, 800.0)]
    edges = [lo] + [y for y in splits if lo < y < hi] + [hi]
    edges = [y for y in edges if y <= splits[-1]]
    return sum(scipy.integrate.quad(f, x, y, **_OPTS)[0] for x, y in zip(edges[:-1], edges[1:]))


def _piece(coeff, a, moment, lo, hi, density, a2):
    """coeff times the integral over |y| in [lo, hi] of
    |y|^(2 a - 4 + moment) density(|y|)."""
    if coeff == 0.0 or lo == hi:
        return 0.0
    power = 2.0 * a - 4.0 + moment

    def f(y):
        return y**power * density(y)

    if lo > 0.0:
        return coeff * _smooth(f, lo, hi, a2)
    if power <= -1.0:
        return math.inf
    # from y = 0 the algebraic weight takes the power up to 1
    near = scipy.integrate.quad(density, 0.0, min(hi, 1.0), weight="alg",
                                wvar=(power, 0.0), **_OPTS)[0]
    return coeff * (near + (_smooth(f, 1.0, hi, a2) if hi > 1.0 else 0.0))


def combined_matrix(family, sigma):
    """The family's 2x2 matrix at scale sigma and n = 1, with inf where
    an entry diverges."""
    a1, a2, a3 = map(float, family.triple.as_tuple())
    k, t = float(family.k), float(family.t)
    norm = a2 / (2.0 * math.gamma(1.0 / a2))

    def density(y):
        return norm * np.exp(-np.abs(y) ** a2)

    def coeff(a, mult):
        return (a * (a - 1.0) * (mult if family.huberized else 1.0)) ** 2

    # (shape, coefficient, |y| range, side): side -1 is y < 0
    pieces = [(a1, coeff(a1, k), k, math.inf, -1), (a2, coeff(a2, 1.0), 0.0, k, -1),
              (a2, coeff(a2, 1.0), 0.0, t, 1), (a3, coeff(a3, t), t, math.inf, 1)]
    # at a relative tolerance of 2e-14 scipy often warns of roundoff; the
    # callers judge the result to 1e-13 or looser
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        moments = [sum(side**m * _piece(c, a, m, lo, hi, density, a2)
                       for a, c, lo, hi, side in pieces)
                   for m in (0, 1, 2)]
    entries = np.array([[moments[0], moments[1]], [moments[1], moments[2]]]) / sigma**2
    return np.where(np.isfinite(entries), entries, math.inf)
