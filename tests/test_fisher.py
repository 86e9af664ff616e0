"""Information matrices: closed form vs quadrature, structure,
semidefiniteness diagnostics and variance extraction."""

import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given, settings, strategies as st

from combined_oracle import combined_matrix
from epfit import fisher, scores, special_fn
from epfit.epd import EpdParams
from epfit.fisher import (
    FisherMatrix,
    fisher_for_family,
    psd_check,
    variances,
)
from epfit.scores import (
    CombinedHuber, CombinedPlain, Distorted, Huber, Plain, QWeighted, ShapeTriple,
)
from epfit.select import tune, volume
from epfit.simulate import generate, reference_design
from epfit.special_fn import DomainError

# quadrature entries recorded with the per-entry integration that the
# one-pass vector quadrature replaced (the Huber and combined ones are
# now checked against their closed forms), ("combined_closed") the closed
# forms of TestCombined's random grid at n = 100, recorded when each
# incomplete gamma was its own series or continued fraction, and
# ("q_closed") the q-weighted closed forms of TestQWeighted's random grid
# and of q = 1 at n = 115, recorded when they refused every shape <= 3/2
# and re-recorded when Gamma came from math.gamma (largest movement
# 1.5e-15 of the largest entry)
PINNED = json.loads((Path(__file__).parent / "data" / "fisher_pinned.json").read_text())


def assert_matrices_close(a, b, rtol, atol_scale=1e-8):
    scale = float(np.max(np.abs(b)))
    np.testing.assert_allclose(a, b, rtol=rtol, atol=atol_scale * scale)


@pytest.fixture
def no_integration(monkeypatch):
    """fisher binds no ``integrate``, and ``special_fn.integrate`` fails if
    anything calls it."""
    assert not hasattr(fisher, "integrate")

    def fail(*args):
        raise AssertionError("an information matrix called integrate")

    monkeypatch.setattr(special_fn, "integrate", fail)


def assert_rule_matches_closed(q, p):
    """The q-weighted matrix from the rule against its closed form: the
    same divergent entries, and the finite ones within 1e-13 of the
    largest and within their own error bounds."""
    quad = fisher_for_family(QWeighted(q), p, 1, dim=3, method="quad")
    closed = fisher_for_family(QWeighted(q), p, 1, dim=3, method="closed").entries
    finite = np.isfinite(closed)
    np.testing.assert_array_equal(np.isfinite(quad.entries), finite)
    gap = np.abs(quad.entries[finite] - closed[finite])
    assert np.all(gap <= 1e-13 * np.max(np.abs(closed[finite])))
    assert np.all(gap <= quad.element_errors[finite])


class TestCombined:
    def test_closed_matches_quadrature_random_grid(self):
        # scipy's quadrature, piece by piece (tests/combined_oracle.py)
        rng = np.random.default_rng(11)
        for _ in range(20):
            triple = ShapeTriple(*(1.6 + rng.random(3) * 2.0))
            k, t = 0.3 + rng.random(2) * 2.0
            p = EpdParams(rng.normal(), 0.5 + rng.random() * 2.0, triple.alpha2)
            family = (CombinedHuber if rng.integers(0, 2) else CombinedPlain)(triple, k, t)
            closed = fisher_for_family(family, p, 100, dim=2, method="closed")
            assert_matrices_close(closed.entries, 100 * combined_matrix(family, p.sigma),
                                  rtol=1e-6)
        # a cut at 0 leaves a piece of zero width
        for k, t in [(0.0, 1.1), (0.8, 0.0), (0.0, 0.0)]:
            for cls in (CombinedPlain, CombinedHuber):
                family = cls(ShapeTriple(2.0, 2.5, 3.0), k, t)
                p = EpdParams(0.3, 1.2, 2.5)
                closed = fisher_for_family(family, p, 100, dim=2, method="closed")
                assert_matrices_close(closed.entries, 100 * combined_matrix(family, p.sigma),
                                      rtol=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(shapes=st.lists(st.one_of(st.floats(0.3, 3.5), st.sampled_from([0.5, 1.0, 1.5, 2.0])),
                           min_size=3, max_size=3),
           cuts=st.lists(st.one_of(st.floats(0.05, 2.5), st.just(0.0)), min_size=2, max_size=2),
           huberized=st.booleans(), sigma=st.floats(0.5, 2.0))
    def test_closed_form_matches_scipy(self, shapes, cuts, huberized, sigma):
        # the same divergent entries, and the finite ones within 1e-13 of
        # the largest, at every branch shape, zero cuts and branches of
        # shape 1 included.  Left out, as open defects of the closed form:
        # a gamma of z = (2 a - 3 + m) / a2 just above 0, where the upper
        # one is Gamma(z) less the lower one and loses about log10(1 / z)
        # digits (scipy's algebraic weight fails there too), and a shape
        # near but not at 1, whose coefficient (a^2 - a)^2 loses about
        # log10(1 / |a - 1|) digits
        assume(not any(0.0 < (2.0 * a - 3.0 + m) / shapes[1] < 0.05
                       for a in shapes for m in (0, 1, 2)))
        assume(not any(0.0 < abs(a - 1.0) < 0.01 for a in shapes))
        family = (CombinedHuber if huberized else CombinedPlain)(ShapeTriple(*shapes), *cuts)
        closed = fisher_for_family(family, EpdParams(0.2, sigma, shapes[1]), 1)
        oracle = combined_matrix(family, sigma)
        assert closed.method == "closed_form"
        finite = np.isfinite(oracle)
        np.testing.assert_array_equal(np.isfinite(closed.entries), finite)
        assert np.all(closed.entries[~finite] == np.inf)
        if finite.any():
            gap = np.max(np.abs(closed.entries[finite] - oracle[finite]))
            assert gap <= 1e-13 * np.max(np.abs(oracle[finite]))

    def test_closed_form_matches_the_recorded_matrices(self):
        for rec in PINNED["combined_closed"]:
            cls = CombinedHuber if rec["huberized"] else CombinedPlain
            family = cls(ShapeTriple(*rec["triple"]), rec["k"], rec["t"])
            p = EpdParams(rec["mu"], rec["sigma"], rec["triple"][1])
            closed = fisher_for_family(family, p, 100, dim=2, method="closed")
            recorded = np.array(rec["entries"])
            gap = np.max(np.abs(closed.entries - recorded))
            assert gap <= 1e-13 * np.max(np.abs(recorded))

    def test_cross_entry_cancels_in_symmetric_case(self):
        F = fisher_for_family(CombinedPlain(ShapeTriple(2, 2, 2), 1.0, 1.0), EpdParams(0, 1, 2), 50,
                              dim=2, method="closed")
        assert F.entries[0, 1] == 0.0

    def test_closed_below_shape_three_halves(self, no_integration):
        family = CombinedPlain(ShapeTriple(1.52, 3.18, 1.11), 0.69, 0.67)
        F = fisher_for_family(family, EpdParams(0, 1, 3.18), 100, dim=2, method="closed")
        assert F.method == "closed_form" and F.element_errors is None
        gap = np.max(np.abs(F.entries - 100 * combined_matrix(family, 1.0)))
        assert gap <= 1e-13 * np.max(np.abs(F.entries))

    def test_auto_is_closed_below_shape_three_halves(self, no_integration):
        family = CombinedPlain(ShapeTriple(1.52, 3.18, 1.11), 0.69, 0.67)
        F = fisher_for_family(family, EpdParams(0, 1, 3.18), 100, dim=2, method="auto")
        closed = fisher_for_family(family, EpdParams(0, 1, 3.18), 100, dim=2, method="closed")
        assert F.method == "closed_form"
        assert F.entries.tobytes() == closed.entries.tobytes()

    def test_zero_cut_lets_the_tail_branch_diverge(self):
        # at k = 0 the left tail reaches y = 0, where S'(y)^2 ~ |y|^(2 * 1.2 - 4)
        F = fisher_for_family(CombinedPlain(ShapeTriple(1.2, 2.0, 2.0), 0.0, 1.0),
                              EpdParams(0, 1, 2), 1)
        assert F.method == "closed_form"
        np.testing.assert_array_equal(np.isinf(F.entries), [[True, False], [False, False]])
        # beside a positive cut the centre branch, of shape 2, reaches it
        F = fisher_for_family(CombinedPlain(ShapeTriple(1.2, 2.0, 2.0), 1e-3, 1.0),
                              EpdParams(0, 1, 2), 1)
        assert F.method == "closed_form" and np.all(np.isfinite(F.entries))
        # a divergent (mu, sigma) entry is inf whether the left tail alone
        # diverges or both tails do, though the odd moment takes the left
        # one with the opposite sign
        for t in (1.0, 0.0):
            F = fisher_for_family(CombinedPlain(ShapeTriple(0.9, 2.0, 0.9), 0.0, t),
                                  EpdParams(0, 1, 2), 1)
            assert F.entries[0, 0] == F.entries[0, 1] == F.entries[1, 0] == np.inf
            assert np.isfinite(F.entries[1, 1])

    def test_zero_cuts_keep_the_centre_branch_away(self):
        # both tails have shape 2, so S'(y) = 2 everywhere: E[S'^2] = 4 and
        # E[y^2 S'^2] = 4 Gamma(3/a2) / Gamma(1/a2) under the centre shape
        F = fisher_for_family(CombinedPlain(ShapeTriple(2.0, 1.4, 2.0), 0.0, 0.0),
                              EpdParams(0, 1, 2), 1)
        assert F.method == "closed_form"
        assert F.entries[0, 0] == pytest.approx(4.0, rel=1e-12)
        assert F.entries[1, 1] == pytest.approx(
            4.0 * math.gamma(3.0 / 1.4) / math.gamma(1.0 / 1.4), rel=1e-12)

    def test_huberized_zero_cut_has_no_slope(self):
        # t = 0 scales the right tail, of shape 1.1, to slope 0
        F = fisher_for_family(CombinedHuber(ShapeTriple(2, 2, 1.1), 1, 0), EpdParams(0, 1, 2), 1)
        assert F.method == "closed_form"
        assert F.entries[0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_branch_of_shape_one_has_no_slope(self):
        # a centre branch of shape 1 has slope 0: only the tails, of shape
        # 2 beyond |y| = 1 under the Laplace density, contribute
        F = fisher_for_family(CombinedPlain(ShapeTriple(2.0, 1.0, 2.0), 1.0, 1.0),
                              EpdParams(0, 1, 1), 1)
        assert F.method == "closed_form"
        np.testing.assert_allclose(F.entries, [[4.0 / math.e, 0.0], [0.0, 20.0 / math.e]],
                                   rtol=1e-12, atol=1e-14)
        # a tail of shape 1 reaching y = 0 beside a zero cut: (mu, mu) is
        # the value of its neighbour with k = 1e-9 and a1 = 1 + 1e-12 (at
        # k = 1e-12 and a1 = 1 + 1e-9 the tail adds 5.6e-7 near y = -k)
        F = fisher_for_family(CombinedPlain(ShapeTriple(1.0, 2.0, 2.0), 0.0, 1.0),
                              EpdParams(0, 1, 2), 1)
        near = fisher_for_family(CombinedPlain(ShapeTriple(1.0 + 1e-12, 2.0, 2.0), 1e-9, 1.0),
                                 EpdParams(0, 1, 2), 1)
        assert F.method == near.method == "closed_form"
        assert F.entries[0, 0] == pytest.approx(2.0, rel=1e-12)
        np.testing.assert_allclose(F.entries, near.entries, rtol=1e-8)

    def test_scaling_linear_in_n(self):
        family = CombinedPlain(ShapeTriple(2.0, 2.0, 2.0), 1.0, 1.0)
        F1 = fisher_for_family(family, EpdParams(0, 1.5, 2), 1, dim=2, method="closed")
        F2 = fisher_for_family(family, EpdParams(0, 1.5, 2), 77, dim=2, method="closed")
        np.testing.assert_allclose(F2.entries, 77.0 * F1.entries, rtol=1e-14)


class TestQWeighted:
    def test_closed_matches_quadrature_random_grid(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = EpdParams(rng.normal(), 0.5 + rng.random() * 2.0, 1.6 + rng.random() * 2.0)
            q = 0.5 + rng.random() * 0.5
            closed = fisher_for_family(QWeighted(q), p, 115, dim=3, method="closed")
            quad = fisher_for_family(QWeighted(q), p, 115, dim=3, method="quad")
            assert_matrices_close(closed.entries, quad.entries, rtol=1e-6)
        # above 3/2 the closed form is the one recorded before it took
        # lower shapes, bit for bit
        for rec in PINNED["q_closed"]:
            p = EpdParams(rec["mu"], rec["sigma"], rec["alpha"])
            closed = fisher_for_family(QWeighted(rec["q"]), p, 115, dim=3, method="closed")
            assert closed.entries.tobytes() == np.array(rec["entries"]).tobytes()
        # at or below 3/2 some entries diverge: the same ones on both
        # routes, and the finite ones agree to 1e-13 of the largest
        for _ in range(40):
            p = EpdParams(rng.normal(), math.exp(rng.uniform(-2.0, 2.0)),
                          0.55 + rng.random() * 0.95)
            q = 1.0 if rng.random() < 0.3 else 0.5 + rng.random() * 0.5
            closed = fisher_for_family(QWeighted(q), p, 115, dim=3, method="closed").entries
            quad = fisher_for_family(QWeighted(q), p, 115, dim=3, method="quad").entries
            finite = np.isfinite(closed)
            np.testing.assert_array_equal(np.isfinite(quad), finite)
            scale = np.max(np.abs(closed[finite]))
            assert np.max(np.abs(closed[finite] - quad[finite])) <= 1e-13 * scale

    @settings(max_examples=150, deadline=None)
    @given(q=st.floats(0.5, 1.0, exclude_max=True), alpha=st.floats(0.5, 20.0, exclude_min=True),
           log_sigma=st.floats(-2.0, 2.0))
    def test_rule_matches_closed_form(self, q, alpha, log_sigma):
        assert_rule_matches_closed(q, EpdParams(0.3, math.exp(log_sigma), alpha))

    def test_bounds_are_on_the_reported_entries(self):
        # element_errors scale with n as the entries do: at n = 115 the
        # rule's entries are within their bounds of the closed form's
        rng = np.random.default_rng(29)
        for _ in range(40):
            p = EpdParams(rng.normal(), math.exp(rng.uniform(-2.0, 2.0)), rng.uniform(0.55, 6.0))
            q = rng.uniform(0.5, 1.0)
            quad = fisher_for_family(QWeighted(q), p, 115, dim=3, method="quad")
            closed = fisher_for_family(QWeighted(q), p, 115, dim=3, method="closed").entries
            finite = np.isfinite(closed)
            assert np.all(np.abs(quad.entries[finite] - closed[finite])
                          <= quad.element_errors[finite])
            one = fisher_for_family(QWeighted(q), p, 1, dim=3, method="quad")
            assert quad.element_errors.tobytes() == (115 * one.element_errors).tobytes()

    def test_rule_near_shape_one_half(self):
        # the (sigma, alpha) block diverges as alpha falls to 1/2
        rng = np.random.default_rng(19)
        for alpha, q in zip(0.6 - 0.1 * rng.random(300), rng.uniform(0.5, 1.0, 300)):
            assert_rule_matches_closed(q, EpdParams(0.0, 1.0, alpha))

    @pytest.mark.parametrize("alpha", [1.7, 2.0, 3.0, 6.0])
    def test_plain_closed_form_matches_textbook_integrands(self, alpha):
        # at q = 1 the rule returns the closed form, so scipy integrates
        # the entries' integrands over y > 0, doubled, under the density
        sigma = 1.3
        c = alpha * (alpha - 1.0) / sigma

        def density(y):
            return alpha / (2.0 * sigma * math.gamma(1.0 / alpha)) * math.exp(-y**alpha)

        integrands = {
            (0, 0): lambda y: c * c * y ** (2.0 * alpha - 4.0),
            (1, 1): lambda y: c * c * y ** (2.0 * alpha - 2.0),
            (1, 2): lambda y: -c * (1.0 + alpha * math.log(y)) * y ** (2.0 * alpha - 2.0),
            (2, 2): lambda y: (1.0 + alpha * math.log(y)) ** 2 * y ** (2.0 * alpha - 2.0),
        }
        closed = fisher_for_family(Plain(), EpdParams(0.4, sigma, alpha), 1, dim=3,
                                   method="closed").entries
        for (i, j), g in integrands.items():
            value = 2.0 * sigma * sum(
                scipy.integrate.quad(lambda y: g(y) * density(y), lo, hi,
                                     epsabs=0.0, epsrel=1e-12, limit=200)[0]
                for lo, hi in ((0.0, 1.0), (1.0, np.inf)))
            assert closed[i, j] == pytest.approx(value, rel=1e-9)
            assert closed[j, i] == closed[i, j]
        assert np.all(closed[0, 1:] == 0.0) and np.all(closed[1:, 0] == 0.0)

    def test_unit_scale_matches_quadrature(self):
        # the scale-one case is the cleanest anchor for the closed form
        closed = fisher_for_family(QWeighted(0.8), EpdParams(0.0, 1.0, 2.1), 115,
                                   dim=3, method="closed")
        quad = fisher_for_family(QWeighted(0.8), EpdParams(0.0, 1.0, 2.1), 115,
                                 dim=3, method="quad")
        assert_matrices_close(closed.entries, quad.entries, rtol=1e-3)

    def test_location_row_zeros(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = EpdParams(rng.normal(), 0.5 + rng.random(), 1.6 + rng.random())
            F = fisher_for_family(QWeighted(0.6 + 0.4 * rng.random()), p, 10,
                                  dim=3, method="closed")
            assert F.entries[0, 1] == 0.0
            assert F.entries[0, 2] == 0.0

    def test_asymmetry_vanishes_at_q_one(self):
        F = fisher_for_family(QWeighted(1.0), EpdParams(0, 1, 2.1), 10, dim=3, method="closed")
        assert F.entries[1, 0] == 0.0
        np.testing.assert_allclose(F.entries, F.entries.T, atol=1e-12)

    def test_continuity_in_q_at_one(self):
        near = fisher_for_family(QWeighted(1.0 - 1e-6), EpdParams(0, 1, 2.1), 10,
                                 dim=3, method="closed")
        at = fisher_for_family(QWeighted(1.0), EpdParams(0, 1, 2.1), 10, dim=3, method="closed")
        assert float(np.max(np.abs(near.entries - at.entries))) < 1e-4 * float(np.max(np.abs(at.entries)))

    def test_q_domain(self):
        # the family refuses q outside (0, 1] before any matrix is built
        with pytest.raises(ValueError, match=r"q must be in \(0, 1\]"):
            fisher_for_family(QWeighted(1.2), EpdParams(0, 1, 2), 10, dim=3, method="closed")

    def test_two_dimensional_block(self):
        full = fisher_for_family(QWeighted(0.8), EpdParams(0, 1, 2.1), 115, dim=3, method="closed")
        block = fisher_for_family(QWeighted(0.8), EpdParams(0, 1, 2.1), 115, dim=2, method="closed")
        np.testing.assert_allclose(block.entries, full.entries[:2, :2])


class TestDistorted:
    def test_beta_zero_matches_plain_information(self):
        base = fisher_for_family(QWeighted(1.0), EpdParams(0, 1, 2.1), 115, dim=3, method="closed")
        dist = fisher_for_family(Distorted(0.0), EpdParams(0, 1, 2.1), 115, dim=3, method="quad")
        assert_matrices_close(dist.entries, base.entries, rtol=1e-5)

    def test_diagonal_positive_at_reference_point(self):
        F = fisher_for_family(Distorted(1e-2), EpdParams(0, 1, 2.1), 115, dim=3, method="quad")
        assert np.all(np.diag(F.entries) > 0.0)

    def test_distortion_shrinks_location_information(self):
        e0 = fisher_for_family(Distorted(0.0), EpdParams(0, 1, 2.1), 1,
                               dim=3, method="quad").entries[0, 0]
        e1 = fisher_for_family(Distorted(1e-2), EpdParams(0, 1, 2.1), 1,
                               dim=3, method="quad").entries[0, 0]
        assert e1 < e0


class TestHuberClosed:
    def test_matches_quadrature(self):
        # diag(P(1/alpha, r^alpha), Gamma(3/alpha)/Gamma(1/alpha) P(3/alpha, r^alpha)) n/sigma^2
        # against scipy's quadrature of the density and y^2 times it on [-r, r]
        rng = np.random.default_rng(14)
        for _ in range(100):
            r, alpha = rng.uniform(0.3, 4.0), rng.uniform(0.3, 12.0)
            p = EpdParams(0.2, math.exp(rng.uniform(-3.0, 3.0)), alpha)
            closed = fisher_for_family(Huber(r), p, 7)
            norm = alpha / math.gamma(1.0 / alpha)
            quad = 7.0 / p.sigma**2 * np.diag([
                scipy.integrate.quad(lambda y, m=m: y**m * norm * math.exp(-y**alpha), 0.0, r,
                                     epsabs=0.0, epsrel=2e-14, limit=200)[0]
                for m in (0, 2)])
            assert closed.method == "closed_form"
            assert closed.entries[0, 1] == closed.entries[1, 0] == 0.0
            scale = float(np.max(np.abs(quad)))
            assert np.max(np.abs(closed.entries - quad)) <= 1e-13 * scale

    @pytest.mark.parametrize("alpha", [0.0175, 0.017, 0.01])
    def test_gamma_overflow_below_shape_three_over_171_6(self, alpha):
        # Gamma(3 / alpha) exceeds the largest double below alpha = 3 / 171.62
        p = EpdParams(0.0, 1.0, alpha)
        if alpha > 3.0 / 171.62:
            assert fisher_for_family(Huber(1.5), p, 7).method == "closed_form"
        else:
            with pytest.raises(DomainError, match="overflows"):
                fisher_for_family(Huber(1.5), p, 7)

    def test_matches_recorded_quadrature(self):
        for rec in PINNED["huber"]:
            F = fisher_for_family(Huber(1.5), EpdParams(0.0, rec["sigma"], rec["alpha"]), 1)
            recorded = np.array(rec["entries"])
            assert np.max(np.abs(F.entries - recorded)) <= 1e-13 * np.max(np.abs(recorded))


def _distorted_group(rng, alpha, size):
    return [(Distorted(float(rng.uniform(1e-3, 0.05))),
             EpdParams(float(rng.normal()), float(np.exp(rng.uniform(-1.0, 1.0))), alpha))
            for _ in range(size)]


class TestGroupPass:
    """A group of likelihood fits at one shape, as a tune grid holds them:
    each gets the matrix it gets alone, judged on its own bounds, and the
    2x2 matrices with the shape fixed (dim 2) match the (mu, sigma) blocks
    of the matrices with the shape estimated (dim 3)."""

    def test_group_of_one_is_the_lone_matrix(self):
        data = generate(reference_design(1), 99)
        for alpha, family in itertools.product((0.8, 1.3, 2.0, 3.5),
                                               (Distorted(6e-3), QWeighted(0.8), Plain())):
            [rec] = tune(data, [family], alpha=alpha).candidates
            lone = fisher_for_family(family, rec.fit.params, len(data))
            assert rec.fit.fisher.method == lone.method
            assert rec.fit.fisher.entries.tobytes() == lone.entries.tobytes()
            if lone.element_errors is not None:
                assert rec.fit.fisher.element_errors.tobytes() == lone.element_errors.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("alpha", [0.8, 1.3, 2.0, 3.5])
    def test_groups_match_lone_matrices_within_their_bounds(self, alpha, dim):
        rng = np.random.default_rng(int(10 * alpha) + dim)
        for size in range(2, 7):
            fits = _distorted_group(rng, alpha, size)
            for family, p in fits:
                g = fisher_for_family(family, p, 1, method="quad")
                lone = fisher_for_family(family, p, 1, dim=dim, method="quad")
                entries, errors = lone.entries[:2, :2], lone.element_errors[:2, :2]
                assert g.method == lone.method
                np.testing.assert_array_equal(np.isinf(g.entries), np.isinf(entries))
                finite = np.isfinite(entries)
                bound = (g.element_errors + errors)[finite]
                assert np.all(np.abs(g.entries[finite] - entries[finite]) <= bound)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_benchmark_grid_at_shape_two(self, dim):
        grid = [Distorted(b) for b in (0.002, 0.004, 0.006, 0.008, 0.01)]
        for design in (1, 2, 3, 4):
            data = generate(reference_design(design), design)
            for family, rec in zip(grid, tune(data, grid, alpha=2.0).candidates):
                lone = fisher_for_family(family, rec.fit.params, len(data), dim=dim)
                assert rec.fit.fisher.method == lone.method == "quadrature"
                np.testing.assert_allclose(rec.fit.fisher.entries, lone.entries[:2, :2],
                                           rtol=1e-13, atol=0.0)

    def test_each_matrix_judged_on_its_own_bounds(self, monkeypatch):
        # the first fit's tilt is rough from node to node, so the rule one
        # level below disagrees with it; the others keep their own bounds
        fits = _distorted_group(np.random.default_rng(6), 2.0, 3)
        rough_beta = fits[0][0].beta

        def weight(q, beta):
            real = scores.likelihood_weight(q, beta)

            def rough(lf):
                out = real(lf)
                return out * (1.0 + 1e-3 * (np.arange(out.size) % 2)) if np.ndim(out) else out

            return rough if beta == rough_beta else real

        monkeypatch.setattr(fisher, "likelihood_weight", weight)
        methods = [fisher_for_family(family, p, 1).method for family, p in fits]
        assert methods == ["quadrature-partial", "quadrature", "quadrature"]


class TestPsd:
    def test_identity_passes(self):
        d = psd_check(np.eye(2))
        assert d.determinant_test and d.pivot_test
        assert d.min_eigenvalue == pytest.approx(1.0)

    def test_indefinite_fails_determinant(self):
        d = psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not d.determinant_test
        assert not d.pivot_test

    def test_zero_pivot_with_a_vanishing_row_passes(self):
        d = psd_check(np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert d.determinant_test and d.pivot_test

    def test_zero_pivot_with_a_nonzero_row_fails(self):
        d = psd_check(np.array([[0.0, 1.0], [1.0, 1.0]]))
        assert not d.determinant_test
        assert not d.pivot_test

    def test_combined_passes_over_random_grid(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            triple = ShapeTriple(*(1.55 + rng.random(3) * 2.5))
            k, t = 0.1 + rng.random(2) * 2.5
            p = EpdParams(rng.normal(), 0.4 + rng.random() * 2.0, triple.alpha2)
            family = (CombinedHuber if rng.integers(0, 2) else CombinedPlain)(triple, k, t)
            F = fisher_for_family(family, p, 100, dim=2, method="closed")
            d = psd_check(F)
            assert d.determinant_test and d.pivot_test

    def test_asymmetry_reported(self):
        F = fisher_for_family(QWeighted(0.8), EpdParams(0, 1, 2.1), 115, dim=3, method="closed")
        d = psd_check(F)
        assert d.asymmetry > 0.0


class TestVariances:
    def test_diagonal_inverse(self):
        rep = variances(FisherMatrix(2.0 * np.eye(2), 2, 1, "closed_form"))
        assert rep.raw == (0.5, 0.5)
        assert not rep.pseudo_inverse

    def test_singular_uses_pseudo_inverse(self):
        rep = variances(FisherMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]), 2, 1, "closed_form"))
        assert rep.pseudo_inverse
        assert rep.raw[0] == pytest.approx(0.25, rel=1e-10)
        assert rep.raw[1] == pytest.approx(0.25, rel=1e-10)

    def test_negative_diagonal_flagged(self):
        rep = variances(FisherMatrix(np.array([[-2.0, 0.0], [0.0, 4.0]]), 2, 1, "closed_form"))
        assert rep.negative == (True, False)
        assert rep.abs_values[0] == pytest.approx(0.5)

    def test_overflowed_matrix_inverts_its_finite_block(self):
        # the shape an overflowed quadrature left: an infinite corner
        # entry and two identical rows; np.linalg.inv raises on it.  The
        # location gets variance 0 (infinite information) and the
        # singular (sigma, alpha) block its pseudo-inverse
        entries = np.array([
            [np.inf, -1.1169201648680040e128, -1.1913815091925376e129],
            [6.7861122571073626e173, 8.2311772214476452e52, -5.2679534217264930e54],
            [6.7861122571073626e173, 8.2311772214476452e52, -5.2679534217264930e54],
        ])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(entries)
        rep = variances(FisherMatrix(entries, 3, 110, "quadrature-partial"))
        assert rep.raw[0] == 0.0
        np.testing.assert_allclose(rep.raw[1:], np.diag(np.linalg.pinv(entries[1:, 1:])),
                                   rtol=1e-12)
        assert rep.pseudo_inverse

    def test_non_finite_block_gives_nan(self):
        entries = np.array([[np.inf, 0.0, 0.0], [1.0, 2.0, np.inf], [1.0, np.inf, 3.0]])
        rep = variances(FisherMatrix(entries, 3, 10, "quadrature-partial"))
        assert rep.raw[0] == 0.0
        assert all(np.isnan(v) for v in rep.raw[1:])
        assert rep.negative == (False, False, False)
        assert not rep.pseudo_inverse

    def test_failed_inverse_of_finite_matrix_uses_pseudo_inverse(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", fail)
        rep = variances(FisherMatrix(2.0 * np.eye(2), 2, 1, "closed_form"))
        assert rep.pseudo_inverse
        assert rep.raw == pytest.approx((0.5, 0.5), rel=1e-12)

    def test_reference_magnitude(self):
        # distorted-score fit analog: the location variance lands within
        # a factor of two of the documented 0.0089 reference value
        F = fisher_for_family(Distorted(1e-2), EpdParams(3.1201, 1.6752, 2.1), 114,
                              dim=2, method="quad")
        rep = variances(F)
        assert 0.5 * 0.0089 < rep.raw[0] < 2.0 * 0.0089


class TestDispatch:
    def test_family_routing(self, no_integration):
        p = EpdParams(0, 1, 2.0)
        assert fisher_for_family(Plain(), p, 10).method == "closed_form"
        assert fisher_for_family(Huber(1.3), p, 10).method == "closed_form"
        assert fisher_for_family(QWeighted(0.8), p, 10).dim == 2
        assert fisher_for_family(QWeighted(0.8), p, 10, dim=3).dim == 3
        assert fisher_for_family(Plain(), p, 10, dim=3).dim == 3
        assert fisher_for_family(Distorted(0.01), p, 10).method == "quadrature"
        assert fisher_for_family(Distorted(0.01), p, 10, dim=3).dim == 3
        hub = CombinedHuber(ShapeTriple(2, 2, 2), 1.0, 1.0)
        assert fisher_for_family(hub, p, 10).method == "closed_form"
        # no distortion is the plain likelihood, with its closed form
        assert fisher_for_family(Distorted(0.0), p, 10).method == "closed_form"
        # which is closed at every shape; TestLowShapeRegime takes the
        # shapes below 3/2 but 1, where the (sigma, alpha) block is
        # singular and its variance checks do not apply
        cases = itertools.product((1.0, 2.0, 8.0), (Plain(), QWeighted(0.8), Distorted(0.0)),
                                  ("auto", "closed"), (2, 3))
        for alpha, family, method, dim in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                F = fisher_for_family(family, EpdParams(0.1, 1.3, alpha), 110, dim=dim,
                                      method=method)
            assert F.method == "closed_form"
            np.testing.assert_array_equal(np.isinf(F.entries), divergent(family, alpha, dim))

    @pytest.mark.parametrize("family", [Distorted(0.01)], ids=["sd"])
    def test_closed_mode_without_closed_form_raises(self, family):
        with pytest.raises(DomainError, match="closed-form"):
            fisher_for_family(family, EpdParams(0, 1, 2.0), 10, method="closed")

    @pytest.mark.parametrize("family", [
        Huber(1.5), CombinedPlain(ShapeTriple(2, 2, 2), 1.0, 1.0),
        CombinedHuber(ShapeTriple(1.2, 0.9, 2.4), 0.0, 1.0),
    ], ids=["huber", "combined", "combined_huber"])
    def test_quadrature_is_refused(self, family):
        with pytest.raises(DomainError, match="its closed form is exact"):
            fisher_for_family(family, EpdParams(0, 1, 2.0), 10, method="quad")

    @pytest.mark.parametrize("family", [
        Plain(), QWeighted(0.8), Distorted(6e-3), Huber(1.5),
        CombinedPlain(ShapeTriple(2, 2, 2), 1.0, 1.0),
    ], ids=["plain", "q0.8", "beta6e-3", "huber", "combined"])
    @pytest.mark.parametrize("option, message", [
        (dict(method="bogus"), "method must be closed/quad/auto"),
        (dict(dim=7), "dim must be 2 or 3"),
    ], ids=["method", "dim"])
    def test_invalid_method_or_dim_raises(self, family, option, message):
        with pytest.raises(ValueError, match=message):
            fisher_for_family(family, EpdParams(0, 1, 2.0), 10, **option)

    @pytest.mark.parametrize("family", [
        Huber(1.5), CombinedPlain(ShapeTriple(2, 2, 2), 1.0, 1.0),
        CombinedHuber(ShapeTriple(2, 2, 2), 1.0, 1.0),
    ], ids=["huber", "combined", "combined_huber"])
    @pytest.mark.parametrize("method", ["closed", "quad", "auto"])
    def test_dim3_without_likelihood_raises(self, family, method):
        # these families have no shape score, so no 3x3 matrix
        with pytest.raises(ValueError, match="dim 3 needs a likelihood family"):
            fisher_for_family(family, EpdParams(0, 1, 2.0), 10, dim=3, method=method)

    def test_likelihood_matrices_never_integrate(self, no_integration):
        cases = itertools.product((0.45, 0.8, 1.2, 2.0, 3.5, 8.0),
                                  (Plain(), QWeighted(0.8), Distorted(6e-3)), ("quad", "auto"), (2, 3))
        for alpha, family, method, dim in cases:
            F = fisher_for_family(family, EpdParams(0.1, 1.3, alpha), 110, dim=dim, method=method)
            assert F.dim == dim

    def test_closed_mode_gives_the_huber_matrix(self, no_integration):
        F = fisher_for_family(Huber(1.3), EpdParams(0, 1, 2.0), 10, method="closed")
        assert F.method == "closed_form" and F.element_errors is None

    def test_low_shape_plain_degrades_to_partial(self):
        # below shape 3/2 the location entry diverges: the plain matrix
        # stays closed form with that entry inf, and only a quadrature
        # matrix is flagged partial, with per-entry bounds kept
        F = fisher_for_family(Plain(), EpdParams(0, 1, 1.2), 10)
        assert F.method == "closed_form"
        assert F.entries[0, 0] == np.inf and F.element_errors is None
        F = fisher_for_family(Distorted(6e-3), EpdParams(0, 1, 1.2), 10)
        assert F.method == "quadrature-partial"
        assert F.element_errors is not None


def assert_pinned(entries, recorded, zeros=()):
    """1e-9 relative agreement with recorded entries; the entries that
    vanish by parity are exactly 0.0, where the recording left noise
    below 1e-9 max|F|."""
    recorded = np.asarray(recorded)
    scale = float(np.max(np.abs(recorded)))
    exact = np.zeros(recorded.shape, dtype=bool)
    for ij in zeros:
        if max(ij) < recorded.shape[0]:
            exact[ij] = True
    np.testing.assert_allclose(entries[~exact], recorded[~exact], rtol=1e-9, atol=0.0)
    assert np.all(np.abs(recorded[exact]) <= 1e-9 * scale)
    assert np.all(entries[exact] == 0.0)


class TestPinnedQuadrature:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_q_weighted(self, dim):
        for rec in PINNED["q"]:
            p = EpdParams(0.0, rec["sigma"], rec["alpha"])
            F = fisher_for_family(QWeighted(rec["q"]), p, 1, dim=dim, method="quad")
            zeros = [(0, 1), (0, 2)] + ([(1, 0), (2, 0)] if rec["q"] == 1.0 else [])
            assert_pinned(F.entries, np.array(rec["entries"])[:dim, :dim], zeros)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_distorted(self, dim):
        for rec in PINNED["beta"]:
            p = EpdParams(0.0, rec["sigma"], rec["alpha"])
            F = fisher_for_family(Distorted(rec["beta"]), p, 1, dim=dim, method="quad")
            assert_pinned(F.entries, np.array(rec["entries"])[:dim, :dim], [(0, 1), (0, 2)])

    def test_huber_and_combined(self):
        for rec in PINNED["huber"]:
            F = fisher_for_family(Huber(1.5), EpdParams(0.0, rec["sigma"], rec["alpha"]), 1)
            recorded = np.array(rec["entries"])
            np.testing.assert_allclose(F.entries, recorded, rtol=1e-9,
                                       atol=1e-9 * float(np.max(np.abs(recorded))))
        for rec in PINNED["combined"]:
            cls = CombinedHuber if rec["huberized"] else CombinedPlain
            family = cls(ShapeTriple(*rec["triple"]), rec["k"], rec["t"])
            p = EpdParams(0.0, rec["sigma"], rec["triple"][1])
            F = fisher_for_family(family, p, 1, dim=2)
            assert F.method == "closed_form"
            assert_pinned(F.entries, rec["entries"])

    def test_location_entry_near_its_threshold(self):
        # the location integrand behaves like y^(2 alpha - 4), barely
        # integrable just above alpha = 3/2; the quadrature may not drift
        # farther from the closed form than the recorded integration did
        for rec in PINNED["near_threshold"]:
            p = EpdParams(0.0, 1.0, rec["alpha"])
            quad = fisher_for_family(QWeighted(rec["q"]), p, 1, dim=3, method="quad").entries[0, 0]
            closed = fisher_for_family(QWeighted(rec["q"]), p, 1,
                                       dim=3, method="closed").entries[0, 0]
            assert abs(quad - closed) / abs(closed) <= rec["rel_err"]

    @pytest.mark.parametrize("alpha", [1.0045, 1.02, 1.1, 1.6, 2.1, 4.0])
    @pytest.mark.parametrize("sigma", [1.0, 0.3])
    def test_sigma_mu_entry_above_shape_one(self, alpha, sigma):
        # the (sigma, mu) integrand behaves like y^(3 alpha - 4), barely
        # integrable just above alpha = 1; its closed form e_sm holds for
        # every alpha > 1
        q = 0.8
        F = fisher_for_family(QWeighted(q), EpdParams(0.0, sigma, alpha), 1, dim=3, method="quad")
        e_sm = (2.0 ** (q - 1.0) * math.gamma(1.0 / alpha) ** (q - 2.0) * (q - 1.0)
                * alpha ** (4.0 - q) * (alpha - 1.0) * sigma ** (q - 2.0)
                * (2.0 - q) ** (3.0 / alpha - 3.0) * math.gamma(3.0 - 3.0 / alpha))
        error = abs(F.entries[1, 0] - e_sm)
        assert error <= 1e-12 * abs(e_sm)
        # the bound covers the error, up to the rounding of e_sm itself
        assert error <= F.element_errors[1, 0] + 4.0 * np.finfo(float).eps * abs(e_sm)


# shape at or below which an entry of the weighted-family matrices
# diverges; (sigma, mu) and (alpha, mu) vanish without a deformation
DIVERGENCE_RULE = {(0, 0): 1.5, (1, 0): 1.0, (2, 0): 1.0,
                   (1, 1): 0.5, (1, 2): 0.5, (2, 1): 0.5, (2, 2): 0.5}


def divergent(family, alpha, dim):
    """The entries DIVERGENCE_RULE makes infinite."""
    deformed = family.likelihood != (1.0, 0.0)
    expected = np.zeros((dim, dim), dtype=bool)
    for (i, j), threshold in DIVERGENCE_RULE.items():
        if max(i, j) < dim and alpha <= threshold and (j > 0 or i == 0 or deformed):
            expected[i, j] = True
    return expected


class TestLowShapeRegime:
    @pytest.mark.parametrize("family", [Plain(), QWeighted(0.8), Distorted(0.0), Distorted(6e-3)],
                             ids=["plain", "q0.8", "beta0", "beta6e-3"])
    @pytest.mark.parametrize("alpha", [0.3, 0.45, 0.5, 0.55, 0.7, 0.9, 1.2, 1.45, 1.5])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_divergent_entries_reported_by_rule(self, family, alpha, dim, capfd, no_integration):
        n = 110
        closed = family.likelihood[1] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F = fisher_for_family(family, EpdParams(0.1, 1.3, alpha), n, dim=dim)
            if closed:
                forced = fisher_for_family(family, EpdParams(0.1, 1.3, alpha), n, dim=dim,
                                           method="closed")
                assert forced.entries.tobytes() == F.entries.tobytes()
            diag = psd_check(F)
            rep = variances(F)
            vol = volume(F, n)
        assert capfd.readouterr() == ("", "")
        expected = divergent(family, alpha, dim)
        np.testing.assert_array_equal(np.isinf(F.entries), expected)
        assert np.all(F.entries[~expected] > -np.inf)
        assert F.method == ("closed_form" if closed else "quadrature-partial")
        assert not diag.determinant_test and not diag.pivot_test
        assert math.isnan(diag.min_eigenvalue) and math.isnan(diag.asymmetry)
        assert math.isinf(vol)
        # infinite information gives variance 0; the finite (sigma, alpha)
        # block gives the diagonal of its inverse
        assert rep.raw[0] == 0.0
        if alpha > 0.5:
            block = F.entries[1:, 1:]
            np.testing.assert_allclose(rep.raw[1:], np.diag(np.linalg.inv(block)), rtol=1e-12)
            assert all(v > 0.0 for v in rep.raw[1:])
        else:
            assert rep.raw == (0.0,) * dim
