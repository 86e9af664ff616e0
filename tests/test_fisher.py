"""Information matrices: closed form vs quadrature, structure,
semidefiniteness diagnostics and variance extraction."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from epfit.epd import EpdParams
from epfit.fisher import (
    FisherMatrix,
    fisher_combined,
    fisher_distorted,
    fisher_for_family,
    fisher_q,
    psd_check,
    variances,
)
from epfit.scores import (
    CombinedHuber, CombinedPlain, Distorted, Huber, Plain, QWeighted, ShapeTriple,
)
from epfit.select import volume
from epfit.special_fn import DomainError

# quadrature entries recorded with the per-entry integration that the
# one-pass vector quadrature replaced
PINNED = json.loads((Path(__file__).parent / "data" / "fisher_pinned.json").read_text())


def assert_matrices_close(a, b, rtol, atol_scale=1e-8):
    scale = float(np.max(np.abs(b)))
    np.testing.assert_allclose(a, b, rtol=rtol, atol=atol_scale * scale)


class TestCombined:
    def test_closed_matches_quadrature_random_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            triple = ShapeTriple(*(1.6 + rng.random(3) * 2.0))
            k, t = 0.3 + rng.random(2) * 2.0
            p = EpdParams(rng.normal(), 0.5 + rng.random() * 2.0, triple.alpha2)
            family = (CombinedHuber if rng.integers(0, 2) else CombinedPlain)(triple, k, t)
            closed = fisher_combined(p, family, 100, method="closed")
            quad = fisher_combined(p, family, 100, method="quad")
            assert_matrices_close(closed.entries, quad.entries, rtol=1e-6)

    def test_cross_entry_cancels_in_symmetric_case(self):
        F = fisher_combined(EpdParams(0, 1, 2), CombinedPlain(ShapeTriple(2, 2, 2), 1.0, 1.0), 50)
        assert F.entries[0, 1] == 0.0

    def test_shape_below_threshold_raises(self):
        with pytest.raises(DomainError):
            fisher_combined(
                EpdParams(0, 1, 3.18), CombinedPlain(ShapeTriple(1.52, 3.18, 1.11), 0.69, 0.67),
                100, method="closed",
            )

    def test_auto_falls_back_to_quadrature(self):
        F = fisher_combined(
            EpdParams(0, 1, 3.18), CombinedPlain(ShapeTriple(1.52, 3.18, 1.11), 0.69, 0.67),
            100, method="auto",
        )
        assert F.method == "quadrature"

    def test_scaling_linear_in_n(self):
        family = CombinedPlain(ShapeTriple(2.0, 2.0, 2.0), 1.0, 1.0)
        F1 = fisher_combined(EpdParams(0, 1.5, 2), family, 1)
        F2 = fisher_combined(EpdParams(0, 1.5, 2), family, 77)
        np.testing.assert_allclose(F2.entries, 77.0 * F1.entries, rtol=1e-14)


class TestQWeighted:
    def test_closed_matches_quadrature_random_grid(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = EpdParams(rng.normal(), 0.5 + rng.random() * 2.0, 1.6 + rng.random() * 2.0)
            q = 0.5 + rng.random() * 0.5
            closed = fisher_q(p, q, 115, method="closed")
            quad = fisher_q(p, q, 115, method="quad")
            assert_matrices_close(closed.entries, quad.entries, rtol=1e-6)

    def test_unit_scale_matches_quadrature(self):
        # the scale-one case is the cleanest anchor for the closed form
        closed = fisher_q(EpdParams(0.0, 1.0, 2.1), 0.8, 115, method="closed")
        quad = fisher_q(EpdParams(0.0, 1.0, 2.1), 0.8, 115, method="quad")
        assert_matrices_close(closed.entries, quad.entries, rtol=1e-3)

    def test_location_row_zeros(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = EpdParams(rng.normal(), 0.5 + rng.random(), 1.6 + rng.random())
            F = fisher_q(p, 0.6 + 0.4 * rng.random(), 10, method="closed")
            assert F.entries[0, 1] == 0.0
            assert F.entries[0, 2] == 0.0

    def test_asymmetry_vanishes_at_q_one(self):
        F = fisher_q(EpdParams(0, 1, 2.1), 1.0, 10, method="closed")
        assert F.entries[1, 0] == 0.0
        np.testing.assert_allclose(F.entries, F.entries.T, atol=1e-12)

    def test_continuity_in_q_at_one(self):
        near = fisher_q(EpdParams(0, 1, 2.1), 1.0 - 1e-6, 10, method="closed")
        at = fisher_q(EpdParams(0, 1, 2.1), 1.0, 10, method="closed")
        assert float(np.max(np.abs(near.entries - at.entries))) < 1e-4 * float(np.max(np.abs(at.entries)))

    def test_q_domain(self):
        with pytest.raises(DomainError):
            fisher_q(EpdParams(0, 1, 2), 1.2, 10)

    def test_two_dimensional_block(self):
        full = fisher_q(EpdParams(0, 1, 2.1), 0.8, 115, method="closed")
        block = fisher_q(EpdParams(0, 1, 2.1), 0.8, 115, method="closed", dim=2)
        np.testing.assert_allclose(block.entries, full.entries[:2, :2])


class TestDistorted:
    def test_beta_zero_matches_plain_information(self):
        base = fisher_q(EpdParams(0, 1, 2.1), 1.0, 115, method="closed")
        dist = fisher_distorted(EpdParams(0, 1, 2.1), 0.0, 115)
        assert_matrices_close(dist.entries, base.entries, rtol=1e-5)

    def test_diagonal_positive_at_reference_point(self):
        F = fisher_distorted(EpdParams(0, 1, 2.1), 1e-2, 115)
        assert np.all(np.diag(F.entries) > 0.0)

    def test_distortion_shrinks_location_information(self):
        e0 = fisher_distorted(EpdParams(0, 1, 2.1), 0.0, 1).entries[0, 0]
        e1 = fisher_distorted(EpdParams(0, 1, 2.1), 1e-2, 1).entries[0, 0]
        assert e1 < e0


class TestPsd:
    def test_identity_passes(self):
        d = psd_check(np.eye(2))
        assert d.determinant_test and d.pivot_test
        assert d.min_eigenvalue == pytest.approx(1.0)

    def test_indefinite_fails_determinant(self):
        d = psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not d.determinant_test
        assert not d.pivot_test

    def test_combined_passes_over_random_grid(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            triple = ShapeTriple(*(1.55 + rng.random(3) * 2.5))
            k, t = 0.1 + rng.random(2) * 2.5
            p = EpdParams(rng.normal(), 0.4 + rng.random() * 2.0, triple.alpha2)
            family = (CombinedHuber if rng.integers(0, 2) else CombinedPlain)(triple, k, t)
            F = fisher_combined(p, family, 100)
            d = psd_check(F)
            assert d.determinant_test and d.pivot_test

    def test_asymmetry_reported(self):
        F = fisher_q(EpdParams(0, 1, 2.1), 0.8, 115, method="closed")
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
        F = fisher_distorted(EpdParams(3.1201, 1.6752, 2.1), 1e-2, 114, dim=2)
        rep = variances(F)
        assert 0.5 * 0.0089 < rep.raw[0] < 2.0 * 0.0089


class TestDispatch:
    def test_family_routing(self):
        p = EpdParams(0, 1, 2.0)
        assert fisher_for_family(Plain(), p, 10).method == "closed_form"
        assert fisher_for_family(Huber(1.3), p, 10).method == "quadrature"
        assert fisher_for_family(QWeighted(0.8), p, 10).dim == 2
        assert fisher_for_family(QWeighted(0.8), p, 10, dim=3).dim == 3
        assert fisher_for_family(Plain(), p, 10, dim=3).dim == 3
        assert fisher_for_family(Distorted(0.01), p, 10).method == "quadrature"
        assert fisher_for_family(Distorted(0.01), p, 10, dim=3).dim == 3
        hub = CombinedHuber(ShapeTriple(2, 2, 2), 1.0, 1.0)
        assert fisher_for_family(hub, p, 10).method == "closed_form"

    def test_low_shape_plain_degrades_to_partial(self):
        # below shape 3/2 the location entry integral diverges, so the
        # matrix is flagged partial with per-entry bounds kept
        F = fisher_for_family(Plain(), EpdParams(0, 1, 1.2), 10)
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
            F = fisher_q(p, rec["q"], 1, method="quad", dim=dim)
            zeros = [(0, 1), (0, 2)] + ([(1, 0), (2, 0)] if rec["q"] == 1.0 else [])
            assert_pinned(F.entries, np.array(rec["entries"])[:dim, :dim], zeros)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_distorted(self, dim):
        for rec in PINNED["beta"]:
            p = EpdParams(0.0, rec["sigma"], rec["alpha"])
            F = fisher_distorted(p, rec["beta"], 1, dim=dim)
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
            F = fisher_combined(p, family, 1, method="quad")
            assert_pinned(F.entries, rec["entries"])

    def test_location_entry_near_its_threshold(self):
        # the location integrand behaves like y^(2 alpha - 4), barely
        # integrable just above alpha = 3/2; the quadrature may not drift
        # farther from the closed form than the recorded integration did
        for rec in PINNED["near_threshold"]:
            p = EpdParams(0.0, 1.0, rec["alpha"])
            quad = fisher_q(p, rec["q"], 1, method="quad").entries[0, 0]
            closed = fisher_q(p, rec["q"], 1, method="closed").entries[0, 0]
            assert abs(quad - closed) / abs(closed) <= rec["rel_err"]


# shape at or below which an entry of the weighted-family matrices
# diverges; (sigma, mu) and (alpha, mu) vanish without a deformation
DIVERGENCE_RULE = {(0, 0): 1.5, (1, 0): 1.0, (2, 0): 1.0,
                   (1, 1): 0.5, (1, 2): 0.5, (2, 1): 0.5, (2, 2): 0.5}


class TestLowShapeRegime:
    @pytest.mark.parametrize("family", [Plain(), QWeighted(0.8), Distorted(6e-3)],
                             ids=["plain", "q0.8", "beta6e-3"])
    @pytest.mark.parametrize("alpha", [0.3, 0.45, 0.7, 0.9, 1.2, 1.45])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_divergent_entries_reported_by_rule(self, family, alpha, dim, capfd):
        n = 110
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F = fisher_for_family(family, EpdParams(0.1, 1.3, alpha), n, dim=dim)
            diag = psd_check(F)
            rep = variances(F)
            vol = volume(F, n)
        assert capfd.readouterr() == ("", "")
        deformed = family.likelihood != (1.0, 0.0)
        expected = np.zeros((dim, dim), dtype=bool)
        for (i, j), threshold in DIVERGENCE_RULE.items():
            if max(i, j) < dim and alpha <= threshold and (j > 0 or i == 0 or deformed):
                expected[i, j] = True
        np.testing.assert_array_equal(np.isinf(F.entries), expected)
        assert np.all(F.entries[~expected] > -np.inf)
        assert F.method == "quadrature-partial"
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
