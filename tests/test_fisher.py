"""Information matrices: closed form vs quadrature, structure,
semidefiniteness diagnostics and variance extraction."""

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
from epfit.special_fn import DomainError


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

    def test_overflowed_matrix_gives_nan(self):
        # the shape an overflowed quadrature leaves: an infinite corner
        # entry and two identical rows; np.linalg.inv raises on it
        entries = np.array([
            [np.inf, -1.1169201648680040e128, -1.1913815091925376e129],
            [6.7861122571073626e173, 8.2311772214476452e52, -5.2679534217264930e54],
            [6.7861122571073626e173, 8.2311772214476452e52, -5.2679534217264930e54],
        ])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(entries)
        with np.errstate(all="ignore"):
            rep = variances(FisherMatrix(entries, 3, 110, "quadrature-partial"))
        assert all(np.isnan(v) for v in rep.raw)
        assert all(np.isnan(v) for v in rep.abs_values)
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
