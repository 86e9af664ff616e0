"""Model-selection tools: volume, criteria, sorted mean absolute error
and the tuning grid search."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from epfit.epd import EpdParams, sample
from epfit.estimate import fit_ee_location_scale
from epfit.fisher import FisherMatrix, fisher_for_family
from epfit.scores import CombinedHuber, Distorted, Huber, Plain, QWeighted, ShapeTriple
from epfit.select import (
    artificial_sample,
    evaluate_fit,
    ic_scores,
    mae,
    replicated_mae,
    tune,
    volume,
)

float_lists = st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40)


def _matrix(entries, n=1):
    entries = np.asarray(entries, dtype=float)
    return FisherMatrix(entries, entries.shape[0], n, "closed_form")


class TestVolume:
    def test_identity_reference_value(self):
        # rank 2 and dimension 2
        assert volume(_matrix(np.eye(2)), n=1) == pytest.approx(4.0 * math.pi, rel=1e-12)

    def test_determinant_homogeneity(self):
        base = volume(_matrix(np.eye(2)), n=10)
        scaled = volume(_matrix(4.0 * np.eye(2)), n=10)
        assert scaled == pytest.approx(base / 4.0, rel=1e-12)

    def test_singular_is_infinite(self):
        assert volume(_matrix([[1.0, 1.0], [1.0, 1.0]]), n=10) == math.inf

    def test_doubling_n_shrinks_volume(self):
        p = EpdParams(0, 1, 2.1)
        small = fisher_for_family(QWeighted(0.8), p, 110, dim=3, method="closed")
        big = fisher_for_family(QWeighted(0.8), p, 220, dim=3, method="closed")
        assert volume(big, 220) < volume(small, 110)

    def test_reference_order_of_magnitude(self):
        F = fisher_for_family(Distorted(1e-2), EpdParams(3.1201, 1.6752, 2.1), 114,
                              dim=2, method="quad")
        vol = volume(F, 114)
        assert 1e-4 < vol < 1e-2


class TestIcScores:
    def test_arithmetic(self, monkeypatch):
        # pin the absolute score sum to 10 and check the penalties
        import epfit.select as sel
        monkeypatch.setattr(sel, "score", lambda fam, x, p: np.full(100, 0.1))
        aic, caic, bic = sel.ic_scores(np.zeros(100), EpdParams(0, 1, 2), Plain(), p=2, n=100)
        assert aic == pytest.approx(24.0)
        assert caic == pytest.approx(20.0 + 400.0 / 97.0)
        assert bic == pytest.approx(20.0 + 2.0 * math.log(100.0))

    def test_huber_sum_by_hand(self):
        # |S| sums to 3 for these residuals, so the base term is 6
        data = np.array([0.5, -0.5, 3.0, -3.0])
        from epfit.scores import Huber
        aic, caic, bic = ic_scores(data, EpdParams(0, 1, 2), Huber(1.0), p=2, n=4)
        assert aic == pytest.approx(10.0)
        assert caic == pytest.approx(6.0 + 16.0)
        assert bic == pytest.approx(6.0 + 2.0 * math.log(4.0))

    def test_corrected_penalty_vanishes_for_large_n(self):
        data = sample(EpdParams(0, 1, 2), 5000, 3)
        params = EpdParams(0, 1, 2)
        aic, caic, _ = ic_scores(data, params, Plain(), p=2, n=5000)
        assert caic - aic == pytest.approx(0.0, abs=0.01)

    def test_bic_exceeds_aic_from_eight(self):
        data = sample(EpdParams(0, 1, 2), 200, 4)
        for n in (8, 20, 200):
            aic, _, bic = ic_scores(data[:n], EpdParams(0, 1, 2), Plain(), p=2, n=n)
            assert bic > aic

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            ic_scores(np.zeros(3), EpdParams(0, 1, 2), Plain(), p=2, n=3)


class TestMae:
    def test_identical_zero(self):
        assert mae([1, 2, 3], [1, 2, 3]) == 0.0

    def test_sort_invariance(self):
        assert mae([0, 1], [1, 0]) == 0.0

    def test_shifted(self):
        assert mae([0, 2], [1, 3]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mae([1, 2], [1, 2, 3])

    @given(float_lists)
    def test_symmetry_and_identity(self, xs):
        ys = list(reversed(xs))
        assert mae(xs, xs) == 0.0
        assert mae(xs, ys) == pytest.approx(mae(ys, xs))
        # any permutation of either argument leaves the value unchanged
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(xs))
        assert mae(np.asarray(xs)[perm], ys) == pytest.approx(mae(xs, ys))


class TestArtificialSamples:
    def test_sizes_and_determinism(self):
        params = EpdParams(0.5, 1.2, 2.0)
        seed = np.random.SeedSequence(5)
        a = artificial_sample(params, Plain(), (7, 101, 2), np.random.SeedSequence(5))
        b = artificial_sample(params, Plain(), (7, 101, 2), np.random.SeedSequence(5))
        assert len(a) == 110
        np.testing.assert_array_equal(a, b)


def _looped_mae(data, params, family, seed, keys, sizes):
    """replicated_mae as one artificial sample and one mae per key."""
    return float(np.mean([
        mae(data, artificial_sample(params, family, sizes,
                                    np.random.SeedSequence(seed, spawn_key=key)))
        for key in keys
    ]))


class TestReplicatedMae:
    # 160 replications of n = 110 span several blocks of the batched draws
    KEYS = [(2, r + 1) for r in range(160)]

    @pytest.mark.parametrize("alpha", [0.8, 1.3, 2.0, 3.7])
    @pytest.mark.parametrize("family", [Plain(), Distorted(6e-3)])
    def test_matches_per_replication_loop(self, family, alpha):
        data = sample(EpdParams(0.3, 1.4, 1.6), 110, 21)
        params = EpdParams(0.2, 1.1, alpha)
        assert (replicated_mae(data, params, family, 9, self.KEYS)
                == _looped_mae(data, params, family, 9, self.KEYS, (7, 101, 2)))

    def test_combined_branch_shapes(self):
        data = sample(EpdParams(0.0, 1.0, 2.0), 110, 4)
        family = CombinedHuber(ShapeTriple(1.4, 2.2, 3.1), 0.8, 1.2)
        params = EpdParams(0.1, 0.9, 2.2)
        assert (replicated_mae(data, params, family, 3, self.KEYS, (5, 98, 7))
                == _looped_mae(data, params, family, 3, self.KEYS, (5, 98, 7)))

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_bulk_only_below_ten_observations(self, n):
        data = sample(EpdParams(0.0, 1.0, 1.5), n, 8)
        params = EpdParams(0.05, 1.2, 1.5)
        assert (replicated_mae(data, params, Plain(), 6, self.KEYS)
                == _looped_mae(data, params, Plain(), 6, self.KEYS, (0, n, 0)))

    def test_sizes_must_sum_to_the_sample_size(self):
        with pytest.raises(ValueError, match="length mismatch"):
            replicated_mae(np.zeros(10), EpdParams(0, 1, 2), Plain(), 1, self.KEYS, (1, 8, 0))


class TestTune:
    def test_single_candidate_chosen(self):
        data = sample(EpdParams(0, 1, 2), 60, 12)
        report = tune(data, [Distorted(0.0)], seed=5, alpha=2.0, replications=10)
        assert report.chosen == 0
        assert report.candidates[0].error is None

    def test_clean_data_prefers_no_distortion(self):
        data = sample(EpdParams(0, 1, 2), 200, 2027)
        report = tune(
            data, [Distorted(0.0), Distorted(0.5)],
            seed=5, alpha=2.0, replications=100,
        )
        assert report.candidates[report.chosen].tuning["beta"] == 0.0

    def test_contaminated_data_prefers_distortion(self):
        from epfit.simulate import generate, reference_design
        data = generate(reference_design(1), 99)
        report = tune(
            data, [Distorted(0.0), Distorted(3e-3)],
            seed=7, alpha=2.0, replications=120,
        )
        assert report.candidates[report.chosen].tuning["beta"] == pytest.approx(3e-3)

    def test_deterministic(self):
        data = sample(EpdParams(0, 1, 2), 80, 3)
        a = tune(data, [Distorted(0.0), Distorted(0.01)], seed=9, alpha=2.0, replications=25)
        b = tune(data, [Distorted(0.0), Distorted(0.01)], seed=9, alpha=2.0, replications=25)
        assert [c.mae for c in a.candidates] == [c.mae for c in b.candidates]
        assert a.chosen == b.chosen

    def test_bad_sizes_rejected(self):
        data = sample(EpdParams(0, 1, 2), 50, 3)
        with pytest.raises(ValueError):
            tune(data, [Plain()], seed=1, alpha=2.0, sizes=(10, 10, 10))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            tune(np.zeros(10), [], seed=1)


class TestEvaluateFit:
    def test_attaches_inference(self):
        data = sample(EpdParams(0, 1, 2), 150, 8)
        fit = fit_ee_location_scale(data, QWeighted(0.8), alpha=2.0)
        fit = evaluate_fit(data, fit)
        assert fit.fisher is not None and fit.fisher.dim == 2
        assert fit.variances is not None and len(fit.variances.raw) == 2
        assert len(fit.ic) == 3
        assert fit.volume > 0.0

    def test_estimated_shape_gets_three_dims(self):
        data = sample(EpdParams(0, 1, 2), 400, 9)
        fit = fit_ee_location_scale(data, Plain(), estimate_alpha=True)
        fit = evaluate_fit(data, fit)
        assert fit.fisher.dim == 3
        assert len(fit.variances.raw) == 3

    def test_huber_estimated_shape_keeps_two_dims(self):
        # the Huber score has no shape equation of its own: its matrix
        # stays (mu, sigma), while the criteria count the fitted shape
        data = np.concatenate([sample(EpdParams(0, 1, 2), 100, 9),
                               sample(EpdParams(5, 6, 1.1), 10, 10)])
        fit = fit_ee_location_scale(data, Huber(1.5), estimate_alpha=True)
        fit = evaluate_fit(data, fit)
        assert fit.fisher.dim == 2 and fit.fisher.method == "quadrature"
        assert len(fit.variances.raw) == 2
        assert fit.ic == ic_scores(data, fit.params, fit.family, 3, len(data))
