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
    expected_mae,
    ic_scores,
    mae,
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


def replicated_mae(data, params, family, sizes, replications, seed):
    """Monte Carlo oracle for expected_mae: the mean, and its standard
    error, of the sorted MAE over replicated artificial samples, drawn as
    artificial_sample draws them (per component the Gamma(1/alpha, 1)
    variates, then the signs), all replications at once."""
    rng = np.random.default_rng(seed)
    shapes = (family.shapes.as_tuple() if family.shapes is not None
              else (params.alpha,) * 3)
    parts = []
    for a, m in zip(shapes, sizes):
        if m == 0:
            continue
        y = rng.standard_gamma(1.0 / a, size=(replications, m))
        z = np.where(rng.random((replications, m)) < 0.5, -1.0, 1.0)
        parts.append(params.mu + params.sigma * z * y ** (1.0 / a))
    art = np.sort(np.concatenate(parts, axis=1), axis=1)
    per_rep = np.mean(np.abs(np.sort(data) - art), axis=1)
    return float(per_rep.mean()), float(per_rep.std(ddof=1) / math.sqrt(replications))


def _contaminated(n, seed):
    """n - 2 bulk draws and two far outliers, one on each side."""
    bulk = sample(EpdParams(0.3, 1.4, 1.6), n - 2, seed)
    return np.concatenate([bulk, [-6.5, 9.0]])


class TestReplicatedMae:
    """expected_mae against the replicated Monte Carlo MAE it replaces:
    within 4 standard errors of 20 000 replications, on small samples."""

    REPS = 20_000

    def _check(self, data, params, family, sizes, seed=1):
        exact = expected_mae(data, params, family, sizes)
        mean, se = replicated_mae(data, params, family, sizes, self.REPS, seed)
        assert abs(exact - mean) < 4.0 * se, (exact, mean, se)

    @pytest.mark.parametrize("alpha", [0.8, 1.3, 2.0, 3.7])
    @pytest.mark.parametrize("family", [Plain(), Distorted(6e-3), QWeighted(0.8), Huber(1.345)])
    def test_matches_per_replication_loop(self, family, alpha):
        # at each family's own fit, as tune evaluates it
        data = _contaminated(14, 21)
        fit = fit_ee_location_scale(data, family, alpha=alpha)
        self._check(data, fit.params, family, (7, 5, 2))

    def test_combined_branch_shapes(self):
        # one branch shape below 1 and two above
        family = CombinedHuber(ShapeTriple(0.7, 2.2, 3.1), 0.8, 1.2)
        self._check(_contaminated(14, 4), EpdParams(0.1, 0.9, 2.2), family, (3, 9, 2))

    def test_zero_size_component(self):
        family = CombinedHuber(ShapeTriple(1.4, 0.9, 3.1), 0.8, 1.2)
        self._check(_contaminated(12, 5), EpdParams(0.1, 0.9, 0.9), family, (0, 9, 3))

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_bulk_only_below_ten_observations(self, n):
        data = sample(EpdParams(0.0, 1.0, 1.5), n, 8)
        params = EpdParams(0.05, 1.2, 1.5)
        assert expected_mae(data, params, Plain()) == expected_mae(data, params, Plain(),
                                                                   (0, n, 0))
        self._check(data, params, Plain(), (0, n, 0))

    def test_single_observation_closed_form(self):
        # Laplace draws: E|X - c| = |c - mu| + sigma exp(-|c - mu| / sigma)
        params = EpdParams(0.4, 1.3, 1.0)
        for c in (-2.0, 0.4, 1.1, 7.5):
            want = abs(c - 0.4) + 1.3 * math.exp(-abs(c - 0.4) / 1.3)
            assert expected_mae([c], params, Plain()) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("family,alpha,sizes", [
        (Plain(), 0.6, None),
        (Distorted(6e-3), 2.0, None),
        (CombinedHuber(ShapeTriple(1.1, 2.0, 2.6), 1.0, 1.2), 2.0, (7, 101, 2)),
    ], ids=["plain", "distorted", "combined"])
    def test_six_node_panels_agree_with_twenty(self, family, alpha, sizes, monkeypatch):
        from epfit import select
        from epfit.simulate import generate, reference_design
        data = generate(reference_design(1), 99)
        params = EpdParams(0.3, 1.2, alpha)
        six = expected_mae(data, params, family, sizes)
        nodes, weights = np.polynomial.legendre.leggauss(20)
        monkeypatch.setattr(select, "_GL_NODES", nodes)
        monkeypatch.setattr(select, "_GL_WEIGHTS", weights)
        assert six == pytest.approx(expected_mae(data, params, family, sizes), rel=1e-7)

    def test_sizes_must_sum_to_the_sample_size(self):
        with pytest.raises(ValueError, match="length mismatch"):
            expected_mae(np.zeros(10), EpdParams(0, 1, 2), Plain(), (1, 8, 0))


class TestTune:
    def test_single_candidate_chosen(self):
        data = sample(EpdParams(0, 1, 2), 60, 12)
        report = tune(data, [Distorted(0.0)], alpha=2.0)
        assert report.chosen == 0
        assert report.candidates[0].error is None

    def test_clean_data_prefers_no_distortion(self):
        data = sample(EpdParams(0, 1, 2), 200, 2027)
        report = tune(data, [Distorted(0.0), Distorted(0.5)], alpha=2.0)
        assert report.candidates[report.chosen].tuning["beta"] == 0.0

    def test_contaminated_data_prefers_distortion(self):
        from epfit.simulate import generate, reference_design
        data = generate(reference_design(1), 99)
        report = tune(data, [Distorted(0.0), Distorted(3e-3)], alpha=2.0)
        assert report.candidates[report.chosen].tuning["beta"] == pytest.approx(3e-3)

    def test_deterministic(self):
        data = sample(EpdParams(0, 1, 2), 80, 3)
        a = tune(data, [Distorted(0.0), Distorted(0.01)], alpha=2.0)
        b = tune(data, [Distorted(0.0), Distorted(0.01)], alpha=2.0)
        assert [c.mae for c in a.candidates] == [c.mae for c in b.candidates]
        assert a.chosen == b.chosen

    def test_mae_is_the_expected_mae_of_each_fit(self):
        data = sample(EpdParams(0, 1, 2), 50, 3)
        family = CombinedHuber(ShapeTriple(1.6, 2.0, 2.5), 1.0, 1.2)
        report = tune(data, [family], sizes=(4, 44, 2))
        fit = report.candidates[0].fit
        assert report.candidates[0].mae == expected_mae(data, fit.params, family, (4, 44, 2))

    def test_bad_sizes_rejected(self):
        data = sample(EpdParams(0, 1, 2), 50, 3)
        with pytest.raises(ValueError):
            tune(data, [Plain()], alpha=2.0, sizes=(10, 10, 10))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            tune(np.zeros(10), [])


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
