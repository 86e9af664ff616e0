"""Model-selection tools: volume, criteria, sorted mean absolute error
and the tuning grid search."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from epfit import fisher, select, special_fn
from epfit.epd import EpdParams, cdf, sample
from epfit.estimate import DegenerateDataError, fit_ee_location_scale
from epfit.fisher import FisherMatrix, fisher_for_family
from epfit.scores import (
    CombinedHuber, CombinedPlain, Distorted, Huber, Plain, QWeighted, ShapeTriple,
)
from epfit.select import (
    artificial_sample,
    evaluate_fit,
    expected_mae,
    ic_scores,
    mae,
    tune,
    volume,
)
from epfit.simulate import generate, reference_design
from epfit.special_fn import DomainError, log_gamma, regularized_gamma

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
        # the corrected criterion needs n > p + 1; the others are kept
        data = np.array([0.5, -0.5, 2.0])
        aic, caic, bic = ic_scores(data, EpdParams(0, 1, 2), Plain(), p=2, n=3)
        assert caic is None
        assert bic - aic == pytest.approx(2.0 * math.log(3.0) - 4.0)
        with pytest.raises(ValueError, match="p must be at least 1"):
            ic_scores(data, EpdParams(0, 1, 2), Plain(), p=0, n=3)


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
        with pytest.raises(ValueError, match=r"summing to the sample size 10"):
            expected_mae(np.zeros(10), EpdParams(0, 1, 2), Plain(), (1, 8, 0))

    @pytest.mark.parametrize("sizes", [(-5, 25, 0), (2.5, 15.5, 2), (20,), (5, 5, 5, 5)])
    def test_sizes_must_be_three_non_negative_integers(self, sizes):
        # each sums to the sample size of 20
        with pytest.raises(ValueError, match=r"component sizes .* three non-negative integers"):
            expected_mae(np.arange(20.0), EpdParams(10, 5, 2), Plain(), sizes)


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

    @pytest.mark.parametrize("sizes", [(-5, 25, 0), (2.5, 15.5, 2), (20,), (5, 5, 5, 5)])
    def test_sizes_that_sum_to_n_must_still_be_three_counts(self, sizes):
        # the caller's sizes are refused as such, not as every candidate's failure
        data = sample(EpdParams(0, 1, 2), 20, 3)
        with pytest.raises(ValueError, match=r"component sizes .* three non-negative integers"):
            tune(data, [Distorted(0.01), Distorted(0.02)], alpha=2.0, sizes=sizes)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            tune(np.zeros(10), [])

    def test_every_candidate_failing_raises(self):
        # identical observations leave every fit degenerate; the error
        # names each candidate with its own failure
        with pytest.raises(RuntimeError, match="every candidate failed to fit") as info:
            tune(np.ones(5), [Distorted(0.0), Distorted(3e-3)], alpha=2.0)
        message = str(info.value)
        for label in ("Distorted(beta=0)", "Distorted(beta=0.003)"):
            assert f"{label}: DegenerateDataError" in message


class TestTuneGroupPass:
    """tune's information matrices over its distorted candidates, against
    evaluate_fit one candidate at a time: each candidate gets its own."""

    GRID = [Distorted(b) for b in (0.002, 0.004, 0.006, 0.008, 0.01)]

    @staticmethod
    def _data():
        return generate(reference_design(1), 99)

    def _alone(self, data, i):
        return evaluate_fit(data, fit_ee_location_scale(data, self.GRID[i], alpha=2.0))

    def test_matrices_are_evaluate_fits(self, monkeypatch):
        data = self._data()
        calls = []
        assert not hasattr(fisher, "integrate")
        monkeypatch.setattr(special_fn, "integrate", lambda *args: calls.append(args))
        report = tune(data, self.GRID, alpha=2.0)
        assert calls == []
        for i, rec in enumerate(report.candidates):
            alone = self._alone(data, i)
            assert rec.error is None and rec.fit.fisher.method == "quadrature"
            assert rec.fit.fisher.entries.tobytes() == alone.fisher.entries.tobytes()
            assert rec.fit.fisher.element_errors.tobytes() == alone.fisher.element_errors.tobytes()
            assert rec.fit.fisher.psd == alone.fisher.psd
            assert rec.volume == alone.volume
            assert rec.fit.variances == alone.variances
            assert (rec.aic, rec.caic, rec.bic) == alone.ic

    def test_failed_fit_in_the_middle(self, monkeypatch):
        data = self._data()
        real = select.fit_ee_location_scale

        def fit(data, family, alpha=None):
            if family == self.GRID[2]:
                raise DegenerateDataError("planted")
            return real(data, family, alpha=alpha)

        monkeypatch.setattr(select, "fit_ee_location_scale", fit)
        report = tune(data, self.GRID, alpha=2.0)
        assert report.candidates[2].error == "DegenerateDataError: planted"
        for i in (0, 1, 3, 4):
            got = report.candidates[i].fit.fisher
            assert got.entries.tobytes() == self._alone(data, i).fisher.entries.tobytes()

    def test_failed_matrix_in_the_middle(self, monkeypatch):
        data = self._data()
        real = fisher.likelihood_weight

        def weight(q, beta):
            if beta == self.GRID[2].beta:
                raise DomainError("planted")
            return real(q, beta)

        monkeypatch.setattr(fisher, "likelihood_weight", weight)
        report = tune(data, self.GRID, alpha=2.0)
        assert report.candidates[2].error == "DomainError: planted"
        for i in (0, 1, 3, 4):
            got = report.candidates[i].fit.fisher
            alone = self._alone(data, i).fisher
            assert got.entries.tobytes() == alone.entries.tobytes()


def integrated_cdf(t, p):
    """Integral of the EP CDF over (-inf, t], at one point, as the grid
    MAE computed it before its left-tail points joined one call:

        (t - mu) F(t) + sigma Gamma(2/alpha, |y|^alpha) / (2 Gamma(1/alpha))
    """
    y = (t - p.mu) / p.sigma
    with np.errstate(over="ignore"):
        u = float(np.abs(y) ** p.alpha)
    upper = regularized_gamma(2.0 / p.alpha, u)[1]
    ratio = math.exp(log_gamma(2.0 / p.alpha) - log_gamma(1.0 / p.alpha))
    return (t - p.mu) * cdf(t, p) + 0.5 * p.sigma * upper * ratio


def one_fit_mae(data, params, family, sizes):
    """Reference for the grid MAE: expected_mae as it computed one fit
    at a time, with one CDF call per component shape of that fit and
    two incomplete-gamma calls per component left of the data."""
    c = np.sort(np.asarray(data, dtype=float))
    n = c.size
    counts = {}
    for a, m in zip(select._component_shapes(params, family), sizes):
        if m > 0:
            counts[a] = counts.get(a, 0) + m
    comps = [(EpdParams(params.mu, params.sigma, a), m) for a, m in counts.items()]
    left = sum(m * integrated_cdf(float(c[0]), p) for p, m in comps)
    breaks = np.concatenate([[params.mu]] + [
        params.mu + params.sigma * np.concatenate([-r, r])
        for r in (select._TAIL_BREAKS ** (1.0 / p.alpha) for p, _ in comps)])
    edges = np.sort(np.concatenate([c, breaks[(breaks > c[0]) & (breaks < c[-1])]]))
    keep = edges[1:] > edges[:-1]
    lo, hi = edges[:-1][keep], edges[1:][keep]
    half = 0.5 * (hi - lo)[:, None]
    x = (0.5 * (hi + lo)[:, None] + half * select._GL_NODES).ravel()
    w = (half * select._GL_WEIGHTS).ravel()
    below = np.repeat(np.searchsorted(c, lo, side="right"), select._GL_NODES.size)
    probs = [cdf(x, p) for p, _ in comps]
    inner = 0.0
    j = np.arange(n + 1)
    for s in range(0, x.size, select._NODE_BLOCK):
        block = slice(s, s + select._NODE_BLOCK)
        pmf = functools.reduce(select._convolve_rows, [
            select._binomial_pmf(prob[block], m) for prob, (_, m) in zip(probs, comps)])
        excess = np.maximum(j - below[block, None], 0)
        inner += float(w[block] @ np.sum(pmf * excess, axis=1))
    return params.mu - float(np.mean(c)) + 2.0 / n * (left + inner)


def _bits(values):
    return np.array(values, dtype=float).tobytes()


class TestGridMae:
    """tune's one-pass MAE over its grid against one_fit_mae, bit for bit."""

    FAMILIES = [
        Plain(), QWeighted(0.8), QWeighted(0.625), Distorted(6e-3), Distorted(0.0),
        Huber(1.345),
        CombinedPlain(ShapeTriple(1.6, 2.0, 2.5), 0.7, 1.1),
        CombinedHuber(ShapeTriple(0.7, 2.0, 3.1), 0.8, 1.2),
    ]

    @pytest.fixture(scope="class")
    def data(self):
        from epfit.simulate import generate, reference_design
        return generate(reference_design(1), 99)

    def _grid(self, data, fits, sizes):
        return select._expected_maes(np.sort(data), fits, sizes)

    @pytest.mark.parametrize("alpha", [2.0, 1.3])
    def test_tune_grid_matches_one_fit_at_a_time(self, data, alpha):
        # every family at once: shape 2 is shared by most components,
        # and the combined triples add branch shapes of their own
        report = tune(data, self.FAMILIES, alpha=alpha)
        sizes = select._default_sizes(len(data))
        assert all(r.error is None for r in report.candidates)
        want = [one_fit_mae(data, r.fit.params, fam, sizes)
                for r, fam in zip(report.candidates, self.FAMILIES)]
        assert _bits([r.mae for r in report.candidates]) == _bits(want)
        alone = [expected_mae(data, r.fit.params, fam)
                 for r, fam in zip(report.candidates, self.FAMILIES)]
        assert _bits(alone) == _bits(want)

    def test_grid_mixing_shapes_and_sizes(self, data):
        # fitted shapes that differ per fit, a shape shared by a plain fit
        # and a combined branch, and a zero-size component
        fits = [(EpdParams(0.3, 1.2, 0.9), Plain()),
                (EpdParams(0.25, 1.1, 2.0), QWeighted(0.8)),
                (EpdParams(0.1, 0.9, 3.7), Distorted(6e-3)),
                (EpdParams(0.2, 1.0, 2.0), CombinedHuber(ShapeTriple(0.9, 2.0, 3.7), 0.8, 1.2)),
                (EpdParams(0.2, 1.3, 2.5), CombinedPlain(ShapeTriple(1.4, 2.5, 0.9), 0.6, 1.0))]
        for sizes in [(7, 101, 2), (0, 107, 3), (5, 105, 0), (0, 110, 0)]:
            got = self._grid(data, fits, sizes)
            want = [one_fit_mae(data, p, fam, sizes) for p, fam in fits]
            assert _bits(got) == _bits(want)

    def test_single_observation(self):
        fits = [(EpdParams(0.4, 1.3, 1.0), Plain()), (EpdParams(0.1, 0.8, 1.0), Huber(1.5))]
        got = self._grid([1.1], fits, (0, 1, 0))
        assert _bits(got) == _bits([one_fit_mae([1.1], p, f, (0, 1, 0)) for p, f in fits])

    @pytest.mark.parametrize("stage, error", [
        ("terms", "ArithmeticError: planted"),
        ("cdf", "DomainError: regularized_gamma requires a >= 0, got nan"),
        ("sum", "ArithmeticError: planted"),
    ])
    def test_failure_stays_with_its_candidate(self, data, monkeypatch, stage, error):
        # the middle candidate of three sharing shape 2 fails in one stage
        # of its MAE; the others keep their values bit for bit
        cands = [Distorted(0.0), Distorted(3e-3), Distorted(6e-3)]
        clean = tune(data, cands, alpha=2.0)
        bad = clean.candidates[1].fit.params

        def planted(real, stage_of):
            def wrapper(*args):
                if stage_of(*args) == bad:
                    if stage == "cdf":
                        out = real(*args)
                        out.y = np.where(np.arange(out.y.size) == 3, math.nan, out.y)
                        return out
                    raise ArithmeticError("planted")
                return real(*args)
            return wrapper

        if stage in ("terms", "cdf"):
            monkeypatch.setattr(select, "_mae_terms", planted(
                select._mae_terms, lambda c, params, family, sizes: params))
        else:
            monkeypatch.setattr(select, "_mae_sum", planted(
                select._mae_sum, lambda c, params, terms, probs, left: params))
        report = tune(data, cands, alpha=2.0)
        failed = report.candidates[1]
        assert failed.error == error
        assert failed.fit is None and failed.mae == math.inf and failed.volume == math.inf
        for i in (0, 2):
            assert report.candidates[i].error is None
            assert report.candidates[i].mae == clean.candidates[i].mae
        assert report.chosen != 1
        with pytest.raises((ArithmeticError, ValueError)):
            expected_mae(data, bad, cands[1])


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
        assert fit.fisher.dim == 2 and fit.fisher.method == "closed_form"
        assert len(fit.variances.raw) == 2
        assert fit.ic == ic_scores(data, fit.params, fit.family, 3, len(data))
