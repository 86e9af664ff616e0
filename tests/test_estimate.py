"""Estimators: reweighted EE fixed points, the shape equation and the
objective route."""

import collections
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import epfit.estimate
import epfit.scores
from epfit.epd import EpdParams, distorted_log_pdf, log_pdf, log_q_pdf, sample
from epfit.estimate import (
    AlphaRootError,
    DegenerateDataError,
    fit_ee_alpha,
    fit_ee_location_scale,
    fit_objective,
    initial_values,
    objective_value,
    objective_values,
)
from epfit.scores import CombinedHuber, CombinedPlain, Distorted, Huber, Plain, QWeighted, ShapeTriple, likelihood_weight, psi_vector
from epfit.special_fn import digamma, log_gamma
from epfit.simulate import generate, reference_design


class TestInitialValues:
    def test_simple(self):
        assert initial_values([1, 2, 3]) == (2.0, 1.0)

    def test_collapsed_spread_gets_floor(self):
        mu0, sigma0 = initial_values([0, 0, 0, 10])
        assert mu0 == 0.0
        assert sigma0 == 1e-6

    def test_even_length(self):
        assert initial_values([-1, 0, 1, 2]) == (0.5, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            initial_values([])

    def test_bit_identical_to_numpy_median(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 4, 109, 110):
            for draw in range(40):
                data = rng.standard_normal(n)
                if draw % 4 == 1:
                    data = rng.choice([-0.0, 0.0, 5e-324, -5e-324, 1.0], size=n)
                elif draw % 4 == 2:
                    data[rng.integers(n)] = np.nan
                mu0 = float(np.median(data))
                sigma0 = float(np.median(np.abs(data - mu0)))
                got = initial_values(data)
                if sigma0 <= 0.0:
                    sigma0 = 1e-6
                assert np.array([got]).tobytes() == np.array([(mu0, sigma0)]).tobytes()


class TestLocationScaleEE:
    def test_two_point_fixed_point(self):
        res = fit_ee_location_scale(np.array([-1.0, 1.0]), Plain(), alpha=2.0)
        assert res.converged
        assert res.params.mu == pytest.approx(0.0, abs=1e-12)
        assert res.params.sigma == pytest.approx(np.sqrt(2.0), abs=1e-10)

    def test_gaussian_shape_gives_sample_mean(self):
        rng = np.random.default_rng(5)
        data = rng.normal(3.0, 2.0, 200)
        res = fit_ee_location_scale(data, Plain(), alpha=2.0)
        assert res.params.mu == pytest.approx(float(np.mean(data)), abs=1e-12)

    def test_reductions_to_plain(self):
        data = sample(EpdParams(0, 1, 2), 500, 99)
        base = fit_ee_location_scale(data, Plain(), alpha=2.0)
        via_q = fit_ee_location_scale(data, QWeighted(1.0), alpha=2.0)
        via_d = fit_ee_location_scale(data, Distorted(0.0), alpha=2.0)
        for other in (via_q, via_d):
            assert other.params.mu == pytest.approx(base.params.mu, abs=1e-12)
            assert other.params.sigma == pytest.approx(base.params.sigma, abs=1e-12)

    @pytest.mark.parametrize("family,a", [
        (Plain(), -2.5),
        (Huber(1.1), -2.5),
        # the combined scores are asymmetric, so reflections change them;
        # equivariance holds for positive rescalings
        (CombinedPlain(ShapeTriple(1.7, 2.0, 1.8), 0.9, 1.1), 2.5),
        (CombinedHuber(ShapeTriple(1.7, 2.0, 1.8), 0.9, 1.1), 2.5),
        (QWeighted(0.8), -2.5),
    ])
    def test_affine_equivariance(self, family, a):
        data = sample(EpdParams(0.4, 1.3, 2.0), 300, 11)
        b = 7.0
        base = fit_ee_location_scale(data, family, alpha=2.0)
        moved = fit_ee_location_scale(a * data + b, family, alpha=2.0)
        assert moved.params.mu == pytest.approx(a * base.params.mu + b, abs=1e-7)
        assert moved.params.sigma == pytest.approx(abs(a) * base.params.sigma, abs=1e-7)

    def test_distorted_equivariance_needs_rescaled_beta(self):
        data = sample(EpdParams(0.0, 1.0, 2.0), 300, 12)
        a = 3.0
        base = fit_ee_location_scale(data, Distorted(0.01), alpha=2.0)
        # the distortion constant competes with a density, so it rescales by 1/|a|
        moved = fit_ee_location_scale(a * data, Distorted(0.01 / a), alpha=2.0)
        assert moved.params.sigma == pytest.approx(a * base.params.sigma, abs=1e-6)

    def test_grytviken_analog_recovery(self):
        # fixed representative replicate: the distorted fit carries a
        # small negative scale pull on clean data, so the documented
        # 0.15 band holds for typical draws rather than every seed
        data = sample(EpdParams(3.12, 1.68, 2.1), 114, 424002)
        res = fit_ee_location_scale(data, Distorted(1e-2), alpha=2.1)
        assert res.params.mu == pytest.approx(3.12, abs=0.15)
        assert res.params.sigma == pytest.approx(1.68, abs=0.15)

    def test_steep_shape_converges(self):
        data = sample(EpdParams(0, 1, 5.0), 400, 8)
        res = fit_ee_location_scale(data, Plain(), alpha=5.0)
        assert res.converged
        assert res.params.sigma == pytest.approx(1.0, abs=0.1)

    def test_degenerate_data_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_ee_location_scale(np.ones(10), Plain(), alpha=2.0)
        with pytest.raises(DegenerateDataError):
            fit_ee_location_scale(np.array([1.0]), Plain(), alpha=2.0)

    def test_combined_cannot_estimate_shape(self):
        data = sample(EpdParams(0, 1, 2), 50, 1)
        fam = CombinedPlain(ShapeTriple(1.7, 2.0, 1.8), 1.0, 1.0)
        with pytest.raises(ValueError):
            fit_ee_location_scale(data, fam, estimate_alpha=True)

    def test_stationarity_of_converged_fits(self):
        # summed gradient of the matching objective vanishes at the fit
        data = sample(EpdParams(0.2, 1.1, 2.0), 400, 21)
        cases = [
            (Plain(), {"q": 1.0, "beta": 0.0}, 2),
            (QWeighted(0.8), {"q": 0.8}, 2),
            (Distorted(5e-3), {"beta": 5e-3}, 2),
        ]
        for family, kw, n_coords in cases:
            res = fit_ee_location_scale(data, family, alpha=2.0)
            assert res.converged
            total = np.array(psi_vector(data, res.params, **kw)).sum(axis=1)
            assert np.max(np.abs(total[:n_coords])) < 1e-6


class TestShapeEE:
    def test_root_recovers_shape_on_large_sample(self):
        for alpha, seed, band in ((2.0, 4242, (1.9, 2.1)), (1.3, 777, (1.2, 1.4))):
            data = sample(EpdParams(0, 1, alpha), 10_000, seed)
            res = fit_ee_location_scale(data, Plain(), estimate_alpha=True)
            assert res.converged
            assert band[0] < res.params.alpha < band[1]

    def test_self_consistency_at_truth(self):
        data = sample(EpdParams(0, 1, 2), 100_000, 3)
        root = fit_ee_alpha(data, EpdParams(0, 1, 2))
        assert root == pytest.approx(2.0, rel=0.03)

    def test_equals_likelihood_stationarity(self):
        # the fixed point solves d(objective)/d(shape) = 0 directly
        data = sample(EpdParams(0, 1, 2), 2_000, 17)
        res = fit_ee_location_scale(data, Plain(), estimate_alpha=True)
        h = 1e-5
        up = objective_value(Plain(), data, EpdParams(res.params.mu, res.params.sigma, res.params.alpha + h))
        dn = objective_value(Plain(), data, EpdParams(res.params.mu, res.params.sigma, res.params.alpha - h))
        assert (up - dn) / (2 * h) == pytest.approx(0.0, abs=1e-3)

    def test_no_root_in_bracket_raises(self):
        with pytest.raises(AlphaRootError):
            fit_ee_alpha(np.linspace(-1.0, 1.0, 200), EpdParams(0.0, 1.0, 2.0))


class TestObjectiveFits:
    def test_mle_matches_ee_route(self):
        data = sample(EpdParams(0, 1, 2), 1_000, 31)
        via_ga = fit_objective(data, Plain(), seed=11)
        via_ee = fit_ee_location_scale(data, Plain(), estimate_alpha=True)
        assert via_ga.params.mu == pytest.approx(via_ee.params.mu, abs=1e-4)
        assert via_ga.params.sigma == pytest.approx(via_ee.params.sigma, abs=1e-4)
        assert via_ga.params.alpha == pytest.approx(via_ee.params.alpha, abs=1e-3)

    def test_mqle_at_one_is_mle_objective(self):
        data = sample(EpdParams(0, 1, 2), 200, 5)
        p = EpdParams(0.1, 1.2, 1.9)
        assert objective_value(QWeighted(1.0), data, p) == objective_value(Plain(), data, p)

    def test_mdle_at_zero_consistent(self):
        data = sample(EpdParams(0, 1, 2), 10_000, 444)
        res = fit_objective(data, Distorted(0.0), seed=2)
        assert res.params.mu == pytest.approx(0.0, abs=0.05)
        assert res.params.sigma == pytest.approx(1.0, abs=0.05)
        assert res.params.alpha == pytest.approx(2.0, abs=0.15)

    def test_value_is_the_best_evaluated(self, monkeypatch):
        # the GA's elites and the polish both keep the best value seen
        data = sample(EpdParams(0, 1, 2), 100, 6)
        seen = []
        real = epfit.estimate._objective

        def recorded(family, data):
            f = real(family, data)

            def values(points):
                out = f(points)
                seen.extend(out.tolist())
                return out
            return values

        monkeypatch.setattr(epfit.estimate, "_objective", recorded)
        res = fit_objective(data, QWeighted(0.8), seed=4)
        assert res.objective_value == max(seen)
        assert res.iterations == 200

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            QWeighted(0.0)
        with pytest.raises(ValueError):
            Distorted(-0.1)
        with pytest.raises(DegenerateDataError):
            fit_objective(np.array([1.0, 2.0]), Plain(), seed=0)

    @pytest.mark.parametrize("family", [
        Huber(1.3),
        CombinedPlain(ShapeTriple(2.0, 2.0, 2.0), 1.0, 1.0),
        CombinedHuber(ShapeTriple(2.0, 2.0, 2.0), 1.0, 1.0),
    ])
    def test_no_likelihood_no_objective(self, family):
        data = sample(EpdParams(0, 1, 2), 50, 3)
        with pytest.raises(TypeError):
            fit_objective(data, family, seed=0)


def reference_samples():
    contaminated = np.concatenate([
        sample(EpdParams(0.0, 1.0, 2.0), 100, 21),
        sample(EpdParams(5.0, 6.0, 1.1), 10, 22),
    ])
    return {"contaminated": contaminated, "clean": sample(EpdParams(1.5, 0.5, 1.3), 60, 23)}


# (q, beta, (mu, sigma), hint, root found by the earlier bisection solver,
# which stopped at the same 1e-13 relative bracket width)
BISECTION_ROOTS = [
    (1.0, 0.0, (0.10280336621197306, 0.6091271521826309), None, 0.8111140772305093),
    (1.0, 0.0, (0.10280336621197306, 0.6091271521826309), 1.7, 0.8111140772304697),
    (1.0, 0.0, (0.05, 1.1), None, 1.0764913157673264),
    (1.0, 0.0, (0.05, 1.1), 1.7, 1.0764913157673601),
    (0.8, 0.0, (0.10280336621197306, 0.6091271521826309), None, 1.0074170353043101),
    (0.8, 0.0, (0.10280336621197306, 0.6091271521826309), 1.7, 1.007417035304333),
    (0.8, 0.0, (0.05, 1.1), None, 1.7426668610746174),
    (0.8, 0.0, (0.05, 1.1), 1.7, 1.7426668610747038),
    (0.625, 0.0, (0.10280336621197306, 0.6091271521826309), None, 1.2479337075433654),
    (0.625, 0.0, (0.10280336621197306, 0.6091271521826309), 1.7, 1.2479337075434045),
    (0.625, 0.0, (0.05, 1.1), None, 2.6661634676007813),
    (0.625, 0.0, (0.05, 1.1), 1.7, 2.666163467600687),
    (1.0, 0.006, (0.10280336621197306, 0.6091271521826309), None, 1.0297032713471026),
    (1.0, 0.006, (0.10280336621197306, 0.6091271521826309), 1.7, 1.0297032713470755),
    (1.0, 0.006, (0.05, 1.1), None, 2.125795468378948),
    (1.0, 0.006, (0.05, 1.1), 1.7, 2.1257954683789677),
    (1.0, 0.003, (0.10280336621197306, 0.6091271521826309), None, 0.9798018986716388),
    (1.0, 0.003, (0.10280336621197306, 0.6091271521826309), 1.7, 0.979801898671675),
    (1.0, 0.003, (0.05, 1.1), None, 2.092574739142103),
    (1.0, 0.003, (0.05, 1.1), 1.7, 2.092574739142049),
]


class TestShapeRootSolver:
    @pytest.fixture
    def residual_evals(self, monkeypatch):
        # the shape residual calls digamma exactly once per evaluation
        calls = [0]
        digamma = epfit.estimate.digamma

        def counted(x):
            calls[0] += 1
            return digamma(x)

        monkeypatch.setattr(epfit.estimate, "digamma", counted)
        return calls

    @pytest.mark.parametrize("q, beta, start, hint, expected", BISECTION_ROOTS)
    def test_matches_bisection_root(self, q, beta, start, hint, expected):
        data = reference_samples()["contaminated"]
        root = fit_ee_alpha(data, EpdParams(*start, 2.0), q=q, beta=beta, hint=hint)
        assert type(root) is float
        assert root == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("q, beta", [(1.0, 0.0), (0.8, 0.0), (0.625, 0.0), (1.0, 6e-3)])
    def test_empty_bracket_raises(self, q, beta):
        with pytest.raises(AlphaRootError):
            fit_ee_alpha(np.linspace(-1.0, 1.0, 200), EpdParams(0.0, 1.0, 2.0), q=q, beta=beta)

    @pytest.mark.parametrize("q, beta", [(1.0, 0.0), (0.8, 0.0), (0.625, 0.0), (1.0, 6e-3), (1.0, 3e-3)])
    def test_hinted_solve_is_cheap(self, q, beta, residual_evals):
        # inside the EE iteration the hint is the previous iterate's root
        data = reference_samples()["contaminated"]
        for start in ((0.1, 0.6), (0.05, 1.1)):
            current = EpdParams(*start, 2.0)
            root = fit_ee_alpha(data, current, q=q, beta=beta)
            for factor in (0.9, 0.99, 1.01, 1.1):
                residual_evals[0] = 0
                again = fit_ee_alpha(data, current, q=q, beta=beta, hint=root * factor)
                assert residual_evals[0] <= 15
                assert again == pytest.approx(root, rel=1e-12)

    @pytest.mark.parametrize("hint", [1.0, 2.0])
    def test_hinted_brackets_evaluate_each_shape_once(self, hint, monkeypatch):
        # no root: every widening runs, and the lower end is clipped to
        # 0.05 (and, from hint 2, the upper one to 50) before the last
        shapes = []
        residual = epfit.estimate._AlphaResidual

        def recorded(*args):
            g = residual(*args)

            def call(alpha):
                shapes.append(alpha)
                return g(alpha)
            return call

        monkeypatch.setattr(epfit.estimate, "_AlphaResidual", recorded)
        with pytest.raises(AlphaRootError):
            fit_ee_alpha(np.linspace(-1.0, 1.0, 200), EpdParams(0.0, 1.0, 2.0), hint=hint)
        before_scan, scan = shapes[:-40], shapes[-40:]
        assert scan == np.geomspace(0.05, 50.0, 40).tolist()
        assert len(before_scan) == len(set(before_scan)) == 15
        assert 0.05 in before_scan and (50.0 in before_scan) == (hint == 2.0)


class _EveryCallResidual:
    """Reference for the shape residual: its evaluation as it redid the
    zero mask, log(2 sigma) and the finite mask on every call."""

    def __init__(self, data, mu, sigma, q, beta):
        y = np.abs(np.asarray(data, dtype=float) - mu) / sigma
        self.zero = y < 1e-12
        self.log_y = np.log(np.where(self.zero, 1.0, y))
        self.n_total = len(y)
        self.sigma = sigma
        self.weight = likelihood_weight(q, beta)

    def __call__(self, alpha):
        with np.errstate(over="ignore", invalid="ignore"):
            pow_a = np.where(self.zero, 0.0, np.exp(alpha * self.log_y))
            pow_log = pow_a * self.log_y
            if self.weight is not None:
                log_c = (
                    math.log(alpha) - math.log(2.0 * self.sigma)
                    - log_gamma(1.0 / alpha)
                )
                w = self.weight(log_c - pow_a)
                sw = float(np.sum(w))
                if sw <= 0.0:
                    raise DegenerateDataError("shape-equation weights vanished")
                contrib = w * pow_log
                mean_pl = float(np.sum(np.where(np.isfinite(contrib), contrib, 0.0)) / sw)
            else:
                mean_pl = float(np.sum(pow_log)) / self.n_total
        return 1.0 / alpha + digamma(1.0 / alpha) / alpha**2 - mean_pl


class TestShapeResidualSetUp:
    """The shape residual against _EveryCallResidual, bit for bit."""

    LIKELIHOODS = [(1.0, 0.0), (0.8, 0.0), (0.625, 0.0), (1.0, 6e-3), (1.0, 3e-3)]
    ALPHAS = np.geomspace(0.05, 50.0, 61)

    @staticmethod
    def _outcome(g, alpha):
        try:
            return g(alpha).hex()
        except DegenerateDataError as exc:
            return str(exc)

    def _check(self, data, mu, sigma, q, beta):
        new = epfit.estimate._AlphaResidual(data, mu, sigma, q, beta)
        ref = _EveryCallResidual(data, mu, sigma, q, beta)
        # the residual leaves the floating-point state to its caller
        with np.errstate(over="ignore", invalid="ignore"):
            got = [self._outcome(new, a) for a in self.ALPHAS]
        assert got == [self._outcome(ref, a) for a in self.ALPHAS]
        return got

    @pytest.mark.parametrize("q, beta", LIKELIHOODS)
    def test_reference_sample(self, q, beta):
        data = reference_samples()["contaminated"]
        self._check(data, *SHAPE_ROOT_START, q, beta)

    @pytest.mark.parametrize("q, beta", LIKELIHOODS)
    def test_residual_exactly_zero(self, q, beta):
        data = reference_samples()["contaminated"]
        self._check(data, float(data[7]), 0.6, q, beta)

    @pytest.mark.parametrize("q, beta", LIKELIHOODS)
    def test_overflowing_powers(self, q, beta):
        # |y|^alpha overflows for the far point from alpha about 1.5: its
        # weighted term is inf * 0, which the residual drops
        data = np.concatenate([reference_samples()["contaminated"], [1e200]])
        got = self._check(data, 0.1, 0.6, q, beta)
        tail = [float.fromhex(v) for v in got[-20:]]
        if (q, beta) == (1.0, 0.0):
            assert tail == [-math.inf] * 20
        else:
            assert all(math.isfinite(v) for v in tail)

    @pytest.mark.parametrize("q, beta", [(0.625, 0.0), (1.0, 6e-3)])
    def test_vanishing_weights(self, q, beta):
        data = np.array([1e6, -2e6, 3e6])
        got = self._check(data, 0.0, 1e-3, q, beta)
        assert "shape-equation weights vanished" in got

    @pytest.mark.parametrize("q, beta", LIKELIHOODS)
    def test_roots_unchanged(self, q, beta, monkeypatch):
        data = reference_samples()["contaminated"]
        cases = [(EpdParams(*SHAPE_ROOT_START, 2.0), None), (EpdParams(0.05, 1.1, 2.0), 1.7),
                 (EpdParams(float(data[7]), 0.6, 2.0), 1.2)]
        got = [fit_ee_alpha(data, p, q=q, beta=beta, hint=h).hex() for p, h in cases]
        monkeypatch.setattr(epfit.estimate, "_AlphaResidual", _EveryCallResidual)
        assert got == [fit_ee_alpha(data, p, q=q, beta=beta, hint=h).hex() for p, h in cases]


class TestObjectiveSearchBox:
    @pytest.mark.parametrize("scale", [1e-4, 1e-8])
    @pytest.mark.parametrize("family", [Plain(), QWeighted(0.8), Distorted(6e-3)],
                             ids=["s", "sq", "sd"])
    def test_small_spread_fits(self, family, scale):
        # the scale box was (0.01, 10 spread), empty for a spread below 1e-3
        data = 3.0 + scale * np.random.default_rng(0).standard_normal(110)
        spread = float(np.ptp(data))
        res = fit_objective(data, family, seed=1)
        p = res.params
        assert data.min() - spread <= p.mu <= data.max() + spread
        assert 1e-2 * spread <= p.sigma <= 10.0 * spread
        assert 0.1 <= p.alpha <= 20.0
        assert math.isfinite(res.objective_value)

    def test_box_kept_from_unit_spread(self):
        for data in reference_samples().values():
            assert np.ptp(data) >= 1.0
            assert epfit.estimate._search_bounds(data)[1][0] == 1e-2

    def test_infinite_spread_is_degenerate(self):
        with pytest.raises(DegenerateDataError, match="spread of the data, inf"):
            fit_objective(np.array([-1e308, 0.0, 1.0, 2.0, 1e308]), Plain(), seed=1)


# Objective-route fits recorded before the GA evaluated its population
# with one call: (sample, mode, GA seed, best point, objective value).
# Floats are in float.hex form; every one must be reproduced exactly.
# The objective-route rows, and the q-weighted and distorted rows of the
# EE tables below, were re-recorded when log Gamma came from math.lgamma,
# whose last bits differ from the former Lanczos evaluation.
# (q, beta, root without hint, root with hint 1.7) of the shape equation
# on the contaminated sample at (mu, sigma) = SHAPE_ROOT_START, and
# (family, estimate_alpha, (mu, sigma, alpha), iterations) of EE fits of
# that sample at shape 2.4 (the combined families use their triple),
# recorded before the density weights moved onto the family classes; the
# shape-estimating rows past the 40-step warm-up (all but Huber) were
# re-recorded when those fits became Anderson-accelerated
SHAPE_ROOT_START = (0.10280336621197306, 0.6091271521826309)
SHAPE_ROOT_PINS = [
    (1.0, 0.0, '0x1.9f4a58260f6fbp-1', '0x1.9f4a58260f6fdp-1'),
    (0.8, 0.0, '0x1.01e6153410bfep+0', '0x1.01e6153410bfep+0'),
    (1.0, 0.006, '0x1.079aa23305154p+0', '0x1.079aa23305149p+0'),
]
EE_FIT_PINS = [
    ("plain", False, ("0x1.18693891e8e5ep-3", "0x1.434004d1c5570p+1", "0x1.3333333333333p+1"), 26),
    ("huber", False, ("0x1.0a00f5b222855p-5", "0x1.d7f5dd096034dp-1", "0x1.3333333333333p+1"), 24),
    ("combined", False, ("0x1.203fb9fffa103p-1", "0x1.44076ebf77025p+1", "0x1.4000000000000p+1"), 20),
    ("combined_huber", False, ("0x1.4f032008124a2p-1", "0x1.42d483ddfeef7p+1", "0x1.4000000000000p+1"), 21),
    ("q", False, ("-0x1.c24d3347427cap-6", "0x1.1677b3ce7429ap+0", "0x1.3333333333333p+1"), 16),
    ("q1", False, ("0x1.18693891e8e5ep-3", "0x1.434004d1c5570p+1", "0x1.3333333333333p+1"), 26),
    ("d", False, ("-0x1.df2abd2105c4ep-6", "0x1.27b9fd594061cp+0", "0x1.3333333333333p+1"), 21),
    ("d0", False, ("0x1.18693891e8e5ep-3", "0x1.434004d1c5570p+1", "0x1.3333333333333p+1"), 26),
    ("plain", True, ("0x1.36efb82009bc2p-3", "0x1.9edf1495b94aap-2", "0x1.5ecd6e83d1164p-1"), 500),
    ("huber", True, ("0x1.0a00f5b22dde8p-5", "0x1.d7f5dd096425dp-1", "0x1.f8be51e4377a4p-1"), 35),
    ("q", True, ("0x1.e09b666fe9b6cp-4", "0x1.059e755b44cc4p-1", "0x1.cea7a7dd56df4p-1"), 70),
    ("d", True, ("-0x1.b38c7e293208bp-6", "0x1.21856a2bff627p+0", "0x1.23c6721781d66p+1"), 48),
]
# (shape, sample, family, (mu, sigma), iterations) of fixed-shape EE fits
# through the sweep paths the pins above miss: shape 2 (the weight
# exponent alpha - 2 is 0), shape 1.3 on the odd-length sample, whose
# median start puts one residual at exactly 0, and shape 3 (the damped
# sweep); recorded before the density weights were computed once per sweep.
# Huber's sweep is not damped, so its shape-3 row is its shape-2 row.
SWEEP_PATH_PINS = [
    (2.0, "full", "plain", ("0x1.b90089a3e8777p-4", "0x1.08785dcefb503p+1"), 2),
    (2.0, "full", "huber", ("0x1.540ced334e88fp-5", "0x1.f0b40af3307f4p-1"), 23),
    (2.0, "full", "q", ("-0x1.58d084df8a44fp-9", "0x1.0561f42ce23e9p+0"), 24),
    (2.0, "full", "d", ("-0x1.074f3c3bddd5ep-6", "0x1.134e035071938p+0"), 10),
    (1.3, "odd", "plain", ("0x1.2ec7514ebbad9p-4", "0x1.30394470924eap+0"), 57),
    (1.3, "odd", "huber", ("0x1.7f8f33b8e0606p-6", "0x1.dd6d64118361fp-1"), 22),
    (1.3, "odd", "q", ("0x1.0da6fa95699ebp-4", "0x1.8d0f4c6794cb6p-1"), 79),
    (1.3, "odd", "d", ("0x1.86d64019db97bp-5", "0x1.a758ae9f02c85p-1"), 56),
    (3.0, "full", "plain", ("0x1.f8a26069e0c2cp-4", "0x1.9753d8315d5f5p+1"), 21),
    (3.0, "full", "huber", ("0x1.540ced334e88fp-5", "0x1.f0b40af3307f4p-1"), 23),
    (3.0, "full", "q", ("-0x1.5a379a77d7836p-5", "0x1.2b7f345258966p+0"), 22),
    (3.0, "full", "d", ("-0x1.f7720f5b4d640p-6", "0x1.43baffff98b3fp+0"), 18),
]
SWEEP_PATH_FAMILIES = {"plain": Plain(), "huber": Huber(1.5), "q": QWeighted(0.8),
                       "d": Distorted(0.003)}
EE_FIT_FAMILIES = {
    "plain": Plain(),
    "huber": Huber(1.345),
    "combined": CombinedPlain(ShapeTriple(1.6, 2.5, 3.2), 0.7, 1.1),
    "combined_huber": CombinedHuber(ShapeTriple(1.6, 2.5, 3.2), 0.7, 1.1),
    "q": QWeighted(0.8),
    "q1": QWeighted(1.0),
    "d": Distorted(6e-3),
    "d0": Distorted(0.0),
}


# Anderson-accelerated fixed-shape fits of the rows above whose sweeps it
# extrapolates (undamped, not combined, likelihood families from shape
# 1.5): (pin table, row name, (mu, sigma), sweeps).  Those rows of
# the tables above are the plain reweighting loop, reproduced bit for bit
# with the extrapolation switched off; every other row holds as it is.
ACCELERATED_PINS = [
    ("ee_fit", "plain", ("0x1.18693891f664ep-3", "0x1.434004d1c5571p+1"), 8),
    ("ee_fit", "huber", ("0x1.0a00f5b22e0b1p-5", "0x1.d7f5dd09642ecp-1"), 8),
    ("ee_fit", "q", ("-0x1.c24d334736bffp-6", "0x1.1677b3ce74995p+0"), 8),
    ("ee_fit", "q1", ("0x1.18693891f664ep-3", "0x1.434004d1c5571p+1"), 8),
    ("ee_fit", "d", ("-0x1.df2abd215549cp-6", "0x1.27b9fd59407afp+0"), 9),
    ("ee_fit", "d0", ("0x1.18693891f664ep-3", "0x1.434004d1c5571p+1"), 8),
    ("sweep_path", "2.0-full-huber", ("0x1.540ced335da8cp-5", "0x1.f0b40af331e3ap-1"), 9),
    ("sweep_path", "2.0-full-q", ("-0x1.58d084de12cc6p-9", "0x1.0561f42ce59c2p+0"), 8),
    ("sweep_path", "2.0-full-d", ("-0x1.074f3c3bd816bp-6", "0x1.134e035071de9p+0"), 8),
    ("sweep_path", "1.3-odd-huber", ("0x1.7f8f33b8f9b47p-6", "0x1.dd6d6411852dcp-1"), 9),
    ("sweep_path", "3.0-full-huber", ("0x1.540ced335da8cp-5", "0x1.f0b40af331e3ap-1"), 9),
]
ACCELERATED = {(table, name) for table, name, _, _ in ACCELERATED_PINS}


def _plain_sweeps(monkeypatch):
    """Switch off the fixed-shape extrapolation: the fit is the plain
    reweighting loop, sweep for sweep."""
    monkeypatch.setattr(epfit.estimate, "_sweep_extrapolant", lambda history: None)


def _ee_fit_pin(name, estimate_alpha):
    family = EE_FIT_FAMILIES[name]
    alpha = None if estimate_alpha or name.startswith("combined") else 2.4
    return fit_ee_location_scale(reference_samples()["contaminated"], family, alpha=alpha,
                                 estimate_alpha=estimate_alpha)


def _sweep_path_pin(alpha, sample_name, name):
    data = reference_samples()["contaminated"]
    if sample_name == "odd":
        data = data[:-1]
        assert initial_values(data)[0] in data
    return fit_ee_location_scale(data, SWEEP_PATH_FAMILIES[name], alpha=alpha)


class TestEePinned:
    @pytest.mark.parametrize("q, beta, root, hinted", SHAPE_ROOT_PINS)
    def test_shape_roots(self, q, beta, root, hinted):
        data = reference_samples()["contaminated"]
        current = EpdParams(*SHAPE_ROOT_START, 2.0)
        assert fit_ee_alpha(data, current, q=q, beta=beta).hex() == root
        assert fit_ee_alpha(data, current, q=q, beta=beta, hint=1.7).hex() == hinted

    @pytest.mark.parametrize("name, estimate_alpha, point, iterations", EE_FIT_PINS)
    def test_fits(self, name, estimate_alpha, point, iterations, monkeypatch):
        if ("ee_fit", name) in ACCELERATED and not estimate_alpha:
            _plain_sweeps(monkeypatch)
        res = _ee_fit_pin(name, estimate_alpha)
        p = res.params
        assert (p.mu.hex(), p.sigma.hex(), p.alpha.hex()) == point
        assert res.iterations == iterations

    @pytest.mark.parametrize("alpha, sample_name, name, point, iterations", SWEEP_PATH_PINS)
    def test_sweep_paths(self, alpha, sample_name, name, point, iterations, monkeypatch):
        if ("sweep_path", f"{alpha}-{sample_name}-{name}") in ACCELERATED:
            _plain_sweeps(monkeypatch)
        res = _sweep_path_pin(alpha, sample_name, name)
        assert (res.params.mu.hex(), res.params.sigma.hex()) == point
        assert res.iterations == iterations

    @pytest.mark.parametrize("table, name, point, iterations", ACCELERATED_PINS)
    def test_accelerated_fits(self, table, name, point, iterations):
        if table == "ee_fit":
            row = next(r for r in EE_FIT_PINS if r[:2] == (name, False))
            res, plain = _ee_fit_pin(name, False), row[2][:2]
        else:
            row = next(r for r in SWEEP_PATH_PINS if "-".join(map(str, r[:3])) == name)
            res, plain = _sweep_path_pin(*row[:3]), row[3]
        p = res.params
        assert (p.mu.hex(), p.sigma.hex()) == point
        assert res.iterations == iterations < row[-1]
        # the plain loop's fixed point, to well inside its stopping rule
        mu, sigma = map(float.fromhex, plain)
        assert max(abs(p.mu - mu), abs(p.sigma - sigma)) <= 1e-10 * sigma

    def test_huber_fit_does_not_depend_on_the_shape(self):
        # Huber's weights have no shape in them, so no shape relaxes or
        # keeps the extrapolation off its sweep
        data = reference_samples()["contaminated"]
        fits = [fit_ee_location_scale(data, Huber(1.5), alpha=a) for a in (1.3, 2.0, 3.0, 6.0)]
        points = {(r.params.mu.hex(), r.params.sigma.hex(), r.iterations) for r in fits}
        pin = next(r for r in ACCELERATED_PINS if r[1] == "2.0-full-huber")
        assert points == {(*pin[2], pin[3])}


# Shape-estimating fits of the first 60 replications of acceptance
# criteria 2 and 3, recorded with the plain alternating iteration that
# Anderson acceleration replaced: (mu, sigma, alpha) as float hex and
# whether that fit converged (45 and 50 of 60 did)
SHAPE_FIT_PINNED = json.loads((Path(__file__).parent / "data" / "shape_fit_pinned.json").read_text())
SHAPE_FIT_FAMILIES = {"c2": (QWeighted(0.625), {"q": 0.625}),
                      "c3": (Distorted(6e-3), {"beta": 6e-3})}


class TestShapeFitPinnedSet:
    @pytest.mark.parametrize("name", ["c2", "c3"])
    def test_accelerated_fit_keeps_the_plain_fixed_points(self, name):
        pinned = SHAPE_FIT_PINNED[name]
        family, kwargs = SHAPE_FIT_FAMILIES[name]
        design = reference_design(pinned["design"])
        lost, moved, unstationary = [], [], []
        for rep, (mu, sigma, alpha, converged) in enumerate(pinned["fits"]):
            data = generate(design, np.random.SeedSequence(pinned["seed"], spawn_key=(0, rep, 0)))
            res = fit_ee_location_scale(data, family, estimate_alpha=True)
            p = res.params
            if res.converged:
                total = np.array(psi_vector(data, p, **kwargs)).sum(axis=1)
                if not np.max(np.abs(total)) <= 1e-6:
                    unstationary.append(rep)
            if converged and not res.converged:
                lost.append(rep)
            elif converged:
                gap = max(abs(p.mu - float.fromhex(mu)), abs(p.sigma - float.fromhex(sigma)),
                          abs(p.alpha - float.fromhex(alpha)))
                if not gap <= 1e-8:
                    moved.append((rep, gap))
        assert (lost, moved, unstationary) == ([], [], [])

    def test_cusp_fixed_point_is_not_certified(self):
        # replication 1 of criterion 3: the map settles with mu on an
        # observation at shape 1.04, where the location score has a cusp
        data = generate(reference_design(4), np.random.SeedSequence(3, spawn_key=(0, 1, 0)))
        res = fit_ee_location_scale(data, Distorted(6e-3), estimate_alpha=True)
        p = res.params
        assert not res.converged
        assert res.iterations < epfit.estimate._MAX_ITER
        assert np.min(np.abs(data - p.mu)) < 1e-9 * p.sigma
        total = np.array(psi_vector(data, p, beta=6e-3)).sum(axis=1)
        assert np.max(np.abs(total)) > 1e-3
        assert p.alpha == pytest.approx(1.036, abs=1e-3)


# Fixed-shape fits of 60 generated samples x 6 families x 3 shapes,
# recorded with the plain reweighting loop before Anderson acceleration
FIXED_FIT_PINNED = json.loads((Path(__file__).parent / "data" / "fixed_fit_pinned.json").read_text())
FIXED_FIT_FAMILIES = {"plain": Plain(), "huber": Huber(1.5), "q0.8": QWeighted(0.8),
                      "q0.625": QWeighted(0.625), "d0.003": Distorted(3e-3),
                      "d0.01": Distorted(1e-2)}


def _sweep_recorder(monkeypatch):
    """The (mu, sigma) of every fixed-shape sweep, in order."""
    points = []
    sweep = epfit.estimate._ee_sweep

    def recorded(data, score, p, damp):
        points.append((p.mu, p.sigma))
        return sweep(data, score, p, damp)

    monkeypatch.setattr(epfit.estimate, "_ee_sweep", recorded)
    return points


class TestFixedFitPinnedSet:
    def test_accelerated_fits_keep_the_plain_fixed_points(self):
        pinned = FIXED_FIT_PINNED
        changed, moved = [], []
        plain_sweeps = sweeps = 0
        for k, row in enumerate(pinned["fits"]):
            data = generate(reference_design(k % 4 + 1), np.random.SeedSequence(7000 + k))
            cases = [(f, a) for f in pinned["families"] for a in pinned["shapes"]]
            for (name, alpha), (mu, sigma, converged, error, n_sweeps) in zip(cases, row):
                try:
                    res = fit_ee_location_scale(data, FIXED_FIT_FAMILIES[name], alpha=alpha)
                except Exception as exc:  # compared with the recorded type below
                    outcome = (None, type(exc).__name__)
                else:
                    outcome = (res.converged, None)
                if outcome != (converged, error):
                    changed.append((k, name, alpha, outcome))
                if error is None and outcome[1] is None:
                    p = res.params
                    gap = max(abs(p.mu - float.fromhex(mu)),
                              abs(p.sigma - float.fromhex(sigma))) / float.fromhex(sigma)
                    if not gap <= 1e-10:
                        moved.append((k, name, alpha, gap))
                    plain_sweeps += n_sweeps
                    sweeps += res.iterations
        assert (changed, moved) == ([], [])
        assert 2 * sweeps <= plain_sweeps

    @pytest.mark.parametrize("family, alpha, design, seed, point, far", [
        # the depth-2 extrapolant jumps to mu -6.47, and the next sweep
        # from there collapses
        (Distorted(0.003), 2.0, 4, np.random.SeedSequence(1125694557, spawn_key=(3, 10, 0)),
         ("0x1.d2ad769a49bc8p-7", "0x1.3c9e2956f1159p+0"), lambda mu, sigma: mu < -1.0),
        # an extrapolant with sigma 0.017 against 1.27 of the sweep output
        # would step less than the plain step, then collapse
        (Distorted(0.01), 2.5, 4, np.random.SeedSequence(7175),
         ("0x1.4ab67db7d8561p-7", "0x1.67c0892362959p+0"), lambda mu, sigma: sigma < 0.5),
    ], ids=["location-jump", "scale-collapse"])
    def test_trust_region_keeps_far_extrapolants_out(self, family, alpha, design, seed, point,
                                                     far, monkeypatch):
        # point: the plain loop's fit, recorded before acceleration
        data = generate(reference_design(design), seed)
        swept = _sweep_recorder(monkeypatch)
        res = fit_ee_location_scale(data, family, alpha=alpha)
        assert res.converged
        assert not any(far(*q) for q in swept)
        mu, sigma = map(float.fromhex, point)
        assert max(abs(res.params.mu - mu), abs(res.params.sigma - sigma)) <= 1e-10 * sigma
        assert res.iterations == len(swept)


OBJECTIVE_PINS = [
    ("contaminated", Plain(), 5, ('0x1.374c5ad7bdf7ep-3', '0x1.9eaaa33590b34p-2', '0x1.5eb3c2ed22d89p-1'), '-0x1.4b47f874f2297p+7'),
    ("contaminated", QWeighted(0.8), 5, ('0x1.374c5ad7bdf80p-3', '0x1.bb69aa337de58p-2', '0x1.a4ee0441acb3cp-1'), '-0x1.0332d4fd1a8c5p+7'),
    ("contaminated", Distorted(0.006), 9, ('-0x1.b38c8f000985fp-6', '0x1.21856a14f2f5ep+0', '0x1.23c67125510c2p+1'), '-0x1.27dbdf5087db4p+7'),
    ("clean", Plain(), 5, ('0x1.7d1f8270fa863p+0', '0x1.2c2572a52d0bap-1', '0x1.5816f19c74f6cp+0'), '-0x1.8842d82640c68p+5'),
    ("clean", QWeighted(0.8), 5, ('0x1.80100ef38c37dp+0', '0x1.c35eb8c817400p-2', '0x1.3138af365489cp+0'), '-0x1.4a264a95ac275p+5'),
    ("clean", Distorted(0.006), 9, ('0x1.7db01110c6c82p+0', '0x1.29b055b6339c0p-1', '0x1.608fc1866e4bep+0'), '-0x1.7d212efa6115ep+5'),
    # two fits whose polished point depended on the order among tied
    # vertex values under the per-generation GA stream (numpy's default
    # argsort against a stable sort moved alpha by 2.8e-8 and 1.1e-8);
    # they now pin the polish's stable tie order, although under the
    # whole-run stream no fit of the 60-sample set depends on it
    ("k50", Distorted(0.006), 50, ('0x1.9fa61e06c8728p-4', '0x1.cbc37b8ea3017p-1', '0x1.263c75ec314f2p+1'), '-0x1.fe2dec77416f7p+6'),
    ("k57", Plain(), 57, ('0x1.24a5f818e6c17p-4', '0x1.339071bf0a363p-1', '0x1.b14c5c67cfcc2p-1'), '-0x1.3f7b4e3fd2ee7p+7'),
]


def _objective_pin_sample(name):
    """A named reference sample, or "k<k>": sample k of the objective
    route's 60-sample set, drawn from reference design k % 4 + 1."""
    if name.startswith("k"):
        k = int(name[1:])
        return generate(reference_design(k % 4 + 1), np.random.SeedSequence(1000 + k))
    return reference_samples()[name]


class TestObjectiveRoutePinned:
    @pytest.mark.parametrize("name, mode, seed, point, value", OBJECTIVE_PINS,
                             ids=[f"{name}-{mode}-seed{seed}" for name, mode, seed, *_ in OBJECTIVE_PINS])
    def test_bit_identical(self, name, mode, seed, point, value):
        res = fit_objective(_objective_pin_sample(name), mode, seed=seed)
        p = res.params
        assert (p.mu.hex(), p.sigma.hex(), p.alpha.hex()) == point
        assert res.objective_value.hex() == value
        assert res.iterations == 200

    @pytest.mark.parametrize("n", [3, 110])
    @pytest.mark.parametrize("mode", [Plain(), QWeighted(0.8), Distorted(6e-3), QWeighted(1.0), Distorted(0.0)])
    def test_rows_match_single_point_densities(self, mode, n):
        if isinstance(mode, Plain):
            density = log_pdf
        elif isinstance(mode, QWeighted):
            density = lambda x, p: log_q_pdf(x, p, mode.q)
        else:
            density = lambda x, p: distorted_log_pdf(x, p, mode.beta)
        rng = np.random.default_rng(n)
        data = rng.standard_normal(n) * 2.0
        points = np.column_stack([
            rng.normal(0.0, 1.0, 200), rng.uniform(0.05, 5.0, 200), rng.uniform(0.1, 20.0, 200),
        ])
        # numpy computes x**-1, x**0, x**0.5, x**1 and x**2 by exact
        # shortcuts when the exponent is one scalar; plant those shapes and
        # a few other whole and half ones among the random shapes (a
        # one-ulp slip shows best in short samples)
        points[::2, 2] = np.tile([0.5, 1.0, 2.0, 3.0, 1.5, 4.0, 0.25, 10.0], 13)[:100]
        points[1, 1] = -1.0
        points[3, 2] = 0.0
        points[5, 2] = -1.0
        # rows that are no EP parameter triple either: NaN or inf in any
        # coordinate, two of them at the exact shapes 0.5 (row 16) and 2 (row 20)
        bad = [(0, np.nan), (0, np.inf), (0, -np.inf), (1, np.nan), (1, np.inf),
               (2, np.nan), (2, np.inf), (1, np.nan), (0, np.inf)]
        for k, (j, x) in zip([7, 9, 11, 13, 15, 17, 19, 16, 20], bad):
            points[k, j] = x
        assert points[16, 2] == 0.5 and points[20, 2] == 2.0
        invalid = (1, 3, 5, 7, 9, 11, 13, 15, 16, 17, 19, 20)
        values = objective_values(mode, data, points)
        assert all(values[k] == -np.inf for k in invalid)
        for k, (row, v) in enumerate(zip(points, values)):
            # a one-row call takes the one-point path, held to the same bits
            assert objective_values(mode, data, row[None]).tolist() == [v]
            if k not in invalid:
                assert v == float(np.sum(density(data, EpdParams(*row))))
                assert v == objective_value(mode, data, EpdParams(*row))
        # the rows do not depend on each other: any subset gives the same
        # values, whether all its rows are valid, none is, it has two rows,
        # or it mixes the exact shapes with invalid rows
        valid = [k for k in range(len(points)) if k not in invalid]
        for subset in ([0, 1, 2, 7, 8, 199], valid, list(invalid), [0, 4], [4, 1],
                       [0, 16, 3, 4, 20, 8]):
            assert objective_values(mode, data, points[subset]).tolist() == values[subset].tolist()
        assert objective_values(mode, data, np.array([[0.0, np.nan, 2.0]])).tolist() == [-np.inf]


class TestFarOutlier:
    """One far point among 110 normal draws, at shape 2 or with the shape
    estimated: the weighted families give it an exactly zero weight, so
    it must drop out, and no fit may warn on its overflowing powers."""

    CLEAN = np.random.default_rng(0).normal(size=110)

    @staticmethod
    def _fit(data, family, estimate_alpha=False):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return fit_ee_location_scale(data, family, alpha=None if estimate_alpha else 2.0,
                                         estimate_alpha=estimate_alpha)

    @pytest.mark.parametrize("far", [1e100, 1e160, 1e300])
    @pytest.mark.parametrize("family", [Distorted(6e-3), QWeighted(0.8)], ids=["d", "q"])
    def test_zero_weight_point_drops_out(self, family, far):
        clean = self._fit(self.CLEAN, family).params
        res = self._fit(np.append(self.CLEAN, far), family)
        assert res.converged
        assert res.params.mu == pytest.approx(clean.mu, rel=1e-13, abs=1e-14)
        assert res.params.sigma == pytest.approx(clean.sigma, rel=1e-13)

    @pytest.mark.parametrize("far", [1e100, 1e160, 1e300])
    @pytest.mark.parametrize("family", [Distorted(6e-3), QWeighted(0.8)], ids=["d", "q"])
    def test_zero_weight_point_drops_out_of_the_shape_fit(self, family, far):
        clean = self._fit(self.CLEAN, family, estimate_alpha=True)
        res = self._fit(np.append(self.CLEAN, far), family, estimate_alpha=True)
        assert clean.converged and res.converged
        # the far point moves the median/MAD start, so the two fits stop
        # at different steps, each within the 1e-11 step tolerance
        assert res.params.mu == pytest.approx(clean.params.mu, rel=1e-10)
        assert res.params.sigma == pytest.approx(clean.params.sigma, rel=1e-10)
        assert res.params.alpha == pytest.approx(clean.params.alpha, rel=1e-10)

    def test_huber_breaks_down_finitely_or_names_the_overflow(self):
        res = self._fit(np.append(self.CLEAN, 1e100), Huber(1.5))
        assert res.converged and 1e97 < res.params.sigma < 1e99
        # there the scale sum itself exceeds the float range
        for far in (1e160, 1e300):
            with pytest.raises(DegenerateDataError, match="scale update overflowed"):
                self._fit(np.append(self.CLEAN, far), Huber(1.5))

    def test_plain_names_the_overflow(self):
        with pytest.raises(DegenerateDataError, match="scale update overflowed"):
            self._fit(np.append(self.CLEAN, 1e160), Plain())


# The fixed-shape sweep and the sampler as they were before their set-up
# was taken out of the per-sweep and per-replication paths: the
# references the current code must match bit for bit.

def _reference_abs_pow(ay, expo):
    zero = ay < 1e-12
    return np.where(zero, expo == 0.0, np.where(zero, 1.0, ay) ** expo)


def _reference_density_weight(family, x, p):
    q, beta = family.likelihood
    y = np.abs(x - p.mu) / p.sigma
    lf = p.log_norm_const() - y**p.alpha
    if q != 1.0:
        with np.errstate(over="ignore"):
            return np.exp((1.0 - q) * lf)
    if beta > 0.0:
        f = np.exp(lf)
        return f / (beta + f)
    return None


def _reference_ee_weight(family, x, p, density=None):
    if isinstance(family, Huber):
        ay = np.abs((x - p.mu) / p.sigma)
        with np.errstate(divide="ignore"):
            return np.where(ay <= family.r, 1.0, family.r / np.where(ay == 0, 1.0, ay))
    if family.shapes is not None:
        y = (x - p.mu) / p.sigma
        alpha, mult = epfit.scores._branches(y, family.triple, family.k, family.t,
                                             family.huberized)
        return alpha * _reference_abs_pow(np.abs(y), alpha - 2.0) * mult
    pow_am2 = _reference_abs_pow(np.abs((x - p.mu) / p.sigma), p.alpha - 2.0)
    w = _reference_density_weight(family, x, p) if density is None else density
    return p.alpha * pow_am2 if w is None else w * p.alpha * pow_am2


def _reference_ee_sweep(data, score, p, damp):
    dw = None
    if score.density_weighted:
        dw = _reference_density_weight(score, data, p)
    w = np.asarray(_reference_ee_weight(score, data, p, density=dw))
    sw = float(w.sum())
    if not math.isfinite(sw) or sw <= 0.0:
        raise DegenerateDataError("estimating-equation weights vanished")
    mu_new = float((w * data).sum() / sw)
    denom = float(len(data)) if dw is None else float(dw.sum())
    if not math.isfinite(denom) or denom <= 0.0:
        raise DegenerateDataError("scale-equation denominator vanished")
    s2 = float((w * (data - mu_new) ** 2).sum() / denom)
    if not math.isfinite(s2) or s2 <= 0.0:
        raise DegenerateDataError("scale update collapsed to zero")
    sigma_new = math.sqrt(s2)
    if damp < 1.0:
        mu_new = (1.0 - damp) * p.mu + damp * mu_new
        sigma_new = math.exp((1.0 - damp) * math.log(p.sigma) + damp * math.log(sigma_new))
    return mu_new, sigma_new


def _reference_sweep_extrapolant(history):
    rows = list(history)
    f = [(g_mu - mu, g_sigma - sigma) for mu, sigma, g_mu, g_sigma in rows]
    df = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(f, f[1:])]
    dg = [(b[2] - a[2], b[3] - a[3]) for a, b in zip(rows, rows[1:])]
    (f_mu, f_sigma), (a_mu, a_sigma), (ga_mu, ga_sigma) = f[-1], df[-1], dg[-1]
    g_mu, g_sigma = rows[-1][2:]
    if len(df) == 2:
        (b_mu, b_sigma), (gb_mu, gb_sigma) = df[0], dg[0]
        det = a_mu * b_sigma - b_mu * a_sigma
        if det != 0.0:
            ca = (f_mu * b_sigma - b_mu * f_sigma) / det
            cb = (a_mu * f_sigma - f_mu * a_sigma) / det
            return g_mu - ca * ga_mu - cb * gb_mu, g_sigma - ca * ga_sigma - cb * gb_sigma
    norm = a_mu * a_mu + a_sigma * a_sigma
    if norm == 0.0:
        return None
    c = (a_mu * f_mu + a_sigma * f_sigma) / norm
    return g_mu - c * ga_mu, g_sigma - c * ga_sigma


def _bits(value):
    """Exact, comparable form of a sweep outcome: hex floats, or the
    message of the error it raised."""
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return tuple(float(v).hex() for v in value)


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except DegenerateDataError as exc:
        return str(exc)


SWEEP_SHAPES = (0.8, 1.0, 1.3, 1.5, 2.0, 2.5, 3.0, 5.0)


def _sweep_families(alpha):
    # the combined families get per-point exponents around the shape
    triple = ShapeTriple(0.9 * alpha, alpha, 1.2 * alpha)
    return [Plain(), Huber(1.5), CombinedPlain(triple, 1.0, 1.2),
            CombinedHuber(triple, 1.0, 1.2), QWeighted(0.8), Distorted(3e-3)]


def _sweep_samples(count):
    return [generate(reference_design(k % 4 + 1), np.random.SeedSequence(9100 + k))
            for k in range(count)]


class TestSweepSetUp:
    """The fixed-shape sweep, its weights and its extrapolant against
    the references above, bit for bit."""

    @pytest.mark.parametrize("expo", [-1.2, -1.0, -0.5, 0.0, 0.3, 0.5, 1.0, 3.0, "per-point"])
    def test_abs_pow(self, expo):
        ay = np.abs(np.random.default_rng(3).normal(size=200))
        if expo == "per-point":
            expo = np.random.default_rng(4).uniform(-1.5, 3.0, size=200)
            expo[::7] = 0.0
        with_zeros = ay.copy()
        with_zeros[::9] = 0.0
        with_zeros[1] = 1e-13
        for values in (ay, with_zeros, ay[:1], with_zeros[:1]):
            e = expo if np.ndim(expo) == 0 else expo[: len(values)]
            assert _bits(epfit.scores._abs_pow(values, e)) == _bits(_reference_abs_pow(values, e))

    @pytest.mark.parametrize("alpha", SWEEP_SHAPES)
    def test_sweeps_and_weights(self, alpha):
        # 200 samples x 6 families, each at its start and at a wider
        # scale with mu exactly on an observation (a residual of exactly 0)
        damp = min(1.0, 2.0 / (1.2 * alpha)) if 1.2 * alpha > 2.5 else 1.0
        for data in _sweep_samples(200):
            mu0, sigma0 = initial_values(data)
            points = [(mu0, sigma0), (float(data[7]), 1.7 * sigma0)]
            for family in _sweep_families(alpha):
                for mu, sigma in points:
                    p = EpdParams(mu, sigma, alpha)
                    got = _outcome(epfit.estimate._ee_sweep, data, family, p, damp)
                    assert got == _outcome(_reference_ee_sweep, data, family, p, damp)
                    assert (_bits(epfit.scores.ee_weight(family, data, p))
                            == _bits(_reference_ee_weight(family, data, p)))

    @pytest.mark.parametrize("alpha", SWEEP_SHAPES)
    def test_fits(self, alpha, monkeypatch):
        samples = _sweep_samples(8)

        def fits():
            out = []
            for data in samples:
                for family in _sweep_families(alpha):
                    try:
                        res = fit_ee_location_scale(data, family, alpha=alpha)
                    except DegenerateDataError as exc:
                        out.append(str(exc))
                    else:
                        out.append((_bits((res.params.mu, res.params.sigma)),
                                    res.iterations, res.converged))
            return out

        got = fits()
        monkeypatch.setattr(epfit.estimate, "_ee_sweep", _reference_ee_sweep)
        monkeypatch.setattr(epfit.estimate, "_sweep_extrapolant", _reference_sweep_extrapolant)
        assert got == fits()

    def test_extrapolant(self):
        rng = np.random.default_rng(11)
        histories = [[tuple(rng.normal(size=4)) for _ in range(depth)]
                     for depth in (2, 3) for _ in range(500)]
        # parallel residual differences (depth 2 falls back to depth 1)
        # and an unchanged residual (no extrapolant)
        histories += [[(0.0, 1.0, 1.0, 2.0), (1.0, 2.0, 3.0, 5.0), (2.0, 3.0, 5.0, 8.0)],
                      [(0.0, 1.0, 1.0, 2.0), (1.0, 2.0, 2.0, 3.0)]]
        for rows in histories:
            history = collections.deque(rows, maxlen=3)
            got = _bits(epfit.estimate._sweep_extrapolant(history))
            assert got == _bits(_reference_sweep_extrapolant(history))
        assert epfit.estimate._sweep_extrapolant(collections.deque(histories[-1])) is None
