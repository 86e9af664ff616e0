"""EP distribution: density values, normalization, deformed logs,
sampler moments and the closed-form CDF."""

import math

import numpy as np
import pytest
import scipy.stats

from epfit.epd import (
    EpdParams,
    cdf,
    distorted_log_pdf,
    log_pdf,
    log_q_pdf,
    make_rng,
    pdf,
    sample,
)
from epfit.special_fn import gamma_fn, integrate

STANDARD = EpdParams(0.0, 1.0, 2.0)


class TestParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            EpdParams(0.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            EpdParams(0.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            EpdParams(math.nan, 1.0, 1.0)


class TestDensity:
    def test_laplace_center(self):
        assert pdf(0.0, EpdParams(0.0, 1.0, 1.0)) == pytest.approx(0.5, rel=1e-12)

    def test_gaussian_center(self):
        assert pdf(0.0, STANDARD) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)

    def test_generic_point_against_direct_formula(self):
        p = EpdParams(0.2, 1.5, 2.7)
        want = (
            p.alpha / (2.0 * p.sigma * gamma_fn(1.0 / p.alpha))
            * math.exp(-((abs(1.3 - p.mu) / p.sigma) ** p.alpha))
        )
        assert pdf(1.3, p) == pytest.approx(want, rel=1e-12)

    def test_symmetry(self):
        # binary-exact offsets so mu +/- t round identically
        p = EpdParams(0.75, 2.0, 1.4)
        for t in (0.125, 0.5, 3.5, 11.0):
            assert pdf(p.mu + t, p) == pdf(p.mu - t, p)

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.3, 2.0, 2.1, 3.0])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 6.0])
    def test_normalization(self, alpha, sigma):
        p = EpdParams(0.3, sigma, alpha)
        # the mass beyond y^alpha = 60 is below 1e-25
        w = 60.0 ** (1.0 / alpha) * p.sigma
        mass = integrate(lambda x: pdf(x, p), p.mu - w, p.mu + w).value
        assert mass == pytest.approx(1.0, abs=1e-8)


class TestDeformedLogs:
    # the Laplace shape has density 1 / (2 sigma) at its centre
    def test_log_q_of_one_is_zero(self):
        for q in (0.2, 0.5, 0.99, 1.0):
            assert log_q_pdf(0.0, EpdParams(0.0, 0.5, 1.0), q) == pytest.approx(0.0, abs=1e-12)

    def test_log_q_arithmetic(self):
        got = log_q_pdf(0.0, EpdParams(0.0, 0.25, 1.0), 0.5)
        assert got == pytest.approx((2.0**0.5 - 1.0) / 0.5, rel=1e-12)

    def test_log_q_continuous_at_one(self):
        xs = np.linspace(-1.8, 1.8, 41)
        gap = np.abs(log_q_pdf(xs, STANDARD, 1.0 - 1e-6) - log_pdf(xs, STANDARD))
        assert np.max(gap) < 1e-5

    def test_distorted_reduces_to_log(self):
        xs = np.linspace(-3.0, 3.0, 21)
        np.testing.assert_array_equal(
            distorted_log_pdf(xs, STANDARD, 0.0), log_pdf(xs, STANDARD)
        )

    def test_distorted_value(self):
        got = distorted_log_pdf(0.0, EpdParams(0.0, 1.0, 1.0), 0.5)
        assert got == pytest.approx(0.0, abs=1e-12)


class TestSampler:
    def test_transform_identity(self):
        # the same Philox stream by hand: gammas, then signs, then
        # x = mu + (sigma z) y^(1/alpha)
        p = EpdParams(0.5, 2.0, 1.3)
        rng = make_rng(8)
        y = rng.gamma(shape=1.0 / p.alpha, scale=1.0, size=50)
        z = np.where(rng.random(50) < 0.5, -1.0, 1.0)
        expected = y ** (1.0 / p.alpha) * (p.sigma * z) + p.mu
        assert sample(p, 50, 8).tobytes() == expected.tobytes()

    def test_deterministic(self):
        a = sample(STANDARD, 100, 12345)
        b = sample(STANDARD, 100, 12345)
        np.testing.assert_array_equal(a, b)

    def test_symmetry_moments(self):
        draws = sample(STANDARD, 100_000, 12345)
        assert abs(np.mean(draws)) < 0.01
        skew = float(np.mean((draws - draws.mean()) ** 3) / np.std(draws) ** 3)
        assert abs(skew) < 0.05

    def test_second_moment(self):
        draws = sample(STANDARD, 100_000, 12345)
        want = gamma_fn(1.5) / gamma_fn(0.5)
        assert np.mean(draws**2) == pytest.approx(want, abs=0.01)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample(STANDARD, 0, 1)


class TestCdf:
    def test_center_is_exactly_half(self):
        assert cdf(0.0, STANDARD) == 0.5
        assert cdf(-1.2, EpdParams(-1.2, 3.0, 1.1)) == 0.5

    def test_tails(self):
        assert cdf(np.inf, STANDARD) == 1.0
        assert cdf(50.0, STANDARD) == pytest.approx(1.0, abs=1e-8)

    def test_against_scipy_gennorm(self):
        # scipy's generalized normal is the EP distribution with beta =
        # alpha; 0.005 is a shape where gamma_fn(1/alpha) overflows
        for alpha in (0.005, 0.05, 0.3, 0.574, 1.0, 1.3, 2.0, 4.5, 20.0):
            p = EpdParams(0.3, 1.7, alpha)
            xs = np.concatenate([np.linspace(-25.0, 25.0, 401), [-1e300, 0.3, 1e300]])
            with np.errstate(over="ignore"):
                want = scipy.stats.gennorm.cdf(xs, alpha, loc=0.3, scale=1.7)
            assert np.max(np.abs(cdf(xs, p) - want)) < 1e-13
            # the lower tail keeps its relative accuracy
            tail = 0.3 - 1.7 * np.array([2.0, 4.0, 8.0, 30.0])
            with np.errstate(over="ignore"):
                want = scipy.stats.gennorm.cdf(tail, alpha, loc=0.3, scale=1.7)
            np.testing.assert_allclose(cdf(tail, p), want, rtol=1e-13, atol=0.0)

    def test_elementwise_shape(self):
        xs = np.array([[-1.0, 0.0], [0.5, np.inf]])
        out = cdf(xs, STANDARD)
        assert out.shape == (2, 2)
        assert out[1, 1] == 1.0
        assert isinstance(cdf(0.7, STANDARD), float)

    @pytest.mark.parametrize("alpha,seed", [(2.0, 2024), (1.3, 77)])
    def test_kolmogorov_smirnov(self, alpha, seed):
        p = EpdParams(0.0, 1.0, alpha)
        draws = np.sort(sample(p, 10_000, seed))
        grid = cdf(draws, p)
        n = len(draws)
        dist = max(
            float(np.max(np.abs(grid - np.arange(1, n + 1) / n))),
            float(np.max(np.abs(grid - np.arange(0, n) / n))),
        )
        assert dist < 0.02
