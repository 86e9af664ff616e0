"""Special-function kernel: known values, dual-route cross-checks and
analytic identities."""

import heapq
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given, strategies as st

from epfit import special_fn
from epfit.special_fn import (
    DomainError,
    QuadratureError,
    digamma,
    gamma_fn,
    incomplete_gammas,
    integrate,
    log_gamma,
    regularized_gamma,
    trigamma,
)

EULER_GAMMA = 0.5772156649015329


def incomplete_gamma(z, a):
    """The lower and upper (non-regularized) incomplete gammas, formed
    as the closed-form information matrices form them."""
    return incomplete_gammas(z, a)


class TestGamma:
    def test_known_values(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-13)
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_against_integral_oracle(self):
        # definition as an integral, evaluated by scipy's quadrature
        for z in (0.8, 1.7, 3.7, 6.2):
            oracle, _ = scipy.integrate.quad(lambda t, z=z: t ** (z - 1.0) * np.exp(-t),
                                             0.0, np.inf, epsabs=1e-12, epsrel=1e-11, limit=400)
            assert gamma_fn(z) == pytest.approx(oracle, rel=1e-9)

    def test_recurrence(self):
        rng = np.random.default_rng(7)
        for z in rng.uniform(0.1, 30.0, size=100):
            assert gamma_fn(z + 1.0) == pytest.approx(z * gamma_fn(z), rel=1e-10)

    def test_domain(self):
        for bad in (0.0, -1.0, -0.5):
            with pytest.raises(DomainError):
                gamma_fn(bad)

    def test_log_gamma_consistency(self):
        for z in (0.07, 0.9, 4.4, 48.0):
            assert log_gamma(z) == pytest.approx(math.log(gamma_fn(z)), abs=1e-12)


class TestIncompleteGamma:
    def test_trivial_values(self):
        assert incomplete_gamma(1.0, 0.0)[0] == 0.0
        assert incomplete_gamma(1.0, 1.0)[1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_partition_grid(self):
        for z in (0.6, 1.0, 2.5, 7.0):
            for a in (0.0, 0.5, 1.0, 5.0):
                lower, upper = incomplete_gamma(z, a)
                assert lower + upper == pytest.approx(gamma_fn(z), rel=1e-10)

    def test_lower_against_quadrature(self):
        oracle, _ = scipy.integrate.quad(lambda t: t**1.5 * np.exp(-t), 0.0, 1.3,
                                         epsabs=1e-13, epsrel=1e-12)
        assert incomplete_gamma(2.5, 1.3)[0] == pytest.approx(oracle, rel=1e-10)

    def test_domain(self):
        # any finite z is taken; the regularized pair still needs z > 0
        for z in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite z"):
                incomplete_gamma(z, 1.0)
        with pytest.raises(DomainError):
            incomplete_gamma(1.0, -0.5)
        for z in (0.0, -1.5):
            with pytest.raises(DomainError, match="z > 0"):
                regularized_gamma(z, 1.0)

    def test_against_mpmath_at_any_real_z(self):
        # z in [-8, 0], integers and integers +-1e-12 included, and in
        # [0.05, 1); just above 0 the upper gamma is Gamma(z) less the
        # lower one, which loses digits as z falls to 0
        rng = np.random.default_rng(23)
        ints = np.arange(-8.0, 1.0)
        z = np.concatenate([rng.uniform(-8.0, 0.0, 150), rng.uniform(0.05, 1.0, 30),
                            ints, ints - 1e-12, ints[:-1] + 1e-12])
        a = np.exp(rng.uniform(math.log(1e-6), math.log(60.0), (z.size, 3)))
        a[:, 0] = rng.choice([1e-6, 0.5, 1.0, 60.0], z.size)
        lower, upper = incomplete_gammas(z[:, None], a)
        with mpmath.workdps(30):
            want_upper = [[float(mpmath.gammainc(zi, ai)) for ai in row] for zi, row in zip(z, a)]
            want_lower = [[float(mpmath.gammainc(zi, 0, ai)) if zi > 0 else math.inf
                           for ai in row] for zi, row in zip(z, a)]
        np.testing.assert_allclose(upper, want_upper, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(lower, want_lower, rtol=1e-13, atol=0.0)
        # each element as it is alone
        assert all(incomplete_gamma(zi, ai)[1] == u for zi, ai, u in zip(z, a[:, 1], upper[:, 1]))

    @pytest.mark.parametrize("z", [-8.0, -2.5, -1.0, -1e-12, 0.0])
    def test_conventions_at_non_positive_z(self, z):
        # the lower gamma diverges at every a > 0, the upper one at a = 0
        assert incomplete_gamma(z, 0.0) == (0.0, math.inf)
        assert incomplete_gamma(z, math.inf) == (math.inf, 0.0)
        assert incomplete_gamma(z, 1e-300)[0] == math.inf


class TestPolygamma:
    def test_digamma_known(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12)

    def test_digamma_recurrence(self):
        assert digamma(2.1) == pytest.approx(digamma(1.1) + 1.0 / 1.1, abs=1e-12)

    def test_trigamma_known(self):
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)

    def test_digamma_matches_log_gamma_slope(self):
        h = 1e-6
        for z in (0.3, 1.0, 2.2, 9.5, 33.0):
            fd = (log_gamma(z + h) - log_gamma(z - h)) / (2.0 * h)
            assert digamma(z) == pytest.approx(fd, abs=1e-5)

    def test_trigamma_matches_digamma_slope(self):
        h = 1e-6
        for z in (0.4, 1.3, 5.0, 21.0):
            fd = (digamma(z + h) - digamma(z - h)) / (2.0 * h)
            assert trigamma(z) == pytest.approx(fd, abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)
        with pytest.raises(DomainError):
            trigamma(-3.0)


def _integral(f, a, b):
    return integrate(f, a, b).value


def _half_line(f, a):
    """f over (a, inf) as an integrand over (0, 1): x = a + u / (1 - u)."""
    return lambda u: f(a + u / (1.0 - u)) / (1.0 - u) ** 2


def _left_line(f, b):
    """f over (-inf, b) as an integrand over (0, 1): x = b - u / (1 - u)."""
    return lambda u: f(b - u / (1.0 - u)) / (1.0 - u) ** 2


def _whole_line(f):
    """f over the whole line as an integrand over (-1, 1): x = u / (1 - u^2)."""
    return lambda u: f(u / (1.0 - u * u)) * (1.0 + u * u) / (1.0 - u * u) ** 2


def _pole(x):
    with np.errstate(divide="ignore"):
        return np.abs(x) ** -0.5


def _off_node_pole(x):
    # integrable, but not to 1e-12 within the split budget
    return _pole(x - 0.3333)


class TestIntegrate:
    def test_constant(self):
        assert _integral(lambda x: np.ones_like(x), 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_gamma_three(self):
        # the tail beyond 60 holds about 4e-23
        assert _integral(lambda x: x**2 * np.exp(-x), 0.0, 60.0) == pytest.approx(2.0, rel=1e-8)

    def test_doubly_infinite(self):
        got = _integral(_whole_line(lambda x: np.exp(-(x**2))), -1.0, 1.0)
        assert got == pytest.approx(math.sqrt(math.pi), rel=1e-9)

    def test_additive_over_splits(self):
        f = lambda x: np.cos(3.0 * x) * np.exp(-0.1 * x)
        whole = integrate(f, 0.0, 6.0)
        left = integrate(f, 0.0, 2.3)
        right = integrate(f, 2.3, 6.0)
        assert whole.value == pytest.approx(
            left.value + right.value,
            abs=max(whole.error + left.error + right.error, 1e-12),
        )

    def test_error_bound_respected(self):
        res = integrate(lambda x: np.sin(x), 0.0, math.pi)
        assert abs(res.value - 2.0) <= max(res.error, 1e-12)

    def test_nonconvergence_carries_best_estimate(self):
        with pytest.raises(QuadratureError) as err:
            integrate(_off_node_pole, 0.0, 1.0)
        assert math.isfinite(err.value.best)
        assert err.value.bound > 0.0


def _one_panel_gk15(f, lo, hi):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid + half * special_fn._NODES
    fx = np.asarray(f(x), dtype=float)
    fx = np.where(np.isfinite(fx), fx, 0.0)
    kronrod = half * (fx @ special_fn._KW)
    err = np.abs(kronrod - half * (fx @ special_fn._GW))
    mean = 0.5 * (fx @ special_fn._KW)
    resasc = abs(half) * (np.abs(fx - mean[..., None]) @ special_fn._KW)
    scaled = (resasc != 0.0) & (err != 0.0)
    ratio = 200.0 * err / np.where(scaled, resasc, 1.0)
    err = np.where(scaled, resasc * np.minimum(1.0, ratio) ** 1.5, err)
    return kronrod, err


def one_panel_integrate(f, lo, hi, tol):
    """Reference for integrate: its adaptive loop as it evaluated each
    half of a split panel with its own 15-node integrand call.  Returns
    (value, error, subdivisions), or the QuadratureError's (best, bound)
    and None."""

    def excess(total, err):
        return np.max(err / np.maximum(tol, tol * np.abs(total)))

    total, total_err = _one_panel_gk15(f, lo, hi)
    heap = [(-excess(total, total_err), lo, hi, total, total_err)]
    splits = 0
    while excess(total, total_err) > 1.0:
        if splits >= special_fn._MAX_SPLITS:
            return total, total_err, None
        _, ilo, ihi, ival, ierr = heapq.heappop(heap)
        mid = 0.5 * (ilo + ihi)
        lval, lerr = _one_panel_gk15(f, ilo, mid)
        rval, rerr = _one_panel_gk15(f, mid, ihi)
        total = total + ((lval + rval) - ival)
        total_err = total_err + ((lerr + rerr) - ierr)
        heapq.heappush(heap, (-excess(total, lerr), ilo, mid, lval, lerr))
        heapq.heappush(heap, (-excess(total, rerr), mid, ihi, rval, rerr))
        splits += 1
    return total, total_err, splits


def _root(x):
    with np.errstate(invalid="ignore"):
        return np.sqrt(x) * np.exp(-x)


def _stack(y):
    # three components with different smoothness, integrated together
    return np.stack([np.exp(-y * y), np.abs(y) ** 0.3 * np.exp(-np.abs(y)), np.cos(5.0 * y)])


class TestPairedPanels:
    """integrate against one_panel_integrate, bit for bit."""

    CASES = [
        ("smooth", lambda x: np.cos(3.0 * x) * np.exp(-0.1 * x), (0.0, 6.0)),
        ("kink", lambda x: np.abs(x - 0.3) ** 0.5, (-1.0, 2.0)),
        ("half_line", _half_line(lambda x: x**2 * np.exp(-x), 0.0), (0.0, 1.0)),
        ("left_line", _left_line(lambda x: np.exp(x) / (1.0 + x * x), 0.5), (0.0, 1.0)),
        ("whole_line", _whole_line(lambda x: np.exp(-np.abs(x) ** 1.3)), (-1.0, 1.0)),
        # the first panel's middle node sits on the pole: its value is
        # inf and is dropped
        ("pole_on_node", _pole, (-1.0, 1.0)),
        ("nan_on_node", lambda x: np.where(x == 0.0, np.nan, np.cos(x)), (-1.0, 1.0)),
        ("nan_half", _root, (-1.0, 2.0)),
        ("stacked", _stack, (-3.0, 4.0)),
        ("stacked_whole_line", _whole_line(lambda x: _stack(x) * np.exp(-x * x)), (-1.0, 1.0)),
    ]

    @pytest.mark.parametrize("f, domain", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_matches_one_panel_loop(self, f, domain, tol, monkeypatch):
        # the loop is the same at any tolerance: 1e-8 takes other split paths
        monkeypatch.setattr(special_fn, "_TOL", tol)
        value, error, splits = one_panel_integrate(f, *domain, tol)
        try:
            res = integrate(f, *domain)
        except QuadratureError as exc:
            assert splits is None
            assert np.array([exc.best, exc.bound]).tobytes() == np.array([value, error]).tobytes()
            return
        assert res.subdivisions == splits
        assert np.array([res.value, res.error]).tobytes() == np.array([value, error]).tobytes()

    def test_budget_exhausted(self):
        with pytest.raises(QuadratureError) as err:
            integrate(_off_node_pole, 0.0, 1.0)
        best, bound, splits = one_panel_integrate(_off_node_pole, 0.0, 1.0, 1e-12)
        assert splits is None
        assert (err.value.best, err.value.bound) == (best, bound)

    def test_one_integrand_call_per_split(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.abs(x - 0.3) ** 0.5

        res = integrate(f, -1.0, 2.0)
        assert res.subdivisions > 0
        assert calls == [15] + [30] * res.subdivisions


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


class TestAgainstScipy:
    """scipy.special as an independent oracle, over each function's
    supported range (Gamma exceeds the largest double above about 171.62)."""

    @given(_floats(1e-6, 171.6))
    def test_gamma(self, z):
        assert gamma_fn(z) == pytest.approx(scipy.special.gamma(z), rel=1e-13)

    def test_gamma_overflow_is_domain_error(self):
        assert math.isfinite(gamma_fn(171.62437))
        with pytest.raises(DomainError, match="overflows"):
            gamma_fn(172.0)

    @given(_floats(1e-6, 1e8))
    def test_log_gamma(self, z):
        want = scipy.special.gammaln(z)
        assert log_gamma(z) == pytest.approx(want, rel=1e-13, abs=1e-13)

    @given(_floats(1e-6, 1e8))
    def test_digamma(self, z):
        want = scipy.special.digamma(z)
        assert digamma(z) == pytest.approx(want, rel=1e-13, abs=1e-13)

    @given(_floats(1e-6, 1e8))
    def test_trigamma(self, z):
        assert trigamma(z) == pytest.approx(scipy.special.polygamma(1, z), rel=1e-13)

    @given(_floats(1e-3, 50.0), _floats(0.0, 200.0))
    # where P is subnormal: gamma_fn(z) * P kept only about 9 digits there
    @example(50.0, 1e-5)
    @example(38.0, 5.96e-8)
    def test_incomplete_gamma(self, z, a):
        # not regularized, as the closed-form information matrices use
        # them; mpmath integrates them directly, where scipy's gammainc
        # underflows a subnormal P (at z = 50, a = 1e-5 it returns 0)
        lower, upper = incomplete_gamma(z, a)
        with mpmath.workdps(30):
            want_lower = float(mpmath.gammainc(z, 0, a))
            want_upper = float(mpmath.gammainc(z, a))
        assert lower == pytest.approx(want_lower, rel=1e-11, abs=1e-300)
        assert upper == pytest.approx(want_upper, rel=1e-11, abs=1e-300)

    @given(_floats(1e-3, 1e3), _floats(0.0, 2e3))
    def test_regularized_gamma(self, z, a):
        lower, upper = regularized_gamma(z, a)
        assert lower == pytest.approx(scipy.special.gammainc(z, a), rel=1e-11, abs=1e-300)
        assert upper == pytest.approx(scipy.special.gammaincc(z, a), rel=1e-11, abs=1e-300)


class TestEveryPositiveDouble:
    """At every positive double, subnormals and inf included, each
    function returns a value (finite at finite z, its limit at inf) or
    raises DomainError naming the overflow: never NaN, never another
    exception.  Gamma has no finite limit at inf."""

    @pytest.mark.parametrize("fn, at_inf", [
        (gamma_fn, None), (log_gamma, math.inf), (digamma, math.inf), (trigamma, 0.0),
    ], ids=["gamma_fn", "log_gamma", "digamma", "trigamma"])
    @given(st.floats(min_value=0.0, exclude_min=True))
    @example(5e-324)
    @example(1e-320)
    @example(1e-200)
    @example(1.4e-154)
    @example(171.62437)
    @example(171.6244)
    @example(1e300)
    @example(math.inf)
    def test_value_or_domain_error(self, fn, at_inf, z):
        try:
            out = fn(z)
        except DomainError as exc:
            assert "overflows" in str(exc)
            return
        if math.isinf(z):
            assert out == at_inf
        else:
            assert math.isfinite(out)


class TestRegularizedGammaArrays:
    # the shapes 1/alpha of the EP CDF at alpha = 0.3, 0.7, 1, 1.4 and 3
    Z = (1.0 / 0.3, 1.0 / 0.7, 2.0, 1.0 / 1.4, 1.0 / 3.0)
    T = np.concatenate([[0.0], np.geomspace(1e-12, 1e3, 400), [np.inf]])

    @pytest.mark.parametrize("z", Z)
    def test_against_scipy(self, z):
        lower, upper = regularized_gamma(z, self.T)
        assert lower.shape == upper.shape == self.T.shape
        np.testing.assert_allclose(lower, scipy.special.gammainc(z, self.T),
                                   rtol=1e-13, atol=1e-300)
        np.testing.assert_allclose(upper, scipy.special.gammaincc(z, self.T),
                                   rtol=1e-13, atol=1e-300)

    def test_broadcasts_and_matches_the_scalar_call(self):
        z = np.array(self.Z)[:, None]
        t = np.array([[0.0, 0.3, 1.5, 2.5, 40.0, np.inf]])
        lower, upper = regularized_gamma(z, t)
        assert lower.shape == (5, 6)
        for i, j in np.ndindex(lower.shape):
            pair = regularized_gamma(float(z[i, 0]), float(t[0, j]))
            assert pair == pytest.approx((lower[i, j], upper[i, j]), rel=1e-14, abs=1e-300)

    def test_scalar_gives_a_float_pair(self):
        pair = regularized_gamma(2.0, 1.0)
        assert isinstance(pair, tuple) and all(isinstance(v, float) for v in pair)

    @pytest.mark.parametrize("z,a", [(np.array([1.0, 0.0]), 1.0),
                                     (1.0, np.array([0.5, -1.0])),
                                     (1.0, np.array([0.5, np.nan]))],
                             ids=["z-zero", "a-negative", "a-nan"])
    def test_domain(self, z, a):
        with pytest.raises(DomainError):
            regularized_gamma(z, a)
