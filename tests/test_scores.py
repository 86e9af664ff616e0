"""Score families: branch formulas, weights, the gradient vector and
its boundedness probes."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from epfit.epd import EpdParams, distorted_log_pdf, log_pdf, log_q_pdf
from epfit.scores import (
    CombinedHuber,
    CombinedPlain,
    Distorted,
    Huber,
    Plain,
    QWeighted,
    ShapeTriple,
    density_weight,
    ee_weight,
    likelihood_weight,
    psi_vector,
    s_combined,
    s_huber,
    s_plain,
    score,
)

STANDARD = EpdParams(0.0, 1.0, 2.0)
finite_y = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestPlainScore:
    def test_values(self):
        assert s_plain(0.0, 2.0) == 0.0
        assert s_plain(-1.5, 2.0) == pytest.approx(-3.0, rel=1e-12)
        assert s_plain(2.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    @given(finite_y)
    def test_odd(self, y):
        assert s_plain(-y, 1.7) == -s_plain(y, 1.7)

    def test_zero_handled_below_one(self):
        assert s_plain(0.0, 0.6) == 0.0


class TestHuberScore:
    def test_values(self):
        assert s_huber(0.5, 1.0) == 0.5
        assert s_huber(3.0, 1.0) == 1.0
        assert s_huber(-3.0, 1.0) == -1.0

    @given(finite_y)
    def test_odd(self, y):
        assert s_huber(-y, 1.345) == -s_huber(y, 1.345)

    def test_clamp_equivalence(self):
        rng = np.random.default_rng(3)
        ys = rng.normal(0.0, 4.0, size=1000)
        np.testing.assert_array_equal(s_huber(ys, 1.2), np.clip(ys, -1.2, 1.2))

    def test_requires_positive_r(self):
        with pytest.raises(ValueError):
            Huber(0.0)


class TestCombinedScore:
    TRIPLE = ShapeTriple(1.25, 2.1, 1.4)

    def test_middle_branch_matches_plain(self):
        tri = ShapeTriple(1.0, 2.0, 1.0)
        assert s_combined(0.5, tri, 1.0, 1.0, huberized=True) == pytest.approx(1.0)

    def test_left_branch_plain(self):
        got = s_combined(-2.0, self.TRIPLE, 1.0, 1.0, huberized=False)
        assert got == pytest.approx(-1.25 * 2.0**0.25, rel=1e-12)

    def test_left_branch_huberized_magnitude(self):
        got = s_combined(-2.0, self.TRIPLE, 1.0, 1.0, huberized=True)
        assert abs(got) == pytest.approx(1.0 * 1.25 * 2.0**0.25, rel=1e-12)
        # sign convention keeps the left branch negative
        assert got < 0.0

    def test_literal_reading_flips_interior_sign(self):
        # the printed middle branch alpha2 |y|^(alpha2 - 1) has no sign factor
        plain_literal = 2.1 * 0.5**1.1
        assert plain_literal > 0.0
        default = s_combined(-0.5, self.TRIPLE, 1.0, 1.0, False)
        assert default == pytest.approx(-plain_literal)

    def test_discontinuity_at_cutpoints_is_intentional(self):
        tri = ShapeTriple(1.25, 2.1, 1.4)
        below = s_combined(-1.0001, tri, 1.0, 1.0, False)
        above = s_combined(-0.9999, tri, 1.0, 1.0, False)
        assert abs(below - above) > 0.1

    def test_cut_validation(self):
        with pytest.raises(ValueError):
            CombinedPlain(self.TRIPLE, -0.1, 1.0)
        with pytest.raises(ValueError):
            ShapeTriple(0.0, 1.0, 1.0)


class TestWeights:
    def test_q_one_is_unity(self):
        xs = np.linspace(-5, 5, 11)
        np.testing.assert_array_equal(density_weight(QWeighted(1.0), xs, STANDARD), np.ones(11))

    def test_beta_zero_is_unity(self):
        xs = np.linspace(-5, 5, 11)
        np.testing.assert_array_equal(density_weight(Distorted(0.0), xs, STANDARD), np.ones(11))

    def test_distorted_half(self):
        got = density_weight(Distorted(0.5), 0.0, EpdParams(0.0, 1.0, 1.0))
        assert got == pytest.approx(0.5, rel=1e-12)

    def test_family_validation(self):
        with pytest.raises(ValueError):
            QWeighted(0.0)
        with pytest.raises(ValueError):
            QWeighted(1.2)
        with pytest.raises(ValueError):
            Distorted(-1e-9)

    def test_ee_weight_positive(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(0, 2, 200)
        for family in (Plain(), Huber(1.1), QWeighted(0.8), Distorted(0.01),
                       CombinedPlain(ShapeTriple(1.7, 2.0, 1.8), 0.9, 1.1),
                       CombinedHuber(ShapeTriple(1.7, 2.0, 1.8), 0.9, 1.1)):
            w = ee_weight(family, xs, STANDARD)
            assert np.all(w >= 0.0)

    def test_ee_weight_is_score_over_residual(self):
        rng = np.random.default_rng(6)
        xs = rng.normal(0, 2, 100)
        for family in (Plain(), Huber(0.9), QWeighted(0.7), Distorted(0.02)):
            w = ee_weight(family, xs, STANDARD)
            s = score(family, xs, STANDARD)
            np.testing.assert_allclose(w, s / xs * STANDARD.sigma, rtol=1e-12)

    def test_density_weight_defaults_to_one(self):
        xs = np.linspace(-2, 2, 7)
        np.testing.assert_array_equal(density_weight(Plain(), xs, STANDARD), np.ones(7))


class TestPsiVector:
    POINT = EpdParams(0.3, 1.4, 2.2)

    @staticmethod
    def _fd_gradient(fun, p, h=1e-6):
        grads = []
        for name in ("mu", "sigma", "alpha"):
            up = dataclasses.replace(p, **{name: getattr(p, name) + h})
            dn = dataclasses.replace(p, **{name: getattr(p, name) - h})
            grads.append((fun(up) - fun(dn)) / (2.0 * h))
        return np.array(grads)

    @pytest.mark.parametrize("q,beta", [(1.0, 0.0), (0.8, 0.0), (1.0, 0.01)])
    def test_matches_finite_differences(self, q, beta):
        for x in np.linspace(-3.0, 3.0, 20):
            psi = np.array(psi_vector(x, self.POINT, q=q, beta=beta))
            if beta > 0.0:
                oracle = self._fd_gradient(lambda p: distorted_log_pdf(x, p, beta), self.POINT)
            else:
                oracle = self._fd_gradient(lambda p: log_q_pdf(x, p, q), self.POINT)
            np.testing.assert_allclose(psi, oracle, atol=1e-4)

    def test_redescending_limits(self):
        big = 1e6
        for kwargs in ({"q": 0.8}, {"beta": 0.01}):
            psi = np.abs(np.array(psi_vector(big, STANDARD, **kwargs)))
            assert np.max(psi) < 1e-8

    def test_unbounded_without_deformation(self):
        assert abs(psi_vector(1e6, STANDARD)[0]) > 1e3

    def test_unbounded_above_one(self):
        assert abs(psi_vector(1e6, STANDARD, q=1.5)[0]) > 1e3

    def test_location_component_is_weighted_plain_score(self):
        for x in np.linspace(-3.0, 3.0, 13):
            w = density_weight(QWeighted(0.8), x, self.POINT)
            y = (x - self.POINT.mu) / self.POINT.sigma
            want = w * s_plain(y, self.POINT.alpha) / self.POINT.sigma
            assert psi_vector(x, self.POINT, q=0.8)[0] == pytest.approx(want, abs=1e-10)

    def test_scale_component_formula(self):
        x = 1.7
        y = (x - self.POINT.mu) / self.POINT.sigma
        want = (self.POINT.alpha * abs(y) ** self.POINT.alpha - 1.0) / self.POINT.sigma
        assert psi_vector(x, self.POINT)[1] == pytest.approx(want, rel=1e-12)

    def test_mode_exclusivity(self):
        with pytest.raises(ValueError):
            psi_vector(1.0, STANDARD, q=0.8, beta=0.1)


# SHA-256 of the little-endian float64 bytes of each function's output at
# shapes 1.3, 2 and 3.5 on PINNED_X, recorded before the family
# computations moved onto the family classes; every refactor of the score
# code must keep them bit-identical.  The q-weighted and distorted rows
# were re-recorded when log Gamma came from math.lgamma, whose last bits
# differ from the former Lanczos evaluation (largest movement 9.5e-16
# relative).
PINNED_X = 0.3 + 1.7 * np.array([
    0.0, 1e-13, -1e-13, 2e-12, 1e-6, -0.01, 0.4, -0.69, 0.7, -0.71, 1.0, 1.1, 1.2,
    -1.345, 1.345, 2.0, -3.3, 5.0, -8.0, 12.0, 40.0, -40.0, 300.0, -1e4,
])
PINNED_X[0] = 0.3  # the exact centre
PINNED_PARAMS = [EpdParams(0.3, 1.7, alpha) for alpha in (1.3, 2.0, 3.5)]
PINNED_FAMILIES = {
    "plain": Plain(),
    "huber": Huber(1.345),
    "combined": CombinedPlain(ShapeTriple(1.6, 2.5, 3.2), 0.7, 1.1),
    "combined_huber": CombinedHuber(ShapeTriple(1.6, 2.5, 3.2), 0.7, 1.1),
    "q": QWeighted(0.8),
    "q1": QWeighted(1.0),
    "d": Distorted(6e-3),
    "d0": Distorted(0.0),
}
OUTPUT_PINS = {
    ("score", "plain"): "9dd3bdbff73a644c7e3fcd26e0ca55449443710c22b0588f1e95c5a3fb5ced7a",
    ("score", "huber"): "6936acb25d5ab14464392fdf5ae36036d971af5e1a897a3b589303fef47911d3",
    ("score", "combined"): "289ae65ea62f6fbdbfda066d2934ef38d9bd468dc618b4f0afc7a22562a18dd7",
    ("score", "combined_huber"): "0618dda009591a8002bbc3b8be50ad9780a5d4403d433ffae0a61ecaaefd893b",
    ("score", "q"): "bfac03da0186ea0cc414809c747d86376ff5f33918aacf923eb5247465405e37",
    ("score", "q1"): "9dd3bdbff73a644c7e3fcd26e0ca55449443710c22b0588f1e95c5a3fb5ced7a",
    ("score", "d"): "65f6ff6eeb872227c8d068d169496f2c7d51dcada087141f7d4e1b57575f4960",
    ("score", "d0"): "9dd3bdbff73a644c7e3fcd26e0ca55449443710c22b0588f1e95c5a3fb5ced7a",
    ("ee_weight", "plain"): "60adb8b1d88411573aef87f8d36db6f3b5a9a4ec0261fda558417b143df350bf",
    ("ee_weight", "huber"): "c0c1a6a8099758bf6cb8bed61301ffdafd9c63737c1512822f7ab3622efa3d3a",
    ("ee_weight", "combined"): "5e73b3f773bb2707abf0103c76f2e7f0690df40f0d54ffab6951e434ed8c7acf",
    ("ee_weight", "combined_huber"): "b25fd70ea9c2c0a988e5558e4c73b3a860647e47a273702644e561c5a5774c05",
    ("ee_weight", "q"): "10dd90bedf92813ccc9f36cc316fc76c30bd8ddaeec83fde56ede5c2e39ffe7e",
    ("ee_weight", "q1"): "60adb8b1d88411573aef87f8d36db6f3b5a9a4ec0261fda558417b143df350bf",
    ("ee_weight", "d"): "3bd59b2cbaff82ca8ad4763f2c29dc663e46f4f9d4d89756feaf106a51237b67",
    ("ee_weight", "d0"): "60adb8b1d88411573aef87f8d36db6f3b5a9a4ec0261fda558417b143df350bf",
    ("density_weight", "plain"): "4c06fae204e9b5e2829f40695c606f394a67e6fc9b90508c99b103ee29c41607",
    ("density_weight", "huber"): "4c06fae204e9b5e2829f40695c606f394a67e6fc9b90508c99b103ee29c41607",
    ("density_weight", "combined"): "4c06fae204e9b5e2829f40695c606f394a67e6fc9b90508c99b103ee29c41607",
    ("density_weight", "combined_huber"): "4c06fae204e9b5e2829f40695c606f394a67e6fc9b90508c99b103ee29c41607",
    ("density_weight", "q"): "4d6641954bc5145522a037579405e67864d84b53661f3cb266d525f7d3d1a85b",
    ("density_weight", "q1"): "4c06fae204e9b5e2829f40695c606f394a67e6fc9b90508c99b103ee29c41607",
    ("density_weight", "d"): "c9cf860b4be9486fa3c22306115b60345e52a1de5a282155dd52fdd512a41ea1",
    ("density_weight", "d0"): "4c06fae204e9b5e2829f40695c606f394a67e6fc9b90508c99b103ee29c41607",
    ("psi_vector", "plain"): "27ebef2161f9929bbea9bed4e786a942d05468cdea06217f8e9441d4d6264d5f",
    ("psi_vector", "q"): "cb2d49680cd85e6f2eb30d8d5970c8fd4f0de41a75af6c8aa3caa2467c6268ed",
    ("psi_vector", "d"): "e29a9ae633c368b798cc488bb09a66303de223606dfc136d8e3911853dc233ba",
    ("weight_q", "0.8"): "4d6641954bc5145522a037579405e67864d84b53661f3cb266d525f7d3d1a85b",
    ("weight_q", "1.7"): "3fda02ac017624431c6494503717c8824c37d4cdc2fed9587581ded526a9c9e3",
    ("weight_distorted", "6e-3"): "c9cf860b4be9486fa3c22306115b60345e52a1de5a282155dd52fdd512a41ea1",
}


def _digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(np.asarray(out, dtype="<f8").tobytes())
    return h.hexdigest()


class TestOutputsPinned:
    @pytest.mark.parametrize("fn", [score, ee_weight, density_weight])
    @pytest.mark.parametrize("name", list(PINNED_FAMILIES))
    def test_family_functions(self, fn, name):
        family = PINNED_FAMILIES[name]
        got = _digest(fn(family, PINNED_X, p) for p in PINNED_PARAMS)
        assert got == OUTPUT_PINS[(fn.__name__, name)]

    @pytest.mark.parametrize("name", list(PINNED_FAMILIES))
    def test_ee_weight_given_density(self, name):
        # the EE sweep hands ee_weight the density weights it already has
        family = PINNED_FAMILIES[name]
        for p in PINNED_PARAMS:
            given = ee_weight(family, PINNED_X, p, density=density_weight(family, PINNED_X, p))
            assert given.tobytes() == ee_weight(family, PINNED_X, p).tobytes()
        got = _digest(ee_weight(family, PINNED_X, p, density=density_weight(family, PINNED_X, p))
                      for p in PINNED_PARAMS)
        assert got == OUTPUT_PINS[("ee_weight", name)]

    @pytest.mark.parametrize("name, kwargs", [("plain", {}), ("q", {"q": 0.8}), ("d", {"beta": 6e-3})])
    def test_psi_vector(self, name, kwargs):
        got = _digest(psi_vector(PINNED_X, p, **kwargs) for p in PINNED_PARAMS)
        assert got == OUTPUT_PINS[("psi_vector", name)]

    # the q-deformed and distorted density weights, pinned under the names
    # of the functions that first computed them; q = 1.7 lies outside
    # QWeighted's domain, so it takes the likelihood weight directly
    @pytest.mark.parametrize("fn, arg, key", [
        ("weight_q", 0.8, "0.8"), ("weight_q", 1.7, "1.7"), ("weight_distorted", 6e-3, "6e-3"),
    ])
    def test_density_weights(self, fn, arg, key):
        if fn == "weight_distorted":
            weights = (density_weight(Distorted(arg), PINNED_X, p) for p in PINNED_PARAMS)
        elif arg <= 1.0:
            weights = (density_weight(QWeighted(arg), PINNED_X, p) for p in PINNED_PARAMS)
        else:
            weights = (likelihood_weight(arg, 0.0)(log_pdf(PINNED_X, p)) for p in PINNED_PARAMS)
        assert _digest(weights) == OUTPUT_PINS[(fn, key)]
