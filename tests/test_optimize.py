"""Genetic maximizer and simplex polish.

Objectives are population-wise: they map an (m, dim) array of points to
m values.  Written with ``x[..., k]`` they also take a single point.
"""

import numpy as np
import pytest

from epfit.optimize import GaConfig, maximize, polish


def neg_quadratic_1d(x):
    return -((x[..., 0] - 3.0) ** 2)


class TestMaximize:
    def test_quadratic_1d(self):
        res = maximize(neg_quadratic_1d, GaConfig(bounds=((-10.0, 10.0),), seed=42))
        assert res.best_point[0] == pytest.approx(3.0, abs=1e-2)

    def test_separable_quadratic_3d(self):
        target = np.array([1.0, 2.0, 0.5])
        res = maximize(
            lambda x: -np.sum((x - target) ** 2, axis=-1),
            GaConfig(bounds=((-5.0, 5.0),) * 3, seed=7),
        )
        np.testing.assert_allclose(res.best_point, target, atol=5e-2)

    def test_same_seed_bit_identical(self):
        cfg = GaConfig(bounds=((-5.0, 5.0),) * 2, seed=11, generations=40)
        f = lambda x: -np.sum(x**2, axis=-1)
        a, b = maximize(f, cfg), maximize(f, cfg)
        np.testing.assert_array_equal(a.best_point, b.best_point)
        assert a.history == b.history

    def test_elitism_monotone(self):
        res = maximize(
            lambda x: np.cos(x[..., 0]) + 0.1 * x[..., 1],
            GaConfig(bounds=((-8.0, 8.0), (-1.0, 1.0)), seed=3),
        )
        assert np.all(np.diff(np.array(res.history)) >= 0.0)

    def test_bounds_respected(self):
        res = maximize(
            lambda x: x[..., 0],
            GaConfig(bounds=((-2.0, 1.5),), seed=9, generations=60),
        )
        assert -2.0 <= res.best_point[0] <= 1.5
        assert res.best_point[0] == pytest.approx(1.5, abs=1e-6)

    def test_non_finite_becomes_minus_inf(self):
        def f(x):
            return np.where(x[..., 0] < 0, np.nan, -x[..., 0] ** 2)
        res = maximize(f, GaConfig(bounds=((-1.0, 1.0),), seed=13))
        assert res.best_point[0] >= 0.0

    def test_all_infeasible_raises(self):
        with pytest.raises(RuntimeError):
            maximize(lambda x: np.full(len(x), np.nan), GaConfig(bounds=((0.0, 1.0),), seed=1, generations=2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaConfig(bounds=((0.0, 1.0),), population=2)
        with pytest.raises(ValueError):
            GaConfig(bounds=())
        with pytest.raises(ValueError):
            GaConfig(bounds=((1.0, 1.0),))
        with pytest.raises(ValueError):
            GaConfig(bounds=((0.0, 1.0),), crossover_rate=1.5)


class TestPolish:
    def test_refines_to_high_precision(self):
        start = np.array([3.1])
        point, value = polish(neg_quadratic_1d, start, ((-10.0, 10.0),))
        assert point[0] == pytest.approx(3.0, abs=1e-6)

    def test_start_at_optimum_unchanged(self):
        point, value = polish(neg_quadratic_1d, np.array([3.0]), ((-10.0, 10.0),))
        assert point[0] == pytest.approx(3.0, abs=1e-9)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_never_worse_than_start(self):
        def rugged(x):
            return np.sin(40.0 * x[..., 0]) - x[..., 0] ** 2
        for s in (-1.3, 0.2, 0.9):
            start = np.array([s])
            _, value = polish(rugged, start, ((-2.0, 2.0),))
            assert value >= rugged(start) - 1e-12

    def test_rosenbrock_improves(self):
        def neg_rosen(x):
            return -((1.0 - x[..., 0]) ** 2 + 100.0 * (x[..., 1] - x[..., 0] ** 2) ** 2)
        start = np.array([0.0, 0.0])
        _, value = polish(neg_rosen, start, ((-2.0, 2.0),) * 2)
        assert value > neg_rosen(start)

    def test_stays_in_bounds(self):
        point, _ = polish(lambda x: x[..., 0], np.array([0.4]), ((0.0, 0.5),))
        assert 0.0 <= point[0] <= 0.5
