"""Genetic maximizer and simplex polish.

Objectives are population-wise: they map an (m, dim) array of points to
m values.  Written with ``x[..., k]`` they also take a single point.
"""

import math

import numpy as np
import pytest

from epfit import optimize
from epfit.epd import make_rng
from epfit.optimize import maximize, polish


def neg_quadratic_1d(x):
    return -((x[..., 0] - 3.0) ** 2)


class TestMaximize:
    def test_quadratic_1d(self):
        point, _ = maximize(neg_quadratic_1d, ((-10.0, 10.0),), 42)
        assert point[0] == pytest.approx(3.0, abs=1e-2)

    def test_separable_quadratic_3d(self):
        target = np.array([1.0, 2.0, 0.5])
        point, _ = maximize(lambda x: -np.sum((x - target) ** 2, axis=-1), ((-5.0, 5.0),) * 3, 7)
        np.testing.assert_allclose(point, target, atol=5e-2)

    def test_same_seed_bit_identical(self):
        f = lambda x: -np.sum(x**2, axis=-1)
        (a, a_value), (b, b_value) = (maximize(f, ((-5.0, 5.0),) * 2, 11) for _ in range(2))
        assert a.tobytes() == b.tobytes()
        assert a_value == b_value

    def test_elitism_monotone(self):
        def f(x):
            return np.cos(x[..., 0]) + 0.1 * x[..., 1]

        seen = []

        def recording(x):
            seen.extend(f(x).tolist())
            return f(x)

        point, value = maximize(recording, ((-8.0, 8.0), (-1.0, 1.0)), 3)
        # the elites keep the best value ever evaluated to the end
        assert value == max(seen)
        assert value == f(point)

    def test_bounds_respected(self):
        point, _ = maximize(lambda x: x[..., 0], ((-2.0, 1.5),), 9)
        assert -2.0 <= point[0] <= 1.5
        assert point[0] == pytest.approx(1.5, abs=1e-6)

    def test_non_finite_becomes_minus_inf(self):
        def f(x):
            return np.where(x[..., 0] < 0, np.nan, -x[..., 0] ** 2)
        point, _ = maximize(f, ((-1.0, 1.0),), 13)
        assert point[0] >= 0.0

    def test_all_infeasible_raises(self):
        with pytest.raises(RuntimeError):
            maximize(lambda x: np.full(len(x), np.nan), ((0.0, 1.0),), 1)

    def test_bounds_validation(self):
        calls = []
        for bounds in ((), ((1.0, 1.0),), ((0.0, 1.0), (2.0, -2.0)), ((0.0, np.inf),),
                       ((np.nan, 1.0),)):
            with pytest.raises(ValueError, match="bounds must be"):
                maximize(lambda x: calls.append(x) or -np.sum(x**2, axis=-1), bounds, 0)
        assert calls == []


def every_child_maximize(f, bounds, seed, seed_points=None):
    """Oracle: the GA loop that evaluates every child of every
    generation, the way ``maximize`` did before children that copy
    their source parent kept its value.

    It draws a run's randomness in the order ``maximize`` does: the
    initial population, then one block per kind with a row for each
    generation.  Returns the best point and its value and, per
    generation, the children that differ from their source parent: the
    rows ``maximize`` has to evaluate.
    """
    rng = make_rng(seed)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    dim = len(bounds)
    width = hi - lo
    population, elitism = optimize._POPULATION, optimize._ELITISM

    pop = lo + rng.random((population, dim)) * width
    if seed_points:
        for i, pt in enumerate(seed_points[:population]):
            pop[i] = np.clip(np.asarray(pt, dtype=float), lo, hi)
    fit = np.asarray(f(pop), dtype=float)

    n_children = population - elitism
    n_pairs = n_children // 2
    generations = optimize._GENERATIONS
    # the whole run's draws, kind by kind, a row per generation
    all_entrants = rng.integers(0, population, size=(generations, n_pairs, 2, 2))
    all_crossed = rng.random((generations, n_pairs)) < optimize._CROSSOVER_RATE
    all_cuts = rng.integers(1, max(dim, 2), size=(generations, n_pairs))
    all_mutate = rng.random((generations, n_children, dim)) < optimize._MUTATION_RATE
    all_steps = rng.normal(0.0, optimize._MUTATION_SCALE, size=(generations, n_children, dim))
    changed = []
    for g in range(generations):
        fit = np.where(np.isfinite(fit), fit, -np.inf)
        order = np.argsort(-fit, kind="stable")
        pop, fit = pop[order], fit[order]

        entrants = all_entrants[g]
        first, second = entrants[..., 0], entrants[..., 1]
        winners = np.where(fit[first] >= fit[second], first, second)
        parent_a, parent_b = pop[winners[:, 0]], pop[winners[:, 1]]
        swap = all_crossed[g][:, None] & (np.arange(dim) >= all_cuts[g][:, None])
        children = np.stack([np.where(swap, parent_b, parent_a),
                             np.where(swap, parent_a, parent_b)], axis=1)
        children = children.reshape(n_children, dim)
        steps = all_steps[g] * width
        children = np.where(all_mutate[g], children + steps, children).clip(lo, hi)

        parents = pop[winners.reshape(-1)]
        changed.append(children[[not np.array_equal(c, p) for c, p in zip(children, parents)]])
        pop = np.concatenate([pop[:elitism], children])
        fit = np.concatenate([fit[:elitism], f(children)])

    fit = np.where(np.isfinite(fit), fit, -np.inf)
    best = int(np.argmax(fit))
    return (pop[best].copy(), float(fit[best])), changed


def _bowl(x):
    return -np.sum((x - 0.3) ** 2, axis=-1)


def _holed_bowl(x):
    # NaN on part of the box, which ranks as -inf
    return np.where(x[:, 0] + x[:, -1] < -0.5, np.nan, _bowl(x))


def _terraces(x):
    # many exact ties, so the stable sort and the tournaments decide
    return np.floor(4.0 * np.cos(3.0 * x[:, 0]) + np.sum(x, axis=-1))


class TestChildrenKeepTheirParentsValue:
    """``maximize`` against the evaluate-every-child loop."""

    # the fixed budget's population, and smaller even ones so that the
    # tournaments and the elites meet the same rows more often
    @pytest.mark.parametrize("f", [_bowl, _holed_bowl, _terraces])
    @pytest.mark.parametrize("population", [4, 12, 50])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 5, 23])
    def test_matches_the_every_child_loop(self, monkeypatch, f, population, dim, seed):
        monkeypatch.setattr(optimize, "_POPULATION", population)
        bounds = ((-1.0, 1.0),) * dim
        seeds = [np.full(dim, 0.25), np.full(dim, 7.0)] if seed == 5 else None
        (expected, expected_value), changed = every_child_maximize(f, bounds, seed, seeds)
        calls = []

        def recording(x):
            calls.append(x.copy())
            return f(x)

        point, value = maximize(recording, bounds, seed, seeds)
        assert point.tobytes() == expected.tobytes()
        assert value == expected_value
        # the initial population, then exactly the changed children of
        # each generation that has any, in one call
        assert len(calls) == 1 + sum(len(c) > 0 for c in changed)
        for got, want in zip(calls[1:], [c for c in changed if len(c)]):
            assert got.tobytes() == want.tobytes()

    def test_most_children_are_not_evaluated(self):
        rows = []

        def f(x):
            rows.append(len(x))
            return _bowl(x)

        maximize(f, ((-1.0, 1.0),) * 3, 1)
        # most children neither cross nor mutate
        children = optimize._GENERATIONS * (optimize._POPULATION - optimize._ELITISM)
        assert sum(rows[1:]) < 0.5 * children


class _CountingRng:
    """Generator proxy that counts the draws made through it."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def __getattr__(self, name):
        draw = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return draw(*args, **kwargs)

        return counted


class TestWholeGenerationDraws:
    """A run draws its randomness in six generator calls: the initial
    population, then each kind's block for every generation."""

    BOUNDS = ((-1.0, 1.0),) * 3
    SEED = 5

    @staticmethod
    def _f(x):
        return -np.sum(x**2, axis=-1)

    def _run(self, monkeypatch, population):
        monkeypatch.setattr(optimize, "_POPULATION", population)
        proxies = []

        def counting_make_rng(seed):
            proxies.append(_CountingRng(make_rng(seed)))
            return proxies[-1]

        monkeypatch.setattr(optimize, "make_rng", counting_make_rng)
        batches = []

        def f(x):
            # the draws made before this call: one for the initial
            # population, then the five whole-run blocks
            batches.append((proxies[0].calls, x.copy()))
            return self._f(x)

        maximize(f, self.BOUNDS, self.SEED)
        return proxies[0].calls, batches

    def test_draws_do_not_grow_with_the_population(self, monkeypatch):
        small, _ = self._run(monkeypatch, 12)
        large, _ = self._run(monkeypatch, 200)
        fixed, _ = self._run(monkeypatch, 50)
        assert small == large == fixed == 1 + 5

    @pytest.mark.parametrize("generations", [2, 7])
    def test_draws_do_not_grow_with_the_generations(self, monkeypatch, generations):
        monkeypatch.setattr(optimize, "_GENERATIONS", generations)
        draws, batches = self._run(monkeypatch, 12)
        assert draws == 1 + 5
        _, changed = every_child_maximize(self._f, self.BOUNDS, self.SEED)
        assert len(batches) == 1 + sum(len(c) > 0 for c in changed)

    @pytest.mark.parametrize("population", [12, 200])
    def test_one_objective_call_per_generation(self, monkeypatch, population):
        _, batches = self._run(monkeypatch, population)
        # the initial population, then at most one call per generation,
        # holding exactly the children that differ from their source parent
        _, changed = every_child_maximize(self._f, self.BOUNDS, self.SEED)
        expected = [c for c in changed if len(c)]
        assert batches[0][0] == 1 and len(batches[0][1]) == population
        assert [n for n, _ in batches[1:]] == [1 + 5] * len(expected)
        for (_, got), want in zip(batches[1:], expected):
            assert got.tobytes() == want.tobytes()


def ndarray_polish(f, start, bounds):
    """Oracle: the simplex polish on ndarray vertices, the way ``polish``
    ran before its simplex became lists of floats."""
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    start = np.clip(np.asarray(start, dtype=float), lo, hi)
    dim = len(start)

    def g(points):
        vals = np.asarray(f(np.clip(points, lo, hi)), dtype=float)
        return np.where(np.isfinite(vals), vals, -np.inf)

    def g_point(point):
        value = float(f(point[None])[0])
        return value if math.isfinite(value) else -math.inf

    simplex = [start]
    for i in range(dim):
        vertex = start.copy()
        step = 0.05 * (hi[i] - lo[i])
        vertex[i] = vertex[i] + step if vertex[i] + step <= hi[i] else vertex[i] - step
        simplex.append(vertex)
    simplex = np.array(simplex)
    values = g(simplex)
    start_val = values[0]

    for _ in range(optimize._POLISH_ITERS * dim):
        order = np.argsort(-values, kind="stable")
        simplex, values = simplex[order], values[order]
        if (np.abs(simplex[1:] - simplex[0]).max() < optimize._POLISH_XATOL
                and np.abs(values[0] - values[1:]).max() < optimize._POLISH_FATOL):
            break
        centroid = simplex[:-1].sum(axis=0) / dim
        worst = simplex[-1]
        refl = (centroid + (centroid - worst)).clip(lo, hi)
        f_refl = g_point(refl)
        if f_refl > values[0]:
            expa = (centroid + 2.0 * (centroid - worst)).clip(lo, hi)
            f_expa = g_point(expa)
            if f_expa > f_refl:
                simplex[-1], values[-1] = expa, f_expa
            else:
                simplex[-1], values[-1] = refl, f_refl
        elif f_refl > values[-2]:
            simplex[-1], values[-1] = refl, f_refl
        else:
            contr = (centroid + 0.5 * (worst - centroid)).clip(lo, hi)
            f_contr = g_point(contr)
            if f_contr > values[-1]:
                simplex[-1], values[-1] = contr, f_contr
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                values[1:] = g(simplex[1:])

    best = int(np.argmax(values))
    if values[best] >= start_val:
        return simplex[best].copy(), float(values[best])
    return start, float(start_val)


class TestPolishMatchesTheNdarrayLoop:
    """``polish`` against the ndarray simplex: the same point and value
    bits and the same calls of ``f``, ties among vertex values included
    (``_terraces``), which both order stably."""

    # on _terraces in three coordinates, seeds 11 and 37 end at another
    # point under numpy's default, unstable argsort
    @pytest.mark.parametrize("f", [_bowl, _holed_bowl, _terraces])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 11, 37])
    def test_same_point_value_and_calls(self, f, dim, seed):
        rng = np.random.default_rng(seed)
        bounds = tuple((float(a), float(a) + float(w))
                       for a, w in zip(rng.uniform(-1.5, -0.2, dim), rng.uniform(0.5, 3.0, dim)))
        # one start outside the box, which both project onto it
        start = rng.uniform(-2.0, 2.0, dim)
        runs = []
        for run in (ndarray_polish, polish):
            calls = []

            def recording(x):
                calls.append(x.copy())
                return f(x)

            # the ndarray loop subtracts -inf values from each other
            with np.errstate(invalid="ignore"):
                point, value = run(recording, start, bounds)
            runs.append((point.tobytes(), value, [c.tobytes() for c in calls]))
        assert runs[1] == runs[0]


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
