"""Derivative-free maximization: real-coded GA plus Nelder-Mead polish.

The GA uses binary tournament selection, single-point crossover on the
coordinate vector, Gaussian mutation scaled to the box width, and
elitism, all driven by one counter-based generator so a fixed seed gives
a bit-identical trajectory.

Both maximizers take a population-wise objective: ``f`` maps an (m, dim)
array of points to the m objective values, so a whole GA generation is
one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .epd import make_rng

__all__ = ["GaConfig", "GaResult", "maximize", "polish"]


@dataclass(frozen=True)
class GaConfig:
    bounds: tuple[tuple[float, float], ...]
    population: int = 50
    generations: int = 200
    crossover_rate: float = 0.8
    mutation_rate: float = 0.1
    mutation_scale: float = 0.1
    elitism: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.population < 4:
            raise ValueError("population must be at least 4")
        for rate in (self.crossover_rate, self.mutation_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rates must lie in [0, 1]")
        if not self.bounds:
            raise ValueError("bounds must be non-empty")
        for lo, hi in self.bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"bounds must be finite non-empty intervals, got ({lo}, {hi})")
        if not 0 <= self.elitism < self.population:
            raise ValueError("elitism must be smaller than the population")


@dataclass
class GaResult:
    best_point: np.ndarray
    best_value: float
    history: list = field(default_factory=list)


def maximize(
    f: Callable,
    cfg: GaConfig,
    seed_points: Sequence[np.ndarray] | None = None,
) -> GaResult:
    """Maximize f over the box in cfg.bounds.

    ``f`` is population-wise: it takes an (m, dim) array of points and
    returns their m objective values, and each generation is evaluated
    with one call.  A row's value must not depend on the other rows.
    Non-finite evaluations count as -inf fitness.  ``seed_points`` are
    injected into the initial population (clipped to the box), which
    speeds up convergence without changing reachability.
    """
    rng = make_rng(cfg.seed)
    lo = np.array([b[0] for b in cfg.bounds])
    hi = np.array([b[1] for b in cfg.bounds])
    dim = len(cfg.bounds)
    width = hi - lo

    pop = lo + rng.random((cfg.population, dim)) * width
    if seed_points:
        for i, pt in enumerate(seed_points[: cfg.population]):
            pop[i] = np.clip(np.asarray(pt, dtype=float), lo, hi)
    fit = np.asarray(f(pop), dtype=float)
    if not np.any(np.isfinite(fit)):
        raise RuntimeError("all initial candidates evaluated non-finite")

    history = []
    for _ in range(cfg.generations):
        fit = np.where(np.isfinite(fit), fit, -np.inf)
        order = np.argsort(-fit, kind="stable")
        pop, fit = pop[order], fit[order]
        history.append(float(fit[0]))

        children = [pop[i].copy() for i in range(cfg.elitism)]
        while len(children) < cfg.population:
            parents = []
            for _ in range(2):
                i, j = rng.integers(0, cfg.population, size=2)
                parents.append(pop[i] if fit[i] >= fit[j] else pop[j])
            c1, c2 = parents[0].copy(), parents[1].copy()
            if dim > 1 and rng.random() < cfg.crossover_rate:
                cut = int(rng.integers(1, dim))
                c1[cut:], c2[cut:] = parents[1][cut:], parents[0][cut:]
            for child in (c1, c2):
                mask = rng.random(dim) < cfg.mutation_rate
                if mask.any():
                    child[mask] += rng.normal(0.0, cfg.mutation_scale, size=int(mask.sum())) * width[mask]
                children.append(child.clip(lo, hi))
        pop = np.array(children[: cfg.population])
        # elites keep their known fitness; re-evaluation is redundant for a pure f
        fit = np.concatenate([fit[: cfg.elitism], f(pop[cfg.elitism:])])

    fit = np.where(np.isfinite(fit), fit, -np.inf)
    best = int(np.argmax(fit))
    history.append(float(fit[best]))
    return GaResult(pop[best].copy(), float(fit[best]), history)


def polish(
    f: Callable,
    start: np.ndarray,
    bounds: Sequence[tuple[float, float]],
    max_iter: int | None = None,
    xatol: float = 1e-10,
    fatol: float = 1e-12,
) -> tuple[np.ndarray, float]:
    """Bounded Nelder-Mead refinement of a maximum.

    ``f`` is population-wise, as for ``maximize``.  Candidate vertices
    are projected onto the box.  Never returns a point with a smaller
    objective than the start.
    """
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    start = np.clip(np.asarray(start, dtype=float), lo, hi)
    dim = len(start)
    if max_iter is None:
        max_iter = 400 * dim

    def g(points):
        vals = np.asarray(f(np.clip(points, lo, hi)), dtype=float)
        return np.where(np.isfinite(vals), vals, -np.inf)

    # initial simplex: perturb each coordinate by 5% of box width
    simplex = [start]
    for i in range(dim):
        vertex = start.copy()
        step = 0.05 * (hi[i] - lo[i])
        vertex[i] = vertex[i] + step if vertex[i] + step <= hi[i] else vertex[i] - step
        simplex.append(vertex)
    simplex = np.array(simplex)
    values = g(simplex)

    for _ in range(max_iter):
        order = np.argsort(-values)
        simplex, values = simplex[order], values[order]
        if (np.max(np.abs(simplex[1:] - simplex[0])) < xatol
                and np.max(np.abs(values[0] - values[1:])) < fatol):
            break
        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        refl = np.clip(centroid + (centroid - worst), lo, hi)
        f_refl = g(refl[None])[0]
        if f_refl > values[0]:
            expa = np.clip(centroid + 2.0 * (centroid - worst), lo, hi)
            f_expa = g(expa[None])[0]
            if f_expa > f_refl:
                simplex[-1], values[-1] = expa, f_expa
            else:
                simplex[-1], values[-1] = refl, f_refl
        elif f_refl > values[-2]:
            simplex[-1], values[-1] = refl, f_refl
        else:
            contr = np.clip(centroid + 0.5 * (worst - centroid), lo, hi)
            f_contr = g(contr[None])[0]
            if f_contr > values[-1]:
                simplex[-1], values[-1] = contr, f_contr
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                values[1:] = g(simplex[1:])

    best = int(np.argmax(values))
    start_val = g(start[None])[0]
    if values[best] >= start_val:
        return simplex[best].copy(), float(values[best])
    return start, float(start_val)
