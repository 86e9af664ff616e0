"""Derivative-free maximization: real-coded GA plus Nelder-Mead polish.

The GA uses binary tournament selection, single-point crossover on the
coordinate vector, Gaussian mutation scaled to the box width, and
elitism, all driven by one counter-based generator so a fixed seed gives
a bit-identical trajectory.  Each generation draws its randomness as
whole arrays, in five generator calls whatever the population size
(tournament entrants, crossover flags, cut points, mutation masks and
mutation steps), and builds its children by fancy indexing.

Both maximizers take a population-wise, deterministic objective: ``f``
maps an (m, dim) array of points to the m objective values, and a row's
value depends on that row alone.  So a GA child that equals the parent
it came from keeps the parent's value instead of being evaluated again,
and each generation makes at most one call, holding the children that
changed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .epd import make_rng

__all__ = ["GaConfig", "GaResult", "maximize", "polish"]

# the polish stops once the simplex spans less than _POLISH_XATOL in every
# coordinate and its values less than _POLISH_FATOL, or after
# _POLISH_ITERS steps per dimension
_POLISH_XATOL = 1e-10
_POLISH_FATOL = 1e-12
_POLISH_ITERS = 400

# the GA's breeding constants: the share of pairs that cross, the share
# of child coordinates that mutate, the mutation step as a share of the
# box width, and the number of best points kept unchanged each generation
_CROSSOVER_RATE = 0.8
_MUTATION_RATE = 0.1
_MUTATION_SCALE = 0.1
_ELITISM = 2


@dataclass(frozen=True)
class GaConfig:
    bounds: tuple[tuple[float, float], ...]
    population: int = 50
    generations: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.population < 4:
            raise ValueError("population must be at least 4")
        if self.generations < 1:
            raise ValueError(f"generations must be at least 1, got {self.generations}")
        if not self.bounds:
            raise ValueError("bounds must be non-empty")
        for lo, hi in self.bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"bounds must be finite non-empty intervals, got ({lo}, {hi})")


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
    returns their m objective values.  It must be deterministic, and a
    row's value must not depend on the other rows.  Non-finite
    evaluations count as -inf fitness.  ``seed_points`` are
    injected into the initial population (clipped to the box), which
    speeds up convergence without changing reachability.

    Each generation ranks the population (stable sort, best first),
    keeps the ``_ELITISM`` best with their known values, and breeds
    the rest in pairs from one array draw per kind: two binary
    tournaments per pair, a crossover flag and a cut point per pair (a
    crossing pair swaps its coordinates from the cut on), then a
    mutation mask and a Gaussian step for every child coordinate, the
    step applied where the mask is set.  Children are clipped to the
    box, and an odd last child is dropped.  A child equal to its source
    parent (the tournament winner whose coordinates it starts from)
    takes that parent's value, so a generation makes at most one call
    of ``f``, on the children that changed, and none if none did.
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

    n_children = cfg.population - _ELITISM
    n_pairs = (n_children + 1) // 2
    history = []
    for _ in range(cfg.generations):
        fit = np.where(np.isfinite(fit), fit, -np.inf)
        order = np.argsort(-fit, kind="stable")
        pop, fit = pop[order], fit[order]
        history.append(float(fit[0]))

        # two binary tournaments per pair of children, ties to the first entrant
        entrants = rng.integers(0, cfg.population, size=(n_pairs, 2, 2))
        first, second = entrants[..., 0], entrants[..., 1]
        winners = np.where(fit[first] >= fit[second], first, second)
        parents = pop[winners]
        # with one coordinate every cut lands at 1 and nothing swaps
        crossed = rng.random(n_pairs) < _CROSSOVER_RATE
        cut = rng.integers(1, max(dim, 2), size=n_pairs)
        swap = crossed[:, None] & (np.arange(dim) >= cut[:, None])
        # child k of a pair starts from parent k and takes the other
        # parent's coordinates where the pair swaps
        children = np.where(swap[:, None], parents[:, ::-1], parents)
        children = children.reshape(2 * n_pairs, dim)[:n_children]
        mutate = rng.random((n_children, dim)) < _MUTATION_RATE
        steps = rng.normal(0.0, _MUTATION_SCALE, size=(n_children, dim)) * width
        children = np.where(mutate, children + steps, children).clip(lo, hi)

        # elites, and children equal to their source parent, keep the
        # known fitness; re-evaluation is redundant for a deterministic f
        source = winners.reshape(-1)[:n_children]
        child_fit = fit[source]
        changed = (children != pop[source]).any(axis=1)
        if changed.any():
            child_fit[changed] = f(children[changed])
        pop = np.concatenate([pop[: _ELITISM], children])
        fit = np.concatenate([fit[: _ELITISM], child_fit])

    fit = np.where(np.isfinite(fit), fit, -np.inf)
    best = int(np.argmax(fit))
    history.append(float(fit[best]))
    return GaResult(pop[best].copy(), float(fit[best]), history)


def polish(
    f: Callable,
    start: np.ndarray,
    bounds: Sequence[tuple[float, float]],
) -> tuple[np.ndarray, float]:
    """Bounded Nelder-Mead refinement of a maximum.

    ``f`` is population-wise and deterministic, as for ``maximize``;
    each reflection, expansion and contraction is a one-point call.
    Candidate vertices are projected onto the box.  Never returns a
    point with a smaller objective than the start.
    """
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    start = np.clip(np.asarray(start, dtype=float), lo, hi)
    dim = len(start)

    def g(points):
        vals = np.asarray(f(np.clip(points, lo, hi)), dtype=float)
        return np.where(np.isfinite(vals), vals, -np.inf)

    def g_point(point):
        # one vertex, already projected onto the box
        value = float(f(point[None])[0])
        return value if math.isfinite(value) else -math.inf

    # initial simplex: perturb each coordinate by 5% of box width
    simplex = [start]
    for i in range(dim):
        vertex = start.copy()
        step = 0.05 * (hi[i] - lo[i])
        vertex[i] = vertex[i] + step if vertex[i] + step <= hi[i] else vertex[i] - step
        simplex.append(vertex)
    simplex = np.array(simplex)
    values = g(simplex)
    start_val = values[0]

    for _ in range(_POLISH_ITERS * dim):
        order = np.argsort(-values)
        simplex, values = simplex[order], values[order]
        if (np.abs(simplex[1:] - simplex[0]).max() < _POLISH_XATOL
                and np.abs(values[0] - values[1:]).max() < _POLISH_FATOL):
            break
        # the mean of the dim best vertices, summed and divided as np.mean does
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
