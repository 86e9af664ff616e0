"""Derivative-free maximization: real-coded GA plus Nelder-Mead polish.

The GA uses binary tournament selection, single-point crossover on the
coordinate vector, Gaussian mutation scaled to the box width, and
elitism, all driven by one counter-based generator so a fixed seed gives
a bit-identical result.  After the initial population a run draws
all its randomness up front, in five generator calls (tournament
entrants, crossover flags, cut points, mutation masks and mutation
steps), each a block with one row per generation; each generation
slices its rows and builds its children by fancy indexing.

Both maximizers take a population-wise, deterministic objective: ``f``
maps an (m, dim) array of points to the m objective values, and a row's
value depends on that row alone.  So a GA child that equals the parent
it came from keeps the parent's value instead of being evaluated again,
and each generation makes at most one call, holding the children that
changed.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Sequence

import numpy as np

from .epd import make_rng

__all__ = ["maximize", "polish"]

# the polish stops once the simplex spans less than _POLISH_XATOL in every
# coordinate and its values less than _POLISH_FATOL, or after
# _POLISH_ITERS steps per dimension
_POLISH_XATOL = 1e-10
_POLISH_FATOL = 1e-12
_POLISH_ITERS = 400

# the GA's budget and breeding constants: the population size (even, so
# the children pair up), the number of generations, the share of pairs
# that cross, the share of child coordinates that mutate, the mutation
# step as a share of the box width, and the number of best points kept
# unchanged each generation
_POPULATION = 50
_GENERATIONS = 200
_CROSSOVER_RATE = 0.8
_MUTATION_RATE = 0.1
_MUTATION_SCALE = 0.1
_ELITISM = 2


def maximize(
    f: Callable,
    bounds: Sequence[tuple[float, float]],
    seed,
    seed_points: Sequence[np.ndarray] | None = None,
) -> tuple[np.ndarray, float]:
    """Maximize f over the box ``bounds``, one finite (lo, hi) with
    lo < hi per coordinate, from the generator seed ``seed``; returns
    the best point of the last generation and its value.

    ``f`` is population-wise: it takes an (m, dim) array of points and
    returns their m objective values.  It must be deterministic, and a
    row's value must not depend on the other rows.  Non-finite
    evaluations count as -inf fitness.  ``seed_points`` are
    injected into the initial population (clipped to the box), which
    speeds up convergence without changing reachability.

    The generator makes six calls per run: the initial population,
    then one block per kind with a row for each generation.  Each
    generation ranks the population (stable sort, best first), keeps
    the ``_ELITISM`` best with their known values, and breeds the rest
    in pairs from its rows: two binary tournaments per pair, a
    crossover flag and a cut point per pair (a crossing pair swaps its
    coordinates from the cut on), then a mutation mask and a Gaussian
    step for every child coordinate, the step applied where the mask is
    set.  Children are clipped to the box.  A child equal to its source
    parent (the tournament winner whose coordinates it starts from)
    takes that parent's value, so a generation makes at most one call of
    ``f``, on the children that changed, and none if none did.
    """
    if not bounds or not all(np.isfinite(lo) and np.isfinite(hi) and lo < hi for lo, hi in bounds):
        raise ValueError(f"bounds must be finite non-empty intervals, one or more, got {bounds}")
    rng = make_rng(seed)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    dim = len(bounds)
    width = hi - lo

    pop = lo + rng.random((_POPULATION, dim)) * width
    if seed_points:
        for i, pt in enumerate(seed_points[:_POPULATION]):
            pop[i] = np.clip(np.asarray(pt, dtype=float), lo, hi)
    fit = _fitness(f(pop))
    if fit.max() == -np.inf:
        raise RuntimeError("all initial candidates evaluated non-finite")

    n_children = _POPULATION - _ELITISM
    n_pairs = n_children // 2
    # the whole run's randomness, one generator call per kind, one row
    # per generation
    entrants = rng.integers(0, _POPULATION, size=(_GENERATIONS, n_pairs, 2, 2))
    crossed = rng.random((_GENERATIONS, n_pairs)) < _CROSSOVER_RATE
    # with one coordinate every cut lands at 1 and nothing swaps
    cut = rng.integers(1, max(dim, 2), size=(_GENERATIONS, n_pairs))
    mutate = rng.random((_GENERATIONS, n_children, dim)) < _MUTATION_RATE
    steps = rng.normal(0.0, _MUTATION_SCALE, size=(_GENERATIONS, n_children, dim))
    steps *= width
    # a crossing pair swaps its coordinates from the cut on
    swap = crossed[..., None] & (np.arange(dim) >= cut[..., None])

    # the ranked generation; the next one is bred into pop and fit
    ranked, ranked_fit = np.empty_like(pop), np.empty_like(fit)
    children, children_fit = pop[_ELITISM:], fit[_ELITISM:]
    for g_entrants, g_swap, g_mutate, g_steps in zip(entrants, swap, mutate, steps):
        order = (-fit).argsort(kind="stable")
        pop.take(order, axis=0, out=ranked)
        fit.take(order, out=ranked_fit)

        # each tournament goes to the fitter entrant, ties to the first
        contest = ranked_fit[g_entrants]
        winners = np.where(contest[..., 0] >= contest[..., 1], g_entrants[..., 0],
                           g_entrants[..., 1])
        parents = ranked.take(winners, axis=0)
        # child k of a pair starts from parent k and takes the other
        # parent's coordinates where the pair swaps
        bred = np.where(g_swap[:, None], parents[:, ::-1], parents)
        bred = bred.reshape(n_children, dim)
        np.add(bred, g_steps, out=bred, where=g_mutate)

        # the next generation: the elites, then the children clipped to
        # the box; elites, and children equal to their source parent, keep
        # the known fitness, since re-evaluation is redundant for a
        # deterministic f
        pop[:_ELITISM], fit[:_ELITISM] = ranked[:_ELITISM], ranked_fit[:_ELITISM]
        bred.clip(lo, hi, out=children)
        ranked_fit.take(winners.reshape(-1), out=children_fit)
        source = parents.reshape(n_children, dim)
        changed = (children != source).any(axis=1).nonzero()[0]
        if changed.size:
            children_fit[changed] = _fitness(f(children[changed]))

    best = int(np.argmax(fit))
    return pop[best].copy(), float(fit[best])


def _fitness(values) -> np.ndarray:
    """Objective values as fitness, non-finite ones as -inf."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isfinite(values), values, -np.inf)


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
    box = [(float(lo), float(hi)) for lo, hi in bounds]
    start = np.clip(np.asarray(start, dtype=float), *zip(*box))
    dim = len(start)

    def clip(point):
        # ndarray.clip coordinate by coordinate, NaN and signed zeros alike
        return [lo if x < lo else hi if x > hi else x for x, (lo, hi) in zip(point, box)]

    def g(points):
        # the values at points already projected onto the box, -inf where not finite
        values = np.asarray(f(np.array(points)), dtype=float).tolist()
        return [v if math.isfinite(v) else -math.inf for v in values]

    # the simplex as lists of floats, with numpy's arithmetic in numpy's
    # order; initial simplex: perturb each coordinate by 5% of box width
    simplex = [start.tolist()]
    for i, (lo, hi) in enumerate(box):
        vertex = list(simplex[0])
        step = 0.05 * (hi - lo)
        vertex[i] = vertex[i] + step if vertex[i] + step <= hi else vertex[i] - step
        simplex.append(vertex)
    values = g([clip(v) for v in simplex])
    start_val = values[0]

    for _ in range(_POLISH_ITERS * dim):
        # best first, tied values in their current order
        order = sorted(range(dim + 1), key=lambda k: -values[k])
        simplex, values = [simplex[k] for k in order], [values[k] for k in order]
        top = simplex[0]
        # the values are sorted, so values[0] - values[-1] is their widest
        # spread (NaN where both are -inf)
        if (values[0] - values[-1] < _POLISH_FATOL
                and all(abs(x - t) < _POLISH_XATOL for v in simplex[1:] for x, t in zip(v, top))):
            break
        # the mean of the dim best vertices, summed from 0.0 and divided as
        # ndarray.sum(axis=0) / dim does
        centroid = [functools.reduce(operator.add, x, 0.0) / dim for x in zip(*simplex[:-1])]
        worst = simplex[-1]
        refl = clip([c + (c - w) for c, w in zip(centroid, worst)])
        [f_refl] = g([refl])
        if f_refl > values[0]:
            expa = clip([c + 2.0 * (c - w) for c, w in zip(centroid, worst)])
            [f_expa] = g([expa])
            if f_expa > f_refl:
                simplex[-1], values[-1] = expa, f_expa
            else:
                simplex[-1], values[-1] = refl, f_refl
        elif f_refl > values[-2]:
            simplex[-1], values[-1] = refl, f_refl
        else:
            contr = clip([c + 0.5 * (w - c) for c, w in zip(centroid, worst)])
            [f_contr] = g([contr])
            if f_contr > values[-1]:
                simplex[-1], values[-1] = contr, f_contr
            else:
                simplex[1:] = [[t + 0.5 * (x - t) for x, t in zip(v, top)] for v in simplex[1:]]
                values[1:] = g([clip(v) for v in simplex[1:]])

    best = int(np.argmax(values))
    if values[best] >= start_val:
        return np.array(simplex[best]), float(values[best])
    return start, float(start_val)
