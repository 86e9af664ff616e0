"""Monte Carlo harness: contamination designs, replication engine and
variance/error tables.

A design is three EP components (left contamination, underlying model,
right contamination); the truth for error accounting is the underlying
component.  Replications are independently seeded from one master seed
by spawn keys, so runs are reproducible cell-for-cell.
"""

from __future__ import annotations

import io
import csv
import functools
from dataclasses import dataclass

import numpy as np

from .epd import EpdParams, make_rng, sample
from .estimate import (
    AlphaRootError,
    DegenerateDataError,
    FitResult,
    fit_ee_location_scale,
    fit_objective,
)
from .scores import ScoreFamily

__all__ = [
    "DesignComponent",
    "SimulationDesign",
    "EstimatorSpec",
    "CellStats",
    "EstimatorRow",
    "SimulationReport",
    "reference_design",
    "generate",
    "run",
]

_FAILURE_TYPES = (DegenerateDataError, AlphaRootError, RuntimeError, ValueError)


@dataclass(frozen=True)
class DesignComponent:
    alpha: float
    mu: float
    sigma: float
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("component size must be non-negative")
        # building the law checks that the parameters are finite and the
        # scale and shape positive
        self.params

    # the component's EP law, built once for all its replications
    @functools.cached_property
    def params(self) -> EpdParams:
        return EpdParams(self.mu, self.sigma, self.alpha)


@dataclass(frozen=True)
class SimulationDesign:
    """Three-component contamination recipe; component 2 is the model."""

    components: tuple[DesignComponent, DesignComponent, DesignComponent]

    def __post_init__(self):
        if len(self.components) != 3:
            raise ValueError("a design has exactly three components")
        if sum(c.n for c in self.components) < 1:
            raise ValueError("at least one component must have positive size")

    @property
    def underlying(self) -> DesignComponent:
        return self.components[1]

    @property
    def total_n(self) -> int:
        return sum(c.n for c in self.components)


_REFERENCE_DESIGNS = {
    1: ((1.1, 5.0, 6.0), (2.0, 0.0, 1.0), (1.2, 4.0, 2.0)),
    2: ((1.1, 2.0, 3.0), (3.0, 0.0, 1.0), (1.2, 3.0, 5.0)),
    3: ((1.2, 3.0, 4.0), (3.0, 0.0, 1.0), (0.8, 3.0, 4.0)),
    4: ((0.7, 4.0, 2.0), (1.3, 0.0, 1.0), (0.9, 2.0, 3.0)),
}


def reference_design(index: int, n2: int = 100) -> SimulationDesign:
    """One of the four documented contamination designs, five draws per tail component."""
    if index not in _REFERENCE_DESIGNS:
        raise ValueError(f"design index must be 1..4, got {index}")
    (a1, m1, s1), (a2, m2, s2), (a3, m3, s3) = _REFERENCE_DESIGNS[index]
    return SimulationDesign((
        DesignComponent(a1, m1, s1, 5),
        DesignComponent(a2, m2, s2, n2),
        DesignComponent(a3, m3, s3, 5),
    ))


def generate(design: SimulationDesign, seed) -> np.ndarray:
    """Concatenated draws from the three components, in component order."""
    rng = make_rng(seed)
    out = np.empty(design.total_n)
    start = 0
    for c in design.components:
        if c.n > 0:
            out[start:start + c.n] = sample(c.params, c.n, rng)
            start += c.n
    return out


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator column of a simulation table.

    A score family fitted by its estimating equations (``alpha`` fixed
    unless ``estimate_alpha`` is set) or, with ``objective``, by
    maximizing its log-likelihood with the genetic optimizer (plain,
    q-weighted and distorted families only, shape always estimated).
    """

    label: str
    family: ScoreFamily
    objective: bool = False
    alpha: float | None = None
    estimate_alpha: bool = False

    def __post_init__(self):
        # rejected here, not counted as a failure of every replication
        if self.estimate_alpha and self.family.shapes is not None:
            raise ValueError("shape estimation is undefined for the combined families")

    @property
    def n_params(self) -> int:
        if self.objective or self.estimate_alpha:
            return 3
        return 2

    def tuning_label(self) -> str:
        parts = [f"{name}={value:g}" for name, value in self.family.tuning().items()]
        return ",".join(parts) if parts else "-"

    def fit(self, data, seed) -> FitResult:
        """This estimator fitted to ``data``; ``seed`` drives the genetic
        optimizer of the objective route and is unused otherwise."""
        if self.objective:
            return fit_objective(data, self.family, seed=seed)
        return fit_ee_location_scale(data, self.family, alpha=self.alpha,
                                     estimate_alpha=self.estimate_alpha)


@dataclass
class CellStats:
    parameter: str
    mean: float
    var_hat: float
    mse_hat: float


@dataclass
class EstimatorRow:
    label: str
    tuning: str
    cells: list
    failures: int
    replications: int


@dataclass
class SimulationReport:
    rows: list

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["estimator", "tc", "parameter", "mean", "var_hat", "mse_hat", "failures"])
        for row in self.rows:
            for cell in row.cells:
                writer.writerow([
                    row.label, row.tuning, cell.parameter,
                    repr(cell.mean), repr(cell.var_hat), repr(cell.mse_hat),
                    row.failures,
                ])
        return buf.getvalue()


def run(
    design: SimulationDesign,
    estimators,
    m: int,
    seed: int = 0,
) -> SimulationReport:
    """Replicated generate-and-fit cycles for each estimator.

    The variance column is the squared spread about the replication
    mean, the error column the squared spread about the truth (the
    underlying component's parameters); both use the
    1/m normalization so error = variance + bias^2 holds exactly.
    Failed fits are excluded and counted.
    """
    if m < 2:
        raise ValueError("need at least two replications")
    under = design.underlying
    rows = []
    for e_idx, spec in enumerate(estimators):
        truth = (under.mu, under.sigma, under.alpha)[: spec.n_params]
        estimates, failures = [], 0
        for rep in range(m):
            data_seed = np.random.SeedSequence(entropy=seed, spawn_key=(e_idx, rep, 0))
            # only the objective route's optimizer draws from its seed
            fit_seed = (np.random.SeedSequence(entropy=seed, spawn_key=(e_idx, rep, 1))
                        if spec.objective else None)
            data = generate(design, data_seed)
            # budget-limited fits come back flagged but carry usable
            # parameters; only exceptions count as failures
            try:
                p = spec.fit(data, fit_seed).params
            except _FAILURE_TYPES:
                failures += 1
                continue
            estimates.append((p.mu, p.sigma, p.alpha)[: spec.n_params])
        estimates = np.array(estimates)
        cells = []
        names = ("mu", "sigma", "alpha")[: spec.n_params]
        if len(estimates):
            for j, name in enumerate(names):
                col = estimates[:, j]
                mean = float(np.mean(col))
                var_hat = float(np.mean((col - mean) ** 2))
                mse_hat = float(np.mean((col - truth[j]) ** 2))
                cells.append(CellStats(name, mean, var_hat, mse_hat))
        rows.append(EstimatorRow(
            label=spec.label,
            tuning=spec.tuning_label(),
            cells=cells,
            failures=failures,
            replications=m,
        ))
    return SimulationReport(rows)
