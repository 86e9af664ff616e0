"""The benchmark's layer tracer still sees every fit.

perfbench/tracing.py counts fits, EE sweeps and information matrices by
rebinding names in the package's modules: ``fit_ee_location_scale``,
``fit_objective`` and ``fisher_for_family`` wherever they are bound,
``maximize`` and ``polish`` with their objective wrapped in a call
counter, ``integrate`` wherever it is imported (no module of the
package imports it, so it counts no call), ``ee_weight``,
``density_weight`` and ``digamma`` in ``estimate``, and
``artificial_sample`` and ``mae`` in ``select`` (installing fails if
either is gone).
A traced benchmark run fails when it sees fewer fits than it attempted,
so these tests run the tracer here, on small inputs, without editing it.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from epfit import estimate, fisher, optimize, scores, select, simulate
from epfit.epd import EpdParams, sample
from epfit.scores import CombinedPlain, Distorted, Huber, Plain, QWeighted, ShapeTriple

TRACING_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer():
    tracing = _load_tracing()
    t = tracing.Tracer()
    tracing.install(t)
    try:
        yield t
    finally:
        t.uninstall()
    assert estimate.ee_weight is scores.ee_weight
    assert estimate.fit_ee_location_scale.__module__ == "epfit.estimate"


def _span_count(tracer, name):
    nid = tracer.names.index(name)
    return sum(1 for i in tracer.name_ids if i == nid)


def test_simulate_fits_are_each_seen(tracer):
    specs = [simulate.EstimatorSpec("sq", QWeighted(0.8), alpha=2.0),
             simulate.EstimatorSpec("huber", Huber(1.5), alpha=2.0)]
    report = simulate.run(simulate.reference_design(1), specs, m=3, seed=1)
    attempted = sum(row.replications for row in report.rows)
    assert attempted == 6
    assert tracer.counts["estimate.fits"] == attempted
    assert len(tracer.ee_fits) == attempted
    assert tracer.counts["scores.ee_weight_calls"] == tracer.counts["estimate.iterations"]


def test_shape_two_sweeps_and_draws_are_seen(tracer):
    # at shape 2 the likelihood families' EE weights skip |y|^0, and
    # generate fills one array: each sweep still makes one ee_weight
    # call (and one density pass for the distorted column), and each
    # replication draws its three components through epd.sample
    m = 4
    specs = [simulate.EstimatorSpec("s", Plain(), alpha=2.0),
             simulate.EstimatorSpec("sd", Distorted(3e-3), alpha=2.0)]
    simulate.run(simulate.reference_design(1), specs, m=m, seed=1)
    assert tracer.counts["estimate.fits"] == 2 * m
    assert tracer.counts["scores.ee_weight_calls"] == tracer.counts["estimate.iterations"]
    distorted_sweeps = sum(result.iterations for _, family, result in tracer.ee_fits
                           if family == Distorted(3e-3))
    assert distorted_sweeps >= m
    assert _span_count(tracer, "scores.density_weight") == distorted_sweeps
    assert tracer.counts["epd.sample_calls"] == 3 * 2 * m


def test_shape_estimating_fit_is_seen(tracer):
    data = simulate.generate(simulate.reference_design(1), np.random.SeedSequence(5))
    result = estimate.fit_ee_location_scale(data, QWeighted(0.8), estimate_alpha=True)
    assert tracer.counts["estimate.fits"] == 1
    assert tracer.counts["estimate.iterations"] == result.iterations
    assert tracer.counts["scores.ee_weight_calls"] == result.iterations
    # one density pass per sweep, and one shape-root solve
    assert _span_count(tracer, "scores.density_weight") == result.iterations
    assert tracer.counts["estimate.shape_root_solves"] == result.iterations
    assert tracer.counts["estimate.shape_residual_evals"] > 0


def test_accelerated_shape_fit_is_seen(tracer):
    # the `d` shape row of test_estimate's EE_FIT_PINS: past the 40 plain
    # warm-up steps, and every extrapolant, kept or rejected, costs one
    # sweep and one shape-root solve
    data = np.concatenate([sample(EpdParams(0.0, 1.0, 2.0), 100, 21),
                           sample(EpdParams(5.0, 6.0, 1.1), 10, 22)])
    result = estimate.fit_ee_location_scale(data, Distorted(6e-3), estimate_alpha=True)
    assert result.iterations > estimate._WARMUP
    assert tracer.counts["estimate.fits"] == 1
    assert tracer.counts["estimate.iterations"] == result.iterations
    assert tracer.counts["estimate.shape_root_solves"] == result.iterations
    assert tracer.counts["scores.ee_weight_calls"] == result.iterations


def test_shape_residual_evaluations_are_counted_one_for_one(tracer, monkeypatch):
    # the count reads calls of the digamma that estimate binds: each
    # evaluation of the kernel's shape residual makes exactly one, and
    # the stationarity certificate's gradient makes none
    evaluations = [0]
    residual = estimate._LikelihoodKernel.__call__

    def counted(kernel, alpha):
        evaluations[0] += 1
        return residual(kernel, alpha)

    monkeypatch.setattr(estimate._LikelihoodKernel, "__call__", counted)
    data = np.concatenate([sample(EpdParams(0.0, 1.0, 2.0), 100, 21),
                           sample(EpdParams(5.0, 6.0, 1.1), 10, 22)])
    result = estimate.fit_ee_location_scale(data, Distorted(6e-3), estimate_alpha=True)
    assert result.converged
    assert evaluations[0] > result.iterations
    assert tracer.counts["estimate.shape_residual_evals"] == evaluations[0]


def test_tune_candidate_fits_are_each_seen(tracer):
    data = simulate.generate(simulate.reference_design(1), np.random.SeedSequence(6))
    candidates = [Distorted(0.0), Distorted(3e-3), Distorted(6e-3)]
    report = select.tune(data, candidates, alpha=2.0)
    assert tracer.counts["estimate.fits"] == 3
    assert [family for _, family, _ in tracer.ee_fits] == candidates
    assert ([result.params for _, _, result in tracer.ee_fits]
            == [c.fit.params for c in report.candidates])


def test_tune_matrices_are_each_seen(tracer):
    # each candidate's matrix comes from its own fisher_for_family call
    data = simulate.generate(simulate.reference_design(1), np.random.SeedSequence(6))
    report = select.tune(data, [Distorted(0.0), Distorted(3e-3), Distorted(6e-3)], alpha=2.0)
    assert tracer.counts["fisher.matrices"] == 3
    assert tracer.counts["fisher.closed_form"] == 1
    assert [c.fit.fisher.method for c in report.candidates] == [
        "closed_form", "quadrature", "quadrature"]


def test_quadrature_matrix_is_seen(tracer):
    # a likelihood matrix is one pass of a fixed rule, with no integrate call
    fisher.fisher_for_family(Distorted(6e-3), EpdParams(0.0, 1.0, 2.0), 110, dim=3)
    assert tracer.counts["fisher.matrices"] == 1
    assert tracer.counts["fisher.closed_form"] == 0
    assert tracer.counts["special_fn.integrate_calls"] == 0
    # a combined family with a branch shape at or below 3/2 is closed too
    fisher.fisher_for_family(CombinedPlain(ShapeTriple(1.52, 3.18, 1.11), 0.69, 0.67),
                             EpdParams(0.0, 1.0, 3.18), 110)
    assert tracer.counts["fisher.matrices"] == 2
    assert tracer.counts["fisher.closed_form"] == 1
    assert tracer.counts["special_fn.integrate_calls"] == 0


def test_closed_form_matrix_is_seen(tracer):
    matrix = fisher.fisher_for_family(Plain(), EpdParams(0.0, 1.0, 1.2), 110, dim=3)
    assert matrix.method == "closed_form"
    assert tracer.counts["fisher.matrices"] == 1
    assert tracer.counts["fisher.closed_form"] == 1
    assert tracer.counts["special_fn.integrate_calls"] == 0


def _objective_fit(data, family, seed):
    res = estimate.fit_objective(data, family, seed=seed)
    p = res.params
    return p.mu.hex(), p.sigma.hex(), p.alpha.hex(), res.objective_value.hex()


@pytest.mark.parametrize("family", [QWeighted(0.8), Distorted(6e-3)])
def test_objective_fit_is_seen(family, monkeypatch):
    # the GA and the polish call their objective only through the f they
    # are given, so the tracer's counting wrapper sees every call
    data = simulate.generate(simulate.reference_design(2), np.random.SeedSequence(7))
    calls = {"maximize": 0, "polish": 0}

    def recording(fn):
        def run(f, *args, **kwargs):
            def counted(points):
                calls[fn.__name__] += 1
                return f(points)

            return fn(counted, *args, **kwargs)

        return run

    with monkeypatch.context() as m:
        m.setattr(estimate, "maximize", recording(optimize.maximize))
        m.setattr(estimate, "polish", recording(optimize.polish))
        untraced = _objective_fit(data, family, seed=3)
    assert calls["maximize"] > 1 and calls["polish"] > 1

    tracing = _load_tracing()
    t = tracing.Tracer()
    tracing.install(t)
    try:
        traced = _objective_fit(data, family, seed=3)
    finally:
        t.uninstall()
    assert estimate.maximize is optimize.maximize and estimate.polish is optimize.polish
    assert traced == untraced
    assert t.counts["estimate.fits"] == 1
    assert t.counts["optimize.ga_evals"] == calls["maximize"]
    assert t.counts["optimize.polish_evals"] == calls["polish"]
