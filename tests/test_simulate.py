"""Monte Carlo harness: designs, generation, replication accounting."""

from dataclasses import replace

import numpy as np
import pytest

from epfit.epd import EpdParams, make_rng
from epfit.estimate import FitResult
from epfit.scores import CombinedPlain, Distorted, Plain, ShapeTriple
from epfit.simulate import (
    DesignComponent,
    EstimatorSpec,
    SimulationDesign,
    generate,
    reference_design,
    run,
)


def _sized(design, n1, n3):
    """The design with n1 and n3 draws from its contaminating components."""
    left, centre, right = design.components
    return SimulationDesign((replace(left, n=n1), centre, replace(right, n=n3)))


class TestDesigns:
    def test_validation(self):
        with pytest.raises(ValueError):
            DesignComponent(alpha=0.0, mu=0, sigma=1, n=5)
        with pytest.raises(ValueError):
            DesignComponent(alpha=1, mu=0, sigma=1, n=-1)
        with pytest.raises(ValueError, match="finite"):
            DesignComponent(alpha=1, mu=float("inf"), sigma=1, n=5)
        comp = DesignComponent(1.0, 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            SimulationDesign((comp, comp, comp))

    def test_reference_designs(self):
        d1 = reference_design(1)
        assert d1.total_n == 110
        assert d1.underlying.alpha == 2.0
        assert [c.n for c in d1.components] == [5, 100, 5]
        d4 = reference_design(4, n2=400)
        assert d4.total_n == 410
        assert d4.underlying.alpha == 1.3
        with pytest.raises(ValueError):
            reference_design(5)


class TestGenerate:
    def test_length_and_determinism(self):
        d = reference_design(1)
        a = generate(d, 7)
        b = generate(d, 7)
        assert len(a) == 110
        np.testing.assert_array_equal(a, b)

    def test_pure_sample_when_contamination_empty(self):
        d = SimulationDesign((
            DesignComponent(1.1, 5.0, 6.0, 0),
            DesignComponent(2.0, 0.0, 1.0, 50),
            DesignComponent(1.2, 4.0, 2.0, 0),
        ))
        draws = generate(d, 3)
        assert len(draws) == 50

    def test_component_mean_matches_location(self):
        d = SimulationDesign((
            DesignComponent(2.0, 0.0, 1.0, 0),
            DesignComponent(2.0, 1.5, 1.0, 100_000),
            DesignComponent(2.0, 0.0, 1.0, 0),
        ))
        draws = generate(d, 11)
        se = float(np.std(draws)) / np.sqrt(len(draws))
        assert abs(np.mean(draws) - 1.5) < 3.0 * se

    @pytest.mark.parametrize("design", [
        reference_design(1), reference_design(2), reference_design(3), reference_design(4),
        _sized(reference_design(2), 0, 5), _sized(reference_design(4), 7, 0),
    ], ids=["1", "2", "3", "4", "2-no-left", "4-no-right"])
    def test_matches_reference_bit_for_bit(self, design):
        # the sampler and generator as they were before the component
        # laws were built once per design and the draws filled in place
        def reference_sample(p, n, rng):
            y = rng.gamma(shape=1.0 / p.alpha, scale=1.0, size=n)
            z = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            return p.mu + p.sigma * z * y ** (1.0 / p.alpha)

        def reference_generate(seed):
            rng = make_rng(seed)
            return np.concatenate([reference_sample(EpdParams(c.mu, c.sigma, c.alpha), c.n, rng)
                                   for c in design.components if c.n > 0])

        for rep in range(50):
            seed = np.random.SeedSequence(entropy=17, spawn_key=(0, rep, 0))
            got = generate(design, seed)
            assert got.dtype == np.float64 and got.shape == (design.total_n,)
            assert got.tobytes() == reference_generate(seed).tobytes()


class TestRun:
    def test_truth_estimator_gives_zero_error(self, monkeypatch):
        d = _sized(reference_design(1, n2=20), 2, 2)
        spec = EstimatorSpec(label="truth", family=Plain(), alpha=2.0)
        truth = FitResult(EpdParams(0.0, 1.0, 2.0), converged=True, iterations=0,
                          estimated_alpha=False)
        monkeypatch.setattr(EstimatorSpec, "fit", lambda self, data, seed: truth)
        rep = run(d, [spec], m=10, seed=1)
        for cell in rep.rows[0].cells:
            assert cell.var_hat == 0.0
            assert cell.mse_hat == 0.0

    def test_error_decomposition_identity(self):
        d = reference_design(1, n2=40)
        spec = EstimatorSpec(label="sd", family=Distorted(3e-3), alpha=2.0)
        rep = run(d, [spec], m=30, seed=5)
        truth = (0.0, 1.0)
        for cell, t in zip(rep.rows[0].cells, truth):
            assert cell.mse_hat == pytest.approx(
                cell.var_hat + (cell.mean - t) ** 2, abs=1e-12
            )

    def test_seeded_runs_bit_identical(self):
        d = reference_design(1, n2=30)
        spec = EstimatorSpec(label="sd", family=Distorted(3e-3), alpha=2.0)
        a = run(d, [spec], m=20, seed=42).to_csv()
        b = run(d, [spec], m=20, seed=42).to_csv()
        assert a == b

    def test_means_stable_when_doubling_m(self):
        d = reference_design(1, n2=60)
        spec = EstimatorSpec(label="sd", family=Distorted(3e-3), alpha=2.0)
        small = run(d, [spec], m=60, seed=10)
        big = run(d, [spec], m=120, seed=10)
        for cs, cb in zip(small.rows[0].cells, big.rows[0].cells):
            se = np.sqrt(cb.var_hat / big.rows[0].replications)
            assert abs(cs.mean - cb.mean) < 3.0 * max(se, np.sqrt(cs.var_hat / 60))

    def test_clean_design_favors_plain_likelihood_scale(self):
        # with contamination removed, the undeformed fit wins on scale error
        d = SimulationDesign((
            DesignComponent(1.1, 5.0, 6.0, 0),
            DesignComponent(2.0, 0.0, 1.0, 400),
            DesignComponent(1.2, 4.0, 2.0, 0),
        ))
        specs = [
            EstimatorSpec(label="mle", family=Plain(), alpha=2.0),
            EstimatorSpec(label="sd", family=Distorted(5e-3), alpha=2.0),
        ]
        rep = run(d, specs, m=500, seed=77)
        mse_sigma = {row.label: row.cells[1].mse_hat for row in rep.rows}
        assert mse_sigma["mle"] <= mse_sigma["sd"]

    def test_estimator_spec_validation(self):
        with pytest.raises(TypeError):
            EstimatorSpec(label="bad")
        with pytest.raises(ValueError):
            run(reference_design(1), [], m=1)
        with pytest.raises(ValueError, match="combined"):
            EstimatorSpec(label="c", family=CombinedPlain(ShapeTriple(1.8, 2.0, 2.4), 1.0, 1.0),
                          estimate_alpha=True)

    def test_objective_route_column(self):
        spec = EstimatorSpec(label="mdle", family=Distorted(6e-3), objective=True)
        assert spec.n_params == 3
        row = run(reference_design(4, n2=20), [spec], m=2, seed=3).rows[0]
        assert row.tuning == "beta=0.006"
        assert [c.parameter for c in row.cells] == ["mu", "sigma", "alpha"]

    def test_csv_shape(self):
        d = reference_design(1, n2=20)
        spec = EstimatorSpec(label="sd", family=Distorted(3e-3), alpha=2.0)
        text = run(d, [spec], m=5, seed=2).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "estimator,tc,parameter,mean,var_hat,mse_hat,failures"
        assert len(lines) == 3
