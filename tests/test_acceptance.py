"""Acceptance suite.

Each test prints one PASS/FAIL line per criterion (run with -s to see
them inline).  Tolerances are the documented ones; nothing here is
calibrated after the fact.  Where a documented reference band is
irreconcilable with the declared generating model, the check still
asserts the band as stated and the failure analysis lives alongside the
assertion.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from combined_oracle import combined_matrix
from epfit.epd import EpdParams, cdf, pdf, sample
from epfit.estimate import fit_ee_location_scale, objective_value
from epfit.fisher import fisher_for_family, psd_check
from epfit.scores import (
    CombinedHuber, CombinedPlain, Distorted, Plain, QWeighted, ShapeTriple, psi_vector,
)
from epfit.simulate import EstimatorSpec, generate, reference_design, run
from epfit.special_fn import integrate


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


class TestCriterion1:
    def test_design1_distorted_score_reproduction(self):
        # n = 110, m = 1000 (desk scale instead of the full-size study)
        design = reference_design(1)
        spec = EstimatorSpec(label="sd", family=Distorted(3e-3), alpha=2.0)
        rep = run(design, [spec], m=1000, seed=1)
        cells = {c.parameter: c for c in rep.rows[0].cells}
        mse_mu = cells["mu"].mse_hat
        mse_sigma = cells["sigma"].mse_hat

        ok_sigma = report(
            "criterion 1 (scale error band)",
            0.0037 <= mse_sigma <= 0.0085,
            f"mse(sigma)={mse_sigma:.5f} vs [0.0037, 0.0085]",
        )
        # The location band sits below the information bound of the
        # declared design: each clean draw carries location information
        # 2 (shape 2, scale 1), so no estimate from 110 points can have
        # variance under 1/220 ~ 0.0045.  The Monte Carlo value lands
        # there; the documented band [0.0013, 0.0029] instead matches
        # the inverse information numbers (~1/(110 * 4)), not a
        # replication spread.  The band is asserted as documented.
        ok_mu = report(
            "criterion 1 (location error band)",
            0.0013 <= mse_mu <= 0.0029,
            f"mse(mu)={mse_mu:.5f} vs [0.0013, 0.0029] "
            f"(information floor of the design is ~0.0045)",
        )
        assert ok_sigma
        assert ok_mu

    def test_design1_runtime_budget(self):
        import time
        design = reference_design(1)
        spec = EstimatorSpec(label="sd", family=Distorted(3e-3), alpha=2.0)
        started = time.perf_counter()
        run(design, [spec], m=1000, seed=1)
        elapsed = time.perf_counter() - started
        assert report("criterion 1 (runtime)", elapsed < 300.0,
                      f"m=1000 replication loop took {elapsed:.1f}s (< 300s)")


class TestCriterion2:
    def test_design1_q_weighted_bias(self):
        design = reference_design(1)
        spec = EstimatorSpec(
            label="mqle", family=QWeighted(0.625),
            estimate_alpha=True,
        )
        rep = run(design, [spec], m=500, seed=2)
        cells = {c.parameter: c for c in rep.rows[0].cells}
        mean_sigma = cells["sigma"].mean
        mse_alpha = cells["alpha"].mse_hat

        ok_sigma = report(
            "criterion 2 (scale bias)",
            0.71 <= mean_sigma <= 0.81,
            f"mean(sigma)={mean_sigma:.4f} vs [0.71, 0.81]",
        )
        # The shape estimate of this family has a genuine heavy right
        # tail: a few percent of replications converge to high-shape
        # solutions that are verified stationary maxima (independent
        # simplex refinement does not move them).  Those fits alone
        # push the squared error above the documented band, which
        # tracks a bounded-budget search that never reaches them.
        ok_alpha = report(
            "criterion 2 (shape error band)",
            0.27 <= mse_alpha <= 0.64,
            f"mse(alpha)={mse_alpha:.4f} vs [0.27, 0.64]",
        )
        assert ok_sigma
        assert ok_alpha


class TestCriterion3:
    def test_design4_distorted_likelihood(self):
        design = reference_design(4)
        spec = EstimatorSpec(
            label="mdle", family=Distorted(6e-3),
            estimate_alpha=True,
        )
        rep = run(design, [spec], m=500, seed=3)
        cells = {c.parameter: c for c in rep.rows[0].cells}
        mean_alpha = cells["alpha"].mean
        mse_alpha = cells["alpha"].mse_hat

        ok_mean = report(
            "criterion 3 (shape mean)",
            1.24 <= mean_alpha <= 1.37,
            f"mean(alpha)={mean_alpha:.4f} vs [1.24, 1.37]",
        )
        lo, hi = 0.6 * 0.1205, 1.4 * 0.1205
        ok_mse = report(
            "criterion 3 (shape error)",
            lo <= mse_alpha <= hi,
            f"mse(alpha)={mse_alpha:.4f} vs [{lo:.4f}, {hi:.4f}]",
        )
        assert ok_mean
        assert ok_mse


class TestCriterion4:
    def test_robustness_ordering(self):
        design = reference_design(1)
        wins = trials = 0
        for r in range(200):
            data = generate(design, 10_000 + r)
            spiked = np.concatenate([data, [2.0 * np.max(data), -2.0 * np.max(data)]])
            try:
                sd_clean = fit_ee_location_scale(data, Distorted(3e-3), alpha=2.0).params.sigma
                sd_out = fit_ee_location_scale(spiked, Distorted(3e-3), alpha=2.0).params.sigma
                ml_clean = fit_ee_location_scale(data, Plain(), alpha=2.0).params.sigma
                ml_out = fit_ee_location_scale(spiked, Plain(), alpha=2.0).params.sigma
            except Exception:
                continue
            trials += 1
            if abs(sd_out - sd_clean) < abs(ml_out - ml_clean):
                wins += 1
        frac = wins / trials
        assert report("criterion 4 (robustness ordering)", frac >= 0.90,
                      f"distorted score wins {wins}/{trials} = {frac:.3f} (need >= 0.90)")


class TestCriterion5:
    def test_synthetic_analog_recovery(self):
        # fixed representative replicate of the real-data analog
        data = sample(EpdParams(3.12, 1.68, 2.1), 114, 424002)
        ok = True
        for family in (Distorted(1e-2), QWeighted(0.8)):
            fit = fit_ee_location_scale(data, family, alpha=2.1)
            ok &= abs(fit.params.mu - 3.12) < 0.15
            ok &= abs(fit.params.sigma - 1.68) < 0.15
        assert report("criterion 5 (synthetic analog)", ok,
                      "location and scale recovered within 0.15 for both weighted fits")


class TestCriterion6:
    def test_combined_closed_vs_quadrature(self):
        rng = np.random.default_rng(106)
        worst = 0.0
        for _ in range(20):
            triple = ShapeTriple(*(1.6 + rng.random(3) * 2.0))
            k, t = 0.3 + rng.random(2) * 2.0
            p = EpdParams(rng.normal(), 0.5 + rng.random() * 2.0, triple.alpha2)
            family = CombinedPlain(triple, k, t)
            closed = fisher_for_family(family, p, 100, dim=2, method="closed")
            # scipy's quadrature, piece by piece (tests/combined_oracle.py)
            quadm = 100 * combined_matrix(family, p.sigma)
            scale = float(np.max(np.abs(quadm)))
            rel = np.max(np.abs(closed.entries - quadm) / (np.abs(quadm) + 1e-8 * scale))
            worst = max(worst, float(rel))
        assert report("criterion 6 (combined matrix agreement)", worst < 1e-6,
                      f"worst relative disagreement {worst:.2e} over 20 points")

    def test_q_weighted_closed_vs_quadrature(self):
        rng = np.random.default_rng(107)
        worst = 0.0
        for _ in range(20):
            p = EpdParams(rng.normal(), 0.5 + rng.random() * 2.0, 1.6 + rng.random() * 2.0)
            q = 0.5 + rng.random() * 0.5
            closed = fisher_for_family(QWeighted(q), p, 115, dim=3, method="closed")
            quadm = fisher_for_family(QWeighted(q), p, 115, dim=3, method="quad")
            scale = float(np.max(np.abs(quadm.entries)))
            rel = np.max(np.abs(closed.entries - quadm.entries)
                         / (np.abs(quadm.entries) + 1e-8 * scale))
            worst = max(worst, float(rel))
        ok_all = worst < 1e-6

        unit_closed = fisher_for_family(QWeighted(0.8), EpdParams(0, 1, 2.1), 115,
                                        dim=3, method="closed")
        unit_quad = fisher_for_family(QWeighted(0.8), EpdParams(0, 1, 2.1), 115,
                                      dim=3, method="quad")
        scale = float(np.max(np.abs(unit_quad.entries)))
        unit_rel = float(np.max(np.abs(unit_closed.entries - unit_quad.entries)
                                / (np.abs(unit_quad.entries) + 1e-8 * scale)))
        assert report(
            "criterion 6 (weighted matrix agreement)",
            ok_all and unit_rel < 1e-3,
            f"worst {worst:.2e} over 20 points; unit-scale point {unit_rel:.2e}",
        )


class TestCriterion7:
    def test_limits_and_reductions(self):
        p = EpdParams(0.2, 1.3, 2.0)
        xs = np.linspace(-1.5, 1.9, 25)
        from epfit.epd import log_pdf, log_q_pdf
        gap_logq = float(np.max(np.abs(log_q_pdf(xs, p, 1 - 1e-6) - log_pdf(xs, p))))

        data = sample(p, 300, 7)
        plain = fit_ee_location_scale(data, Plain(), alpha=2.0)
        via_d = fit_ee_location_scale(data, Distorted(0.0), alpha=2.0)
        gap_sd = max(abs(plain.params.mu - via_d.params.mu),
                     abs(plain.params.sigma - via_d.params.sigma))

        point = EpdParams(0.1, 1.1, 1.9)
        gap_obj = abs(objective_value(QWeighted(1.0), data, point)
                      - objective_value(Plain(), data, point))

        base = fisher_for_family(QWeighted(1.0), EpdParams(0, 1, 2.1), 115, dim=3, method="closed")
        dist = fisher_for_family(Distorted(0.0), EpdParams(0, 1, 2.1), 115, dim=3, method="quad")
        gap_fisher = float(np.max(np.abs(dist.entries - base.entries))
                           / np.max(np.abs(base.entries)))

        ok = gap_logq < 1e-5 and gap_sd < 1e-5 and gap_obj == 0.0 and gap_fisher < 1e-5
        assert report(
            "criterion 7 (limits and reductions)", ok,
            f"logq gap {gap_logq:.1e}, fit gap {gap_sd:.1e}, "
            f"objective gap {gap_obj:.1e}, matrix gap {gap_fisher:.1e}",
        )


class TestCriterion8:
    def test_estimating_equation_correctness(self):
        rng = np.random.default_rng(8)
        data = rng.normal(1.7, 1.2, 400)
        fit = fit_ee_location_scale(data, Plain(), alpha=2.0)
        mean_gap = abs(fit.params.mu - float(np.mean(data)))

        worst = 0.0
        sample_data = sample(EpdParams(0.2, 1.1, 2.0), 400, 21)
        for family, kwargs in (
            (Plain(), dict()),
            (QWeighted(0.8), dict(q=0.8)),
            (Distorted(5e-3), dict(beta=5e-3)),
        ):
            res = fit_ee_location_scale(sample_data, family, alpha=2.0)
            assert res.converged
            total = np.array(psi_vector(sample_data, res.params, **kwargs)).sum(axis=1)
            worst = max(worst, float(np.max(np.abs(total[:2]))))
        three = fit_ee_location_scale(
            sample(EpdParams(0, 1, 2), 5000, 42), Plain(),
            estimate_alpha=True,
        )
        assert three.converged
        total3 = np.array(psi_vector(
            sample(EpdParams(0, 1, 2), 5000, 42), three.params)).sum(axis=1)
        worst3 = float(np.max(np.abs(total3)))

        ok = mean_gap < 1e-12 and worst < 1e-6 and worst3 < 1e-6
        assert report(
            "criterion 8 (estimating equations)", ok,
            f"mean gap {mean_gap:.1e}; worst summed score {max(worst, worst3):.1e}",
        )


class TestCriterion9:
    def test_score_vector_boundedness(self):
        big = 1e6
        p2 = EpdParams(0, 1, 2.0)
        robust_q = np.max(np.abs(np.array(psi_vector(big, p2, q=0.8))))
        robust_b = np.max(np.abs(np.array(psi_vector(big, p2, beta=0.01))))
        unbounded = abs(psi_vector(big, p2)[0])
        ok = robust_q < 1e-8 and robust_b < 1e-8 and unbounded > 1e3
        assert report(
            "criterion 9 (score boundedness)", ok,
            f"deformed {max(robust_q, robust_b):.1e} < 1e-8; plain {unbounded:.1e} > 1e3",
        )


class TestCriterion10:
    def test_semidefiniteness_grid(self):
        rng = np.random.default_rng(110)
        all_ok = True
        for _ in range(50):
            triple = ShapeTriple(*(1.55 + rng.random(3) * 2.5))
            k = 0.1 + rng.random() * 2.5
            t = 0.1 + rng.random() * 2.5
            p = EpdParams(rng.normal(), 0.4 + rng.random() * 2.0, triple.alpha2)
            family = (CombinedHuber if rng.integers(0, 2) else CombinedPlain)(triple, k, t)
            F = fisher_for_family(family, p, 100, dim=2, method="closed")
            d = psd_check(F)
            all_ok &= d.determinant_test and d.pivot_test
        assert report("criterion 10 (semidefiniteness)", all_ok,
                      "determinant and pivot tests pass on 50 random valid points")


class TestCriterion11:
    @pytest.mark.parametrize("alpha,seed", [(2.0, 2024), (1.3, 77)])
    def test_sampler_distribution(self, alpha, seed):
        p = EpdParams(0.0, 1.0, alpha)
        draws = np.sort(sample(p, 10_000, seed))
        grid = cdf(draws, p)
        n = len(draws)
        dist = max(
            float(np.max(np.abs(grid - np.arange(1, n + 1) / n))),
            float(np.max(np.abs(grid - np.arange(0, n) / n))),
        )
        assert report(f"criterion 11 (sampler fit, shape {alpha})", dist < 0.02,
                      f"distribution distance {dist:.4f} < 0.02")

    def test_density_mass(self):
        worst = 0.0
        for alpha in (0.7, 1.0, 1.3, 2.0, 2.1, 3.0):
            p = EpdParams(0.0, 1.0, alpha)
            # the mass beyond y^alpha = 60 is below 1e-25
            w = 60.0 ** (1.0 / alpha) * p.sigma
            mass = integrate(lambda x: pdf(x, p), p.mu - w, p.mu + w).value
            worst = max(worst, abs(mass - 1.0))
        assert report("criterion 11 (density mass)", worst < 1e-8,
                      f"worst deviation from unit mass {worst:.1e}")


class TestCriterion12:
    def _cli(self, args):
        return subprocess.run([sys.executable, "-m", "epfit.cli", *args],
                              capture_output=True, text=True)

    def test_byte_reproducibility(self, tmp_path):
        data = tmp_path / "d.csv"
        out = tmp_path / "out"
        r = self._cli(["rng", "--mu", "0", "--sigma", "1", "--alpha", "2",
                       "--n", "60", "--seed", "5", "--out", str(data)])
        assert r.returncode == 0
        first = data.read_bytes()
        self._cli(["rng", "--mu", "0", "--sigma", "1", "--alpha", "2",
                   "--n", "60", "--seed", "5", "--out", str(data)])
        ok = data.read_bytes() == first

        est = tmp_path / "est.toml"
        est.write_text("[estimator.sd]\nscore = sd\nbeta = 0.003\nalpha = 2\n")
        table = tmp_path / "t.csv"
        self._cli(["simulate", "--design", "design1", "--estimators", str(est),
                   "--m", "25", "--seed", "9", "--out", str(table)])
        once = table.read_bytes()
        self._cli(["simulate", "--design", "design1", "--estimators", str(est),
                   "--m", "25", "--seed", "9", "--threads", "3", "--out", str(table)])
        ok &= table.read_bytes() == once

        fit_out = tmp_path / "f.json"
        args = ["fit", "--data", str(data), "--score", "sd", "--beta", "0.01",
                "--alpha", "2", "--out", str(fit_out)]
        self._cli(args)
        fit_once = fit_out.read_bytes()
        json.loads(fit_once)
        self._cli(args)
        ok &= fit_out.read_bytes() == fit_once
        assert report("criterion 12 (determinism)", ok,
                      "seeded outputs byte-identical across reruns and thread counts")
