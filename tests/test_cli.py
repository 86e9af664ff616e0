"""Command-line surface: ingestion, outlier handling, dispatch, report
schema and byte-level reproducibility."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epfit
from epfit.cli import (
    IngestError,
    add_outliers,
    dispatch,
    ingest,
    load_report_schema,
    validate_report,
)


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "epfit.cli", *args],
        capture_output=True, text=True,
    )


# module-level entry point for `python -m epfit.cli`
def test_module_runnable(tmp_path):
    out = tmp_path / "x.csv"
    res = run_cli(["rng", "--mu", "0", "--sigma", "1", "--alpha", "2",
                   "--n", "3", "--seed", "1", "--out", str(out)])
    assert res.returncode == 0
    assert len(out.read_text().splitlines()) == 3


class TestIngest:
    def test_plain_values(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1\n2\n3\n")
        np.testing.assert_array_equal(ingest(str(path)), [1.0, 2.0, 3.0])

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x\n1\n")
        np.testing.assert_array_equal(ingest(str(path)), [1.0])

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1\nfoo\n")
        with pytest.raises(IngestError, match="line 2"):
            ingest(str(path))

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1\nnan\n")
        with pytest.raises(IngestError):
            ingest(str(path))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(IngestError):
            ingest(str(path))


class TestOutliers:
    def test_literal_rule(self):
        np.testing.assert_array_equal(add_outliers([1, 2, 3]), [1, 2, 3, 6, -6])

    def test_raw_maximum_used(self):
        np.testing.assert_array_equal(add_outliers([-5, 1]), [-5, 1, 2, -2])

    def test_absolute_variant(self):
        np.testing.assert_array_equal(
            add_outliers([-5, 1], use_abs=True), [-5, 1, 10, -10]
        )

    def test_degenerate_maximum(self):
        np.testing.assert_array_equal(add_outliers([0.0]), [0.0, 0.0, 0.0])


class TestSchema:
    def test_valid_report_passes(self):
        report = {
            "schema_version": "1",
            "command": "fit",
            "argv": ["fit"],
            "inputs": {"seed": 1, "data_sha256": "ab", "n": 10},
            "payload": {},
        }
        validate_report(report)

    def test_missing_key_fails(self):
        with pytest.raises(ValueError, match="payload"):
            validate_report({"schema_version": "1", "command": "x", "inputs": {"seed": None}})

    def test_wrong_type_fails(self):
        with pytest.raises(ValueError):
            validate_report({
                "schema_version": 1, "command": "x",
                "inputs": {"seed": None}, "payload": {},
            })

    def test_schema_ships(self):
        schema = load_report_schema()
        assert schema["required"] == ["schema_version", "command", "inputs", "payload"]


class TestRngCommand:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["rng", "--mu", "0", "--sigma", "1", "--alpha", "2",
                "--n", "5", "--seed", "7"]
        assert dispatch(args + ["--out", str(a)]) == 0
        assert dispatch(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_required(self, tmp_path, capsys):
        code = dispatch(["rng", "--mu", "0", "--sigma", "1", "--alpha", "2",
                         "--n", "5", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "usage"


@pytest.fixture(scope="module")
def sample_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sample.csv"
    code = dispatch(["rng", "--mu", "3.12", "--sigma", "1.68", "--alpha", "2.1",
                     "--n", "114", "--seed", "99", "--out", str(path)])
    assert code == 0
    return path


class TestFitCommand:
    def test_end_to_end_estimates(self, sample_file, tmp_path):
        out = tmp_path / "fit.json"
        code = dispatch(["fit", "--data", str(sample_file), "--score", "sd",
                         "--beta", "0.01", "--alpha", "2.1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        validate_report(report)
        est = report["payload"]["estimates"]
        assert abs(est["mu"] - 3.12) < 0.5
        assert abs(est["sigma"] - 1.68) < 0.5
        assert report["payload"]["ic"]["bic"] > report["payload"]["ic"]["aic"]
        assert report["payload"]["volume"] > 0
        # three points leave no corrected criterion (it needs n > p + 1):
        # it is null, and the fit reports the others
        three = tmp_path / "three.csv"
        three.write_text("0.1\n0.9\n0.5\n")
        code = dispatch(["fit", "--data", str(three), "--score", "sd", "--beta", "6e-3",
                         "--alpha", "2", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        validate_report(report)
        ic = report["payload"]["ic"]
        assert ic["caic"] is None
        assert ic["aic"] > ic["bic"] > 0

    def test_report_bytes_reproducible(self, sample_file, tmp_path):
        out = tmp_path / "a.json"
        args = ["fit", "--data", str(sample_file), "--score", "sq",
                "--q", "0.8", "--alpha", "2.1", "--out", str(out)]
        assert dispatch(args) == 0
        first = out.read_bytes()
        assert dispatch(args) == 0
        assert out.read_bytes() == first

    def test_round_trip_payload(self, sample_file, tmp_path):
        out = tmp_path / "fit.json"
        dispatch(["fit", "--data", str(sample_file), "--score", "s",
                  "--alpha", "2.0", "--out", str(out)])
        report = json.loads(out.read_text())
        again = json.loads(json.dumps(report))
        assert again == report

    def test_timings_add_only_the_timing(self, sample_file, tmp_path):
        out = tmp_path / "fit.json"
        args = ["fit", "--data", str(sample_file), "--score", "sq", "--q", "0.8",
                "--alpha", "2.1", "--out", str(out)]
        assert dispatch(args) == 0
        default = json.loads(out.read_text())
        assert "timing_ms" not in default
        assert dispatch(args + ["--timings"]) == 0
        timed = json.loads(out.read_text())
        validate_report(timed)
        assert timed.pop("timing_ms") >= 0.0
        assert timed.pop("argv") == args + ["--timings"]
        default.pop("argv")
        assert timed == default

    def test_computation_failure_exits_one(self, tmp_path, capsys):
        # the distorted shape equation has no root on this sample
        data = tmp_path / "ints.csv"
        data.write_text("".join(f"{v}\n" for v in np.random.default_rng(0).integers(0, 4, 110)))
        out = tmp_path / "x.json"
        code = dispatch(["fit", "--data", str(data), "--score", "sd", "--beta", "6e-3",
                         "--estimate-alpha", "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "computation"
        assert err["message"].startswith("AlphaRootError: ")
        assert not out.exists()

    def test_quadrature_on_a_huber_fit_is_refused(self, sample_file, tmp_path, capsys):
        # the Huber matrix is closed at every shape
        out = tmp_path / "x.json"
        code = dispatch(["fit", "--data", str(sample_file), "--score", "huber", "--r", "1.345",
                         "--alpha", "2.1", "--fisher", "quad", "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "computation"
        assert err["message"].startswith("DomainError: no quadrature for Huber(")
        assert "its closed form is exact" in err["message"]
        assert not out.exists()

    def test_objective_fit_requires_ga_seed(self, sample_file, tmp_path, capsys):
        code = dispatch(["fit", "--data", str(sample_file), "--score", "sq",
                         "--q", "0.8", "--method", "objective",
                         "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_ga_seed_on_an_ee_fit_is_refused_before_reading(self, sample_file, tmp_path,
                                                            capsys):
        # an estimating-equation fit draws nothing; a missing data file
        # shows the flag is refused before any data is read
        out = tmp_path / "x.json"
        for data in (sample_file, tmp_path / "missing.csv"):
            code = dispatch(["fit", "--data", str(data), "--score", "s", "--alpha", "2",
                             "--ga-seed", "3", "--out", str(out)])
            assert code == 2
            err = json.loads(capsys.readouterr().err)["error"]
            assert err == {"kind": "usage",
                           "message": "--ga-seed applies only to objective fits"}
            assert not out.exists()

    def test_objective_fit_refuses_a_shape(self, sample_file, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = dispatch(["fit", "--data", str(sample_file), "--score", "sq", "--q", "0.8",
                         "--method", "objective", "--ga-seed", "3", "--alpha", "2",
                         "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "usage"
        assert err["message"].startswith("estimator sq: objective fits estimate the shape")
        assert not out.exists()

    def test_objective_fit_runs(self, sample_file, tmp_path):
        out = tmp_path / "obj.json"
        code = dispatch(["fit", "--data", str(sample_file), "--score", "sd",
                         "--beta", "0.01", "--method", "objective",
                         "--ga-seed", "3", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["payload"]["alpha_estimated"] is True
        assert abs(report["payload"]["estimates"]["alpha"] - 2.1) < 0.8
        assert report["payload"]["family"] == "MDLE"
        assert report["payload"]["beta"] == 0.01

    def test_overflowed_fisher_matrix_still_reports(self, tmp_path, capfd):
        # on this contaminated sample the sq objective fit lands at shape
        # 0.573, where the location and (sigma, mu) information integrals
        # diverge; the quadrature used to overflow there.  The closed form
        # reports them as infinite, mu gets variance 0 and sigma, alpha the
        # inverse of the finite (sigma, alpha) block
        data = Path(__file__).parent / "data" / "overflowed_fisher.csv"
        out = tmp_path / "obj.json"
        code = dispatch(["fit", "--data", str(data), "--score", "sq", "--q", "0.8",
                         "--method", "objective", "--ga-seed", "1833331738",
                         "--out", str(out)])
        assert code == 0
        assert capfd.readouterr() == ("", "")
        report = json.loads(out.read_text())
        validate_report(report)
        payload = report["payload"]
        fisher = payload["fisher"]
        assert fisher["method"] == "closed_form"
        assert [row[0] for row in fisher["entries"]] == ["inf", "inf", "inf"]
        assert fisher["entries"][0][1:] == [0.0, 0.0]
        assert fisher["psd"]["min_eigenvalue"] == "nan"
        assert payload["volume"] == "inf"
        raw = payload["variances"]["raw"]
        assert raw[0] == 0.0
        assert raw[1:] == pytest.approx([1.8497938986e-3, 1.338337972e-4], rel=1e-8)
        assert payload["variances"]["pseudo_inverse"] is False

    def test_outlier_flag(self, sample_file, tmp_path):
        out = tmp_path / "o.json"
        code = dispatch(["fit", "--data", str(sample_file), "--score", "sd",
                         "--beta", "0.01", "--alpha", "2.1", "--add-outliers",
                         "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["payload"]["outliers_added"] is True
        assert report["payload"]["n"] == 116

    def test_outlier_abs_needs_add_outliers(self, sample_file, tmp_path, capsys):
        out = tmp_path / "o.json"
        code = dispatch(["fit", "--data", str(sample_file), "--score", "s", "--alpha", "2.1",
                         "--outlier-abs", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "usage"
        assert "--add-outliers" in err["error"]["message"]
        assert not out.exists()

    def test_mae_does_not_depend_on_the_count(self, sample_file, tmp_path):
        maes = []
        for reps in ("1", "7", "500"):
            out = tmp_path / f"fit-{reps}.json"
            assert dispatch(["fit", "--data", str(sample_file), "--score", "huber",
                             "--r", "1.345", "--alpha", "2.1", "--mae-reps", reps,
                             "--out", str(out)]) == 0
            maes.append(json.loads(out.read_text())["payload"]["mae"])
        assert maes[0] > 0.0 and maes == [maes[0]] * 3

    def test_non_numeric_alpha_is_usage_error(self, sample_file, tmp_path, capsys):
        code = dispatch(["fit", "--data", str(sample_file), "--score", "s",
                         "--alpha", "abc", "--out", str(tmp_path / "x.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "usage"
        assert "--alpha" in err["error"]["message"]

    def test_missing_tc_is_usage_error(self, sample_file, tmp_path, capsys):
        code = dispatch(["fit", "--data", str(sample_file), "--score", "sd",
                         "--alpha", "2.1", "--out", str(tmp_path / "x.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "beta" in err["error"]["message"]


class TestFisherCommand:
    def test_quadrature_on_a_combined_family_is_refused(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        code = dispatch(["fisher", "--family", "combined", "--alpha", "1.2,2,0.9", "--k", "0",
                         "--t", "1", "--mu", "0", "--sigma", "1", "--n", "100",
                         "--mode", "quad", "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "computation"
        assert err["message"].startswith("DomainError: no quadrature for CombinedPlain(")
        assert "its closed form is exact" in err["message"]
        assert not out.exists()

    def test_closed_form_report(self, tmp_path):
        out = tmp_path / "f.json"
        code = dispatch(["fisher", "--family", "sq", "--mu", "0", "--sigma", "1",
                         "--alpha", "2.1", "--q", "0.8", "--n", "115",
                         "--dim", "3", "--mode", "closed", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        fish = report["payload"]["fisher"]
        assert fish["method"] == "closed_form"
        assert fish["entries"][0][1] == 0.0
        assert fish["psd"]["asymmetry"] > 0

    def test_plain_score_gives_the_requested_3x3(self, tmp_path):
        out = tmp_path / "f.json"
        code = dispatch(["fisher", "--family", "s", "--mu", "0", "--sigma", "1",
                         "--alpha", "2.1", "--n", "115", "--dim", "3",
                         "--mode", "closed", "--out", str(out)])
        assert code == 0
        fish = json.loads(out.read_text())["payload"]["fisher"]
        assert fish["dim"] == 3
        assert np.array(fish["entries"]).shape == (3, 3)

    @pytest.mark.parametrize("family_args", [
        ["--family", "huber", "--r", "1.345", "--alpha", "2"],
        ["--family", "combined", "--alpha", "2,2.5,3", "--k", "1", "--t", "1"],
        ["--family", "combined-huber", "--alpha", "2,2.5,3", "--k", "1", "--t", "1"],
    ])
    def test_dim3_without_likelihood_is_usage_error(self, family_args, tmp_path, capsys):
        out = tmp_path / "f.json"
        code = dispatch(["fisher", *family_args, "--mu", "0", "--sigma", "1",
                         "--n", "100", "--dim", "3", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "usage"
        assert "--dim 3" in err["error"]["message"]
        assert not out.exists()


def test_usage_error_leaves_the_next_commands_as_in_a_fresh_process(sample_file, tmp_path,
                                                                    monkeypatch, capsys):
    # one parser serves every dispatch of a process
    commands = [
        ("fit.json", ["fit", "--data", str(sample_file), "--score", "sq", "--q", "0.8",
                      "--estimate-alpha", "--mae-reps", "5"]),
        ("tune.json", ["tune", "--data", str(sample_file), "--family", "sd",
                       "--grid-beta", "0:0.01:0.005", "--alpha", "2.1", "--seed", "3"]),
    ]
    fresh, same = tmp_path / "fresh", tmp_path / "same"
    fresh.mkdir()
    same.mkdir()
    src = str(Path(epfit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for out, args in commands:
        res = subprocess.run([sys.executable, "-m", "epfit.cli", *args, "--out", out],
                             capture_output=True, text=True, cwd=fresh, env=env)
        assert res.returncode == 0, res.stderr
    monkeypatch.chdir(same)
    for bad in (["fit", "--data", str(sample_file), "--score", "nope", "--out", "x.json"],
                ["tune", "--data", str(sample_file), "--family", "sd", "--made-up-flag", "1",
                 "--seed", "3", "--out", "x.json"]):
        assert dispatch(bad) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "usage"
    for out, args in commands:
        assert dispatch([*args, "--out", out]) == 0
        assert (same / out).read_bytes() == (fresh / out).read_bytes(), out


class TestSimulateCommand:
    def _write_configs(self, tmp_path):
        design = tmp_path / "design.toml"
        design.write_text(
            "[component.1]\nalpha = 1.1\nmu = 5\nsigma = 6\nn = 5\n\n"
            "[component.2]\nalpha = 2\nmu = 0\nsigma = 1\nn = 100\n\n"
            "[component.3]\nalpha = 1.2\nmu = 4\nsigma = 2\nn = 5\n"
        )
        est = tmp_path / "est.toml"
        est.write_text(
            "[estimator.sd]\nscore = sd\nbeta = 0.003\nalpha = 2\n"
        )
        return design, est

    def test_file_and_builtin_designs_agree(self, tmp_path):
        design, est = self._write_configs(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert dispatch(["simulate", "--design", str(design), "--estimators", str(est),
                         "--m", "20", "--seed", "11", "--out", str(a)]) == 0
        assert dispatch(["simulate", "--design", "design1", "--estimators", str(est),
                         "--m", "20", "--seed", "11", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        design, est = self._write_configs(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert dispatch(["simulate", "--design", str(design), "--estimators", str(est),
                         "--m", "16", "--seed", "4", "--out", str(a)]) == 0
        assert dispatch(["simulate", "--design", str(design), "--estimators", str(est),
                         "--m", "16", "--seed", "4", "--threads", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_design_file_is_usage_error(self, tmp_path, capsys):
        _, est = self._write_configs(tmp_path)
        code = dispatch(["simulate", "--design", "missing.toml", "--estimators", str(est),
                         "--m", "5", "--seed", "1", "--out", str(tmp_path / "t.csv")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "usage"


class TestTuneCommand:
    def test_grid_search_report(self, sample_file, tmp_path):
        out = tmp_path / "tune.json"
        code = dispatch(["tune", "--data", str(sample_file), "--family", "sd",
                         "--grid-beta", "0:0.01:0.005", "--alpha", "2.1",
                         "--replications", "20", "--seed", "3", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        validate_report(report)
        payload = report["payload"]
        assert len(payload["candidates"]) == 3
        assert 0 <= payload["chosen"] < 3
        assert all(c["mae"] > 0 for c in payload["candidates"])
        # on three points every candidate keeps its record, without a
        # corrected criterion
        three = tmp_path / "three.csv"
        three.write_text("0.1\n0.9\n0.5\n")
        code = dispatch(["tune", "--data", str(three), "--family", "sd",
                         "--grid-beta", "0,0.006", "--alpha", "2", "--seed", "3",
                         "--out", str(out)])
        assert code == 0
        candidates = json.loads(out.read_text())["payload"]["candidates"]
        assert [(c["error"], c["caic"]) for c in candidates] == [(None, None)] * 2

    def test_mae_and_choice_do_not_depend_on_seed_or_replications(self, sample_file,
                                                                   tmp_path):
        payloads = []
        for reps, seed in (("20", "3"), ("1", "3"), ("500", "-8")):
            out = tmp_path / f"tune-{reps}-{seed}.json"
            assert dispatch(["tune", "--data", str(sample_file), "--family", "sd",
                             "--grid-beta", "0:0.01:0.005", "--alpha", "2.1",
                             "--replications", reps, "--seed", seed, "--out", str(out)]) == 0
            payloads.append(json.loads(out.read_text())["payload"])
        maes = [[c["mae"] for c in p["candidates"]] for p in payloads]
        assert maes[1] == maes[0] and maes[2] == maes[0]
        assert payloads[1]["chosen"] == payloads[0]["chosen"] == payloads[2]["chosen"]

    @pytest.mark.parametrize("family_args", [
        ["--family", "sq", "--grid-q", "0.8,0.9"],
        ["--family", "sd", "--grid-beta", "0.003"],
        ["--family", "huber", "--grid-r", "1.345"],
    ])
    def test_scalar_shape_family_needs_alpha(self, family_args, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert dispatch(["rng", "--mu", "0", "--sigma", "1", "--alpha", "2",
                         "--n", "60", "--seed", "5", "--out", str(data)]) == 0
        out = tmp_path / "tune.json"
        code = dispatch(["tune", "--data", str(data), *family_args,
                         "--replications", "5", "--seed", "1", "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "usage"
        assert "--alpha" in err["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("bad_args", [
        ["--grid-q", ","],
        ["--grid-q", "1:0.5:0.1"],
        ["--grid-q", "abc"],
        ["--grid-q", "0.8", "--sizes", "a,b,c"],
        ["--grid-q", "0.8", "--sizes", "1,2"],
        ["--grid-q", "0.8", "--sizes", "7,100,2"],
        ["--grid-q", "0.8", "--replications", "0"],
    ], ids=["empty-grid", "descending-range", "non-numeric-grid", "non-numeric-sizes",
            "two-sizes", "sizes-not-summing-to-n", "no-replications"])
    def test_bad_numbers_are_usage_errors(self, bad_args, sample_file, tmp_path, capsys):
        out = tmp_path / "tune.json"
        args = ["--replications", "5", *bad_args]
        code = dispatch(["tune", "--data", str(sample_file), "--family", "sq",
                         "--alpha", "2.1", *args, "--seed", "1", "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "usage"
        assert not out.exists()

    def test_unknown_flag_usage_error(self, sample_file, tmp_path, capsys):
        code = dispatch(["tune", "--data", str(sample_file), "--family", "sd",
                         "--made-up-flag", "1", "--seed", "3",
                         "--out", str(tmp_path / "x.json")])
        assert code == 2


_FISHER_S = ["fisher", "--family", "s", "--mu", "0", "--alpha", "2"]
_SIMULATE = ["simulate", "--design", "design1", "--seed", "1"]


@pytest.mark.parametrize("command", [
    ["rng", "--mu", "0", "--sigma", "1", "--alpha", "2", "--n", "0", "--seed", "1"],
    [*_FISHER_S, "--sigma", "1", "--n", "0"],
    [*_FISHER_S, "--sigma", "-1", "--n", "10"],
    ["fit", "--score", "s", "--alpha", "2", "--mae-reps", "-3"],
    ["fit", "--score", "combined", "--alpha", "1.8,2,2.4", "--k", "1", "--t", "1",
     "--estimate-alpha"],
    ["fit", "--score", "sq", "--q", "1.5", "--alpha", "2"],
    ["fit", "--score", "sq", "--q", "0.8"],
    [*_SIMULATE, "--m", "1"],
    [*_SIMULATE, "--m", "4", "--threads", "0"],
    [*_SIMULATE, "--m", "4", "--threads", "-2"],
    [*_SIMULATE, "--m", "4", "--n2", "0"],
], ids=["rng-n", "fisher-n", "fisher-sigma", "fit-mae-reps", "fit-combined-shape", "fit-q", "fit-no-alpha",
        "simulate-m", "simulate-threads-0", "simulate-threads-negative", "simulate-n2"])
def test_unusable_numbers_are_usage_errors(command, sample_file, tmp_path, capsys):
    est = tmp_path / "est.ini"
    est.write_text("[estimator.s]\nscore = s\nalpha = 2\n")
    if command[0] == "fit":
        command = [*command, "--data", str(sample_file)]
    if command[0] == "simulate":
        command = [*command, "--estimators", str(est)]
    out = tmp_path / "out"
    code = dispatch([*command, "--out", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "usage"
    assert not out.exists()


# an estimator that cannot fit any replication, or that the section does
# not state as meant, is refused up front, not reported as a table of
# failures or fitted as another estimator; the message names the problem
@pytest.mark.parametrize("section, problem", [
    ("score = combined\nalpha = 1.8,2,2.4\nk = 1\nt = 1\nestimate_alpha = true\n",
     "combined"),
    ("score = sq\nq = 0.8\nalpha = 2\nestimate_alpa = true\n", "unknown key 'estimate_alpa'"),
    ("score = s\nmethod = objectiv\n", "method must be ee or objective, got 'objectiv'"),
    ("score = sq\nq = 0.8\nestimate_alpha = maybe\n", "estimate_alpha must be true or false"),
    ("score = sq\nq = 0.8\nalpha = 2\nestimate_alpha = 1\n",
     "estimate_alpha must be true or false"),
    ("score = s\nmethod = objective\nalpha = 2\n", "objective fits estimate the shape"),
    ("score = sd\nbeta = 0.006\nmethod = objective\nestimate_alpha = false\n",
     "objective fits estimate the shape"),
], ids=["combined-shape", "unknown-key", "unknown-method", "estimate-alpha-not-boolean",
        "estimate-alpha-number", "objective-alpha", "objective-fixed-shape"])
def test_unusable_estimator_sections_are_usage_errors(section, problem, tmp_path, capsys):
    est = tmp_path / "est.ini"
    est.write_text("[estimator.bad]\n" + section)
    out = tmp_path / "t.csv"
    code = dispatch([*_SIMULATE, "--m", "2", "--estimators", str(est), "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "usage"
    assert err["message"].startswith("estimator bad: ")
    assert problem in err["message"]
    assert not out.exists()


# a design component that does not state a usable EP law and size is
# refused up front, naming the component and the problem
@pytest.mark.parametrize("component, problem", [
    ("alpha = 2\nmu = 0\nsigma = 1\nn = 40\nweight = 2\n", "unknown key 'weight'"),
    ("alpha = 2\nmu = 0\nsigma = 1\n", "missing key 'n'"),
    ("alpha = 2\nmu = 0\nsigma = 1\nn = 5.7\n", "n must be an integer, got 5.7"),
    ("alpha = 2\nmu = 0\nsigma = 1\nn = true\n", "n must be an integer, got True"),
    ("alpha = 2\nmu = 0\nsigma = 1\nn = -3\n", "non-negative"),
    ("alpha = abc\nmu = 0\nsigma = 1\nn = 40\n", "alpha expects numbers, got 'abc'"),
    ("alpha = 2\nmu = 0\nsigma = 0\nn = 40\n", "sigma must be positive"),
    ("alpha = -1\nmu = 0\nsigma = 1\nn = 40\n", "alpha must be positive"),
    ("alpha = 2\nmu = inf\nsigma = 1\nn = 40\n", "must be finite"),
], ids=["unknown-key", "missing-key", "fractional-n", "boolean-n", "negative-n",
        "non-numeric-alpha", "zero-sigma", "negative-alpha", "infinite-mu"])
def test_unusable_design_components_are_usage_errors(component, problem, tmp_path, capsys):
    design, est = tmp_path / "design.ini", tmp_path / "est.ini"
    design.write_text("[component.1]\nalpha = 1.1\nmu = 5\nsigma = 6\nn = 3\n\n"
                      "[component.2]\n" + component + "\n"
                      "[component.3]\nalpha = 1.2\nmu = 4\nsigma = 2\nn = 3\n")
    est.write_text("[estimator.s]\nscore = s\nalpha = 2\n")
    out = tmp_path / "t.csv"
    code = dispatch(["simulate", "--design", str(design), "--estimators", str(est),
                     "--m", "2", "--seed", "1", "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "usage"
    assert err["message"].startswith(f"{design}: component 2")
    assert problem in err["message"]
    assert not out.exists()


# Report bytes of a fixed command set, run from one directory with
# relative paths because argv is part of every report.  Each entry is
# (output file, argv); the data file comes from the first command.
_ESTIMATORS_INI = (
    "[estimator.sd]\nscore = sd\nbeta = 0.006\nalpha = 2\n\n"
    "[estimator.sq-shape]\nscore = sq\nq = 0.8\nestimate_alpha = true\n\n"
    "[estimator.mle]\nscore = s\nmethod = objective\n\n"
    "[estimator.combined]\nscore = combined-huber\nalpha = 1.8,2,2.4\nk = 1\nt = 1.2\n"
)
_DESIGN_INI = (
    "[component.1]\nalpha = 1.1\nmu = 5\nsigma = 6\nn = 3\n\n"
    "[component.2]\nalpha = 2\nmu = 0\nsigma = 1\nn = 40\n\n"
    "[component.3]\nalpha = 1.2\nmu = 4\nsigma = 2\nn = 3\n"
)
_FISHER_AT = ["--mu", "0", "--sigma", "1.3", "--n", "115"]
_PINNED_COMMANDS = [
    ("data.csv", ["rng", "--mu", "3.12", "--sigma", "1.68", "--alpha", "2.1",
                  "--n", "114", "--seed", "99"]),
    ("fit-sd.json", ["fit", "--data", "data.csv", "--score", "sd", "--beta", "0.01",
                     "--alpha", "2.1"]),
    ("fit-sq-shape.json", ["fit", "--data", "data.csv", "--score", "sq", "--q", "0.8",
                           "--estimate-alpha"]),
    ("fit-huber-outliers.json", ["fit", "--data", "data.csv", "--score", "huber",
                                 "--r", "1.345", "--alpha", "2.1", "--add-outliers",
                                 "--mae-reps", "20"]),
    ("fit-combined.json", ["fit", "--data", "data.csv", "--score", "combined-huber",
                           "--alpha", "1.8,2.1,2.4", "--k", "1", "--t", "1.2"]),
    ("fit-s-quad.json", ["fit", "--data", "data.csv", "--score", "s", "--alpha", "2.1",
                         "--fisher", "quad"]),
    ("fit-objective.json", ["fit", "--data", "data.csv", "--score", "sq", "--q", "0.8",
                            "--method", "objective", "--ga-seed", "3"]),
    ("fisher-s.json", ["fisher", "--family", "s", "--alpha", "2.1", *_FISHER_AT,
                       "--dim", "3", "--mode", "closed"]),
    ("fisher-sq-quad.json", ["fisher", "--family", "sq", "--q", "0.8", "--alpha", "2.1",
                             *_FISHER_AT, "--dim", "3", "--mode", "quad"]),
    ("fisher-sq-low.json", ["fisher", "--family", "sq", "--q", "0.8", "--alpha", "1.2",
                            *_FISHER_AT, "--dim", "3"]),
    ("fisher-sd.json", ["fisher", "--family", "sd", "--beta", "0.006", "--alpha", "2.1",
                        *_FISHER_AT, "--dim", "3"]),
    ("fisher-huber.json", ["fisher", "--family", "huber", "--r", "1.345", "--alpha", "2.1",
                           *_FISHER_AT]),
    ("fisher-combined.json", ["fisher", "--family", "combined", "--alpha", "1.8,2.1,2.4",
                              "--k", "1", "--t", "1", *_FISHER_AT, "--mode", "closed"]),
    ("fisher-combined-huber.json", ["fisher", "--family", "combined-huber",
                                    "--alpha", "1.8,2.1,2.4", "--k", "1", "--t", "1",
                                    *_FISHER_AT]),
    ("tune-sd.json", ["tune", "--data", "data.csv", "--family", "sd",
                      "--grid-beta", "0:0.01:0.005", "--alpha", "2.1",
                      "--replications", "20", "--seed", "3"]),
    ("tune-sq.json", ["tune", "--data", "data.csv", "--family", "sq", "--grid-q", "0.7,0.9",
                      "--alpha", "2.1", "--replications", "20", "--seed", "3"]),
    ("tune-huber.json", ["tune", "--data", "data.csv", "--family", "huber",
                         "--grid-r", "1,1.5", "--alpha", "2.1", "--replications", "20",
                         "--seed", "3"]),
    ("tune-combined.json", ["tune", "--data", "data.csv", "--family", "combined",
                            "--alpha", "1.8,2.1,2.4", "--grid-k", "0.5,1",
                            "--grid-t", "1,1.5", "--replications", "10", "--seed", "3"]),
    ("tune-combined-huber.json", ["tune", "--data", "data.csv", "--family", "combined-huber",
                                  "--alpha", "1.8,2.1,2.4", "--grid-k", "0.5,1",
                                  "--grid-t", "1", "--replications", "10", "--seed", "3",
                                  "--sizes", "7,105,2"]),
    ("simulate-design1.csv", ["simulate", "--design", "design1", "--estimators", "est.ini",
                              "--m", "4", "--seed", "7"]),
    ("simulate-file.csv", ["simulate", "--design", "design.ini", "--estimators", "est.ini",
                           "--m", "3", "--seed", "8", "--n2", "30", "--threads", "2"]),
]
# the digests of fit-sd, fit-huber-outliers, fit-s-quad, tune-sd, tune-sq,
# tune-huber and both simulate tables were re-recorded when fixed-shape
# fits became Anderson-accelerated (values move in the last digits); those
# of fit-combined, fisher-combined and tune-combined-huber when the closed
# combined matrices took their incomplete gammas from regularized_gamma
# (entries and what is computed from them move in the last digits), and
# that of fisher-sq-low when the q-weighted closed form took shapes at or
# below 3/2 (its method, no element_errors, entries within the quadrature's
# error bounds); and all but data.csv when Gamma and log Gamma came from
# the standard library (estimates, entries, criteria and MAEs move at most
# 6e-15 relative, and the quadrature error bounds in their rounding-level
# digits, except in fit-objective and the simulate tables' objective and
# shape-estimating columns, which move by up to 4e-7); and those of
# fisher-huber, fit-huber-outliers and tune-huber when the Huber matrix
# became closed form (its method, no element_errors, and entries,
# variances and volumes within 1.3e-15 relative); and those of
# fit-objective and the simulate tables when the genetic optimizer's
# budget became fixed at 50 x 200 (their objective fits had run 24 x 40
# and 12 x 10; the other columns are unchanged), and of fit-huber-outliers
# when fit lost its --seed flag (its argv, and inputs.seed now null); and
# those of fit-objective and the simulate tables when the genetic optimizer
# began drawing a whole run's randomness up front (a new random stream:
# the objective fits and the simulate tables' mle rows move, the other
# columns are unchanged), and of fit-combined, fisher-combined and
# tune-combined-huber when the closed combined matrices took their
# incomplete gammas unregularized from incomplete_gammas (entries and what
# is computed from them move in the last digits); and those of fit-sd,
# fit-s-quad, fisher-sd and fisher-sq-quad when the likelihood matrices
# came from one pass of the exp-sinh rule (entries, and what is computed
# from them, move at most 7e-15 relative, and the error bounds are the
# rule's); and those of fit-sd, fit-s-quad, fisher-sd and fisher-sq-quad
# when element_errors became bounds on the reported entries (n times the
# per-observation ones, nothing else moves), and of fisher-combined-huber
# when quadrature of the Huber and combined matrices was retired (its argv
# lost --mode quad; method closed_form, no element_errors, entries and
# what derives from them within 1.5e-15 relative)
_PINNED_SHA256 = {
    "data.csv": "c258c72e568518d5508bae4529d4c34486bc45da2e3c51c50d83710e3b83c079",
    "fit-sd.json": "d058a0c533cbddbe1cff146c6a301fa647d989aa1bd04a967d8bd749c5ce5cdc",
    "fit-sq-shape.json": "3ddcf332660ec071d2113cb05bc9f55c68e392db2d3a2ed056ee0ea69bfad73e",
    "fit-huber-outliers.json": "5dc4e744fbeef873685b2e315f68dd6886ed2f7a607256d23c6a7c84fd2fc364",
    "fit-combined.json": "a4c98dfdee41e57b49cd4bc22fbce06918a567a1c1e3d3d7f1469c21a55c74a4",
    "fit-s-quad.json": "3126c558781cde0535dc3561af9235a73fe2f7666fcd90950f075fa524ec0e30",
    "fit-objective.json": "bcf9efe7ce9799923fff0c07dda2ebeb3e68b85d66e5091ce68b8406b8da9205",
    "fisher-s.json": "20a0b0560eadf55ee7c8628bdf14bdad50a7bd8dc9c123e56b7ab27855a0ac85",
    "fisher-sq-quad.json": "45ec8d7f116c3ad9f48b3a842366a6e4d6bab1aa8295bfd7129d7f136e6785f7",
    "fisher-sq-low.json": "ecfadb5075eab2993b9dd3ff5782a1a14848555c151325ed36d9f50fe65f1d42",
    "fisher-sd.json": "08db01c47579c9385d0e1780aaeb91cb5df42bb8514a887451f1b9d59ff4414c",
    "fisher-huber.json": "ded058bae3f7b3427d0602566511723a8ac0bbd1e59a39614c1842d7b8a471d5",
    "fisher-combined.json": "13d636d48b4493c135b140acc030f189c7ebc9977ea210fb7e99b76b56e14276",
    "fisher-combined-huber.json": "d35760b8e83910800f1f8eabe087f1c550fc956848b94dc7deaed8ff6e7e99db",
    "tune-sd.json": "eede957a86c2d503023037532af1bd1de683f336aae9ba1c62f012018af50505",
    "tune-sq.json": "6846f6c07f7ec6d72c79bd054752c81b91e93d54fb70d3a763f3d7e7bce891f0",
    "tune-huber.json": "8b73fa908bf6d10597ba654da91082b5dd4ec891e4d38e1deaa4b16cd6ca57f4",
    "tune-combined.json": "3c36c3f20ef37b2fa6a123fd3f093e54d1dd1eebe1ca43ad4b128900604e2a3b",
    "tune-combined-huber.json": "aac9e697fba0985415e5db44e3a3890c6355f1eb68e21131c5a74cb0eb514174",
    "simulate-design1.csv": "a617d845c080f8be7dfa29d9ee209adc313fafcbec9df478a7b378106c609bc0",
    "simulate-file.csv": "d45008b008196540488a2ac260ff5fb518a25de730d650266c48c2ba6eb38d39",
}


class TestPinnedReports:
    def test_report_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("est.ini").write_text(_ESTIMATORS_INI)
        Path("design.ini").write_text(_DESIGN_INI)
        digests = {}
        for out, args in _PINNED_COMMANDS:
            assert dispatch([*args, "--out", out]) == 0, out
            digests[out] = hashlib.sha256(Path(out).read_bytes()).hexdigest()
        assert digests == _PINNED_SHA256
