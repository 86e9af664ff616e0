"""Command-line surface: ingestion, outlier handling, dispatch, report
schema and byte-level reproducibility."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

    def test_objective_fit_requires_ga_seed(self, sample_file, tmp_path, capsys):
        code = dispatch(["fit", "--data", str(sample_file), "--score", "sq",
                         "--q", "0.8", "--method", "objective",
                         "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_objective_fit_runs(self, sample_file, tmp_path):
        out = tmp_path / "obj.json"
        code = dispatch(["fit", "--data", str(sample_file), "--score", "sd",
                         "--beta", "0.01", "--method", "objective",
                         "--ga-seed", "3", "--ga-pop", "24", "--ga-gens", "40",
                         "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["payload"]["alpha_estimated"] is True
        assert abs(report["payload"]["estimates"]["alpha"] - 2.1) < 0.8
        assert report["payload"]["family"] == "MDLE"
        assert report["payload"]["beta"] == 0.01

    def test_overflowed_fisher_matrix_still_reports(self, tmp_path, capfd):
        # on this contaminated sample the sq objective fit lands at shape
        # 0.574, where the location and (sigma, mu) information integrals
        # diverge; the quadrature used to overflow there.  The fit reports
        # them as infinite, mu gets variance 0 and sigma, alpha the
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
        assert fisher["method"] == "quadrature-partial"
        assert [row[0] for row in fisher["entries"]] == ["inf", "inf", "inf"]
        assert fisher["entries"][0][1:] == [0.0, 0.0]
        assert fisher["psd"]["min_eigenvalue"] == "nan"
        assert payload["volume"] == "inf"
        raw = payload["variances"]["raw"]
        assert raw[0] == 0.0
        assert raw[1:] == pytest.approx([1.8312548146e-3, 1.361105524e-4], rel=1e-8)
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
