"""One benchmark process: set up a workload, run it, check its outputs.

Started by ``run.py`` in one of three modes:

* ``setup``   - import, generate and write the inputs, make one warm-up
  call, report the set-up time and the digests of inputs and warm-up;
* ``measure`` - set up, then issue a fixed number of requests one at a
  time (closed loop, one client): as many as take about ``--seconds``
  on the reference host, so every run of one seed does the same work.
  A host probe is timed before each call and after the last, so each
  call's time can be corrected for the host's speed at that moment
  (README.md, "Host correction").
  Every output is checked after timing.  With ``--trace 1``, issue
  exactly the first ``MIN_REQUESTS`` requests traced and unprobed
  instead, so the per-layer totals cover the same work on every commit;
* ``replay``  - set up, then re-issue the first ``--items`` requests
  untraced, so their output bytes and wall time can be compared.

Requests go through ``epfit.cli.dispatch``, the command line's entry
point, in process.  Paths in argv are relative to the process's own work
directory, so the JSON reports (which echo argv) are byte-comparable
between processes.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import json
import math
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

# Requests in a traced run, and the fewest an untraced run makes: the
# tail latency then has ten samples beyond it and sits at or above the
# median, and the outputs of these requests give the run's digest.
MIN_REQUESTS = 21

# Requests per second of ``--seconds`` in an untraced run, set so that a
# run takes about ``--seconds`` on the reference host (2-vCPU Xeon KVM
# guest).  A fixed count makes every run of one seed do the same work,
# failures included.  A run that is still short of its count after
# TIME_CAP x ``--seconds`` stops there, so a much slower commit still
# ends within the time a run is given.
REQUEST_RATE = {"mc_fixed": 1.0, "mc_shape": 1.1, "analysis": 0.85}
TIME_CAP = 2.5

# Host probe: PROBE_REPEATS timings of PROBE_SWEEPS weighted-location
# sweeps on a fixed array, the fastest kept.  It does not use epfit, so
# a change to epfit does not move it.  A call's host factor is the probe
# time around it over PROBE_REFERENCE_S, the probe's time on the
# reference host when nothing else runs on its cores.
PROBE_SWEEPS = 150
PROBE_REPEATS = 3
PROBE_REFERENCE_S = 0.0022
# A workload's calls slow down as the probe's slowdown to this power.
# Fitted on the reference host over ten runs each (log request time on
# log host factor): mc_fixed 1.06 (r = 0.996), analysis 0.71
# (r = 0.956; 0.91 when paired by seed, README.md "Host correction").
# mc_shape is not fitted and takes analysis's value.
HOST_SENSITIVITY = {"mc_fixed": 1.0, "mc_shape": 0.7, "analysis": 0.7}
# The same for a set-up, divided by the measure process's mean host
# factor (a set-up is too short to bracket with probes of its own).
# Fitted over ten runs each: 0.71 on mc_fixed, 0.94 on analysis.
SETUP_SENSITIVITY = 0.7

# Criterion-8 tolerance on the summed score vector of a converged EE fit.
STATIONARITY_TOL = 1e-6

MC_FIXED_COLUMNS = """\
[estimator.s]
score = s
alpha = 2
[estimator.huber]
score = huber
r = 1.5
alpha = 2
[estimator.sq]
score = sq
q = 0.8
alpha = 2
[estimator.sd]
score = sd
beta = 0.003
alpha = 2
"""
# acceptance criteria 2 (design 1) and 3 (design 4)
MC_SHAPE_SQ = "[estimator.mqle]\nscore = sq\nq = 0.625\nestimate_alpha = true\n"
MC_SHAPE_SD = "[estimator.mdle]\nscore = sd\nbeta = 0.006\nestimate_alpha = true\n"
WARMUP_COLUMN = "[estimator.sd]\nscore = sd\nbeta = 0.003\nalpha = 2\n"

ANALYSIS_POOL = 256
ANALYSIS_BETA = "0.006"
ANALYSIS_Q = "0.8"
TUNE_GRID = "0.002:0.01:0.002"
TUNE_CANDIDATES = 5
TUNE_REPLICATIONS = 500


# what each request reports to run.py
ITEM_KEYS = ("wall", "wall_c", "fits", "reps", "datasets", "fit_samples", "failed",
             "budget_limited", "cli_fits", "digest")


def result_stem(workload: str, seed: int, trace: int) -> str:
    """Path, without suffix, of a run's files under the results directory."""
    return os.path.join(WORK, "results", f"{workload}-seed{seed}-trace{trace}")


def expected_cells(ini_text: str) -> dict:
    """Estimator label -> parameters its simulation table rows cover."""
    parser = configparser.ConfigParser()
    parser.read_string(ini_text)
    return {section.split(".", 1)[1]:
            ("mu", "sigma", "alpha") if parser[section].getboolean("estimate_alpha", False)
            else ("mu", "sigma")
            for section in parser.sections()}


def requests_for(workload: str, seconds: float) -> int:
    return max(MIN_REQUESTS, round(seconds * REQUEST_RATE[workload]))


def host_probe() -> float:
    """Seconds for a fixed numpy and Python loop, at the host's current speed."""
    import numpy as np

    x = np.linspace(-3.0, 3.0, 110)
    best = math.inf
    for _ in range(PROBE_REPEATS):
        t = time.perf_counter()
        mu, s = 0.1, 1.0
        for _ in range(PROBE_SWEEPS):
            w = np.exp(-0.5 * np.abs((x - mu) / s) ** 1.5)
            sw = float(np.sum(w))
            mu = float(np.sum(w * x)) / sw
            s = math.sqrt(float(np.sum(w * (x - mu) ** 2)) / sw)
            acc = 0.0
            for v in range(40):
                acc += v * mu
        best = min(best, time.perf_counter() - t)
    return best


def host_factor(before: float, after: float, sensitivity: float) -> float:
    """What a call between two probes is divided by: the mean probe
    time over the reference, to the power of the work's sensitivity.
    Above 1 when the host runs slow."""
    return ((before + after) / (2.0 * PROBE_REFERENCE_S)) ** sensitivity


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class Workload:
    """A seeded stream of requests to the epfit command line."""

    def __init__(self, seed: int, dispatch):
        self.seed = seed
        self.dispatch = dispatch
        self.walls = []     # wall time of every call, in order
        self.probes = None  # a list when calls are probed

    def item_seed(self, key) -> int:
        """The epfit seed of one call, drawn from the workload seed."""
        return random.Random(f"{self.seed}/{key}").randrange(1, 2**31)

    def call(self, argv: list[str]) -> tuple[int, int]:
        """Exit code and index in ``walls`` of one CLI call."""
        if self.probes is not None:
            self.probes.append(host_probe())
        t = time.perf_counter()
        rc = self.dispatch(argv)
        self.walls.append(time.perf_counter() - t)
        return rc, len(self.walls) - 1

    def timed(self, items: list[dict], sensitivity: float = 1.0) -> None:
        """Fill in each item's raw and host-corrected times."""
        if self.probes is not None:
            probes = self.probes + [host_probe()]
            factors = [host_factor(a, b, sensitivity) for a, b in zip(probes, probes[1:])]
        else:
            factors = [1.0] * len(self.walls)
        for it in items:
            it["wall"] = sum(self.walls[j] for j in it["calls"])
            it["wall_c"] = sum(self.walls[j] / factors[j] for j in it["calls"])
            it["fit_samples"] = ([it["wall_c"] / it["fits"]] if it["fit_calls"] is None
                                 else [self.walls[j] / factors[j] for j in it["fit_calls"]])


class McWorkload(Workload):
    """CLI ``simulate`` calls on the reference designs.

    Request i is the block of calls ``plans[i % len(plans)]``, one call
    per (design, estimator file), each call with its own master seed.
    Every block costs about the same per fit, so the per-request fit
    times form one cluster, not one per design.
    """

    def __init__(self, seed, dispatch, files: dict, plans: list, m: int):
        super().__init__(seed, dispatch)
        self.files = files
        self.plans = plans
        self.m = m
        self.cells = {name: expected_cells(text) for name, text in files.items()}

    def prepare(self) -> bytes:
        blob = b""
        for name, text in self.files.items():
            write_text(name, text)
            blob += name.encode() + text.encode()
        write_text("warmup.ini", WARMUP_COLUMN)
        return blob

    def warm_up(self) -> bytes:
        rc = self.dispatch(["simulate", "--design", "design1", "--estimators", "warmup.ini",
                            "--m", "2", "--seed", "1", "--threads", "1", "--out", "warmup.csv"])
        if rc != 0:
            raise RuntimeError(f"warm-up simulate call failed with exit code {rc}")
        return read_bytes("warmup.csv")

    def run_item(self, i: int) -> dict:
        digest = hashlib.sha256()
        calls = []
        fits = failed = 0
        tables = []
        for k, (design, est_file) in enumerate(self.plans[i % len(self.plans)]):
            out = f"out/{i:05d}-{k}.csv"
            seed = self.item_seed(f"{i}.{k}")
            rc, j = self.call(["simulate", "--design", f"design{design}",
                               "--estimators", est_file, "--m", str(self.m),
                               "--seed", str(seed), "--threads", "1", "--out", out])
            calls.append(j)
            labels = self.cells[est_file]
            fits += len(labels) * self.m
            digest.update(f"rc={rc}\n".encode())
            if rc != 0:
                failed += len(labels) * self.m
                continue
            body = read_bytes(out)
            digest.update(body)
            rows = list(csv.DictReader(io.StringIO(body.decode())))
            per_column = {r["estimator"]: int(r["failures"]) for r in rows}
            # a column whose every replication raised writes no rows
            failed += sum(per_column.get(label, self.m) for label in labels)
            tables.append((design, est_file, out))
        return dict(calls=calls, fit_calls=None, fits=fits, reps=fits, datasets=fits,
                    failed=failed, budget_limited=0, cli_fits=0, tables=tables,
                    digest=digest.hexdigest())

    def check(self, items: list[dict]) -> list[str]:
        from epfit.simulate import reference_design

        problems = []
        for i, item in enumerate(items):
            for design, est_file, out in item["tables"]:
                under = reference_design(design).underlying
                truth = {"mu": under.mu, "sigma": under.sigma, "alpha": under.alpha}
                rows = list(csv.DictReader(io.StringIO(read_bytes(out).decode())))
                expected = {(label, param) for label, params in self.cells[est_file].items()
                            for param in params}
                found = [(r["estimator"], r["parameter"]) for r in rows]
                if sorted(found) != sorted(expected):
                    problems.append(f"request {i} {out}: rows {sorted(found)}, "
                                    f"expected one for each of {sorted(expected)}")
                for r in rows:
                    mean, var, mse = (float(r[k]) for k in ("mean", "var_hat", "mse_hat"))
                    where = f"request {i} {out} {r['estimator']}/{r['parameter']}"
                    if not all(math.isfinite(v) for v in (mean, var, mse)):
                        problems.append(f"{where}: non-finite cell")
                        continue
                    decomposed = var + (mean - truth[r["parameter"]]) ** 2
                    if not math.isclose(mse, decomposed, rel_tol=1e-9, abs_tol=1e-15):
                        problems.append(f"{where}: mse {mse!r} != var + bias^2 {decomposed!r}")
        return problems


class AnalysisWorkload(Workload):
    """One analyst's session per contaminated sample.

    The samples are drawn by the benchmark itself (inverse of the EP
    gamma representation, numpy only) from the four reference designs,
    so epfit sees nothing but the data files.
    """

    def prepare(self) -> bytes:
        import numpy as np
        from epfit.simulate import reference_design

        rng = np.random.default_rng(self.seed)
        blob = hashlib.sha256()
        for i in range(ANALYSIS_POOL):
            design = reference_design(i % 4 + 1)
            parts = []
            for c in design.components:
                g = rng.standard_gamma(1.0 / c.alpha, size=c.n)
                sign = np.where(rng.random(c.n) < 0.5, -1.0, 1.0)
                parts.append(c.mu + c.sigma * sign * g ** (1.0 / c.alpha))
            text = "".join(repr(float(v)) + "\n" for v in np.concatenate(parts))
            write_text(f"data/{i:03d}.csv", text)
            blob.update(text.encode())
        return blob.digest()

    def warm_up(self) -> bytes:
        rc = self.dispatch(["fit", "--data", "data/000.csv", "--score", "sd", "--beta",
                            ANALYSIS_BETA, "--alpha", "2", "--out", "warmup.json"])
        if rc != 0:
            raise RuntimeError(f"warm-up fit call failed with exit code {rc}")
        return read_bytes("warmup.json")

    def run_item(self, i: int) -> dict:
        data = f"data/{i % ANALYSIS_POOL:03d}.csv"
        s = str(self.item_seed(i))
        outs = [f"out/{i:05d}-ee.json", f"out/{i:05d}-obj.json", f"out/{i:05d}-tune.json"]
        calls = [
            ["fit", "--data", data, "--score", "sd", "--beta", ANALYSIS_BETA,
             "--estimate-alpha", "--out", outs[0]],
            ["fit", "--data", data, "--score", "sq", "--q", ANALYSIS_Q, "--method", "objective",
             "--ga-seed", s, "--out", outs[1]],
            ["tune", "--data", data, "--family", "sd", "--grid-beta", TUNE_GRID, "--alpha", "2",
             "--replications", str(TUNE_REPLICATIONS), "--seed", s, "--out", outs[2]],
        ]
        results = [self.call(argv) for argv in calls]
        digest = hashlib.sha256()
        failed = budget_limited = 0
        for (rc, _), out in zip(results, outs):
            digest.update(f"rc={rc}\n".encode())
            if rc == 0:
                digest.update(read_bytes(out))
        for (rc, _), out in zip(results[:2], outs[:2]):
            if rc != 0:
                failed += 1
            elif not json.loads(read_bytes(out))["payload"]["converged"]:
                budget_limited += 1
        if results[2][0] != 0:
            failed += TUNE_CANDIDATES
        else:
            tuned = json.loads(read_bytes(outs[2]))["payload"]["candidates"]
            failed += sum(c["error"] is not None for c in tuned)
        return dict(calls=[j for _, j in results], fit_calls=[j for _, j in results[:2]],
                    fits=2 + TUNE_CANDIDATES, reps=TUNE_CANDIDATES * TUNE_REPLICATIONS,
                    datasets=1, failed=failed,
                    budget_limited=budget_limited, cli_fits=2, data=data,
                    out=[out for (rc, _), out in zip(results, outs) if rc == 0],
                    ee_ok=results[0][0] == 0, digest=digest.hexdigest())

    def check(self, items: list[dict]) -> list[str]:
        import numpy as np
        from epfit.cli import ingest, validate_report
        from epfit.epd import EpdParams
        from epfit.scores import psi_vector

        problems = []
        for i, item in enumerate(items):
            for out in item["out"]:
                try:
                    validate_report(json.loads(read_bytes(out)))
                except ValueError as exc:
                    problems.append(f"request {i} {out}: {exc}")
            if not item["ee_ok"]:
                continue
            # EE route only: objective fits always report converged and
            # sit on cusps at alpha < 1 (README.md, Correctness checks)
            payload = json.loads(read_bytes(item["out"][0]))["payload"]
            if not payload["converged"]:
                continue
            est = payload["estimates"]
            p = EpdParams(est["mu"], est["sigma"], est["alpha"])
            resid = np.array(psi_vector(ingest(item["data"]), p, beta=float(ANALYSIS_BETA)))
            worst = float(np.max(np.abs(resid.sum(axis=1))))
            if not worst <= STATIONARITY_TOL:
                problems.append(f"request {i}: converged EE fit has max |sum psi| {worst:.3g}")
        return problems


def make_workload(name: str, seed: int, dispatch) -> Workload:
    if name == "mc_fixed":
        # designs 1-4, four fixed-shape columns each
        return McWorkload(seed, dispatch, {"fixed.ini": MC_FIXED_COLUMNS},
                          [[(d, "fixed.ini") for d in (1, 2, 3, 4)]], m=40)
    if name == "mc_shape":
        # the two columns' fits cost alike (0.40 s and 0.45 s mean), so
        # they alternate, one call per request, m = 2 (simulate's least)
        return McWorkload(seed, dispatch, {"shape_sq.ini": MC_SHAPE_SQ,
                                           "shape_sd.ini": MC_SHAPE_SD},
                          [[(1, "shape_sq.ini")], [(4, "shape_sd.ini")]], m=2)
    if name == "analysis":
        return AnalysisWorkload(seed, dispatch)
    raise ValueError(f"unknown workload {name!r}")


def stationarity_problems(ee_fits) -> list[str]:
    """max |sum psi| over every converged EE fit the wrappers saw.

    psi_vector covers the plain, q-weighted and distorted objectives;
    the Huber score's location and scale equations are the same two
    sums with the Huber score in place of the plain one.
    """
    import numpy as np
    from epfit.scores import Distorted, Huber, Plain, QWeighted, psi_vector, score

    problems = []
    for k, (data, family, result) in enumerate(ee_fits):
        if not result.converged:
            continue
        data = np.asarray(data, dtype=float)
        p = result.params
        if isinstance(family, Huber):
            s = score(family, data, p)
            y = (data - p.mu) / p.sigma
            sums = np.array([np.sum(s), np.sum(s * y - 1.0)]) / p.sigma
        elif isinstance(family, (Plain, QWeighted, Distorted)):
            kwargs = {"q": family.q} if isinstance(family, QWeighted) else (
                {"beta": family.beta} if isinstance(family, Distorted) else {})
            sums = np.array(psi_vector(data, p, **kwargs)).sum(axis=1)
            if not result.estimated_alpha:
                sums = sums[:2]
        else:
            continue
        worst = float(np.max(np.abs(sums)))
        if not worst <= STATIONARITY_TOL:
            problems.append(f"traced EE fit {k} ({type(family).__name__}): "
                            f"max |sum psi| {worst:.3g}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "measure", "replay"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--items", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from epfit import cli

    if os.path.realpath(os.path.dirname(os.path.dirname(cli.__file__))) != \
            os.path.realpath(os.path.join(ROOT, "src")):
        raise SystemExit(f"epfit imported from {cli.__file__}, not from this checkout")

    os.makedirs(args.workdir)
    os.chdir(args.workdir)
    os.makedirs("data")
    os.makedirs("out")
    workload = make_workload(args.workload, args.seed, cli.dispatch)
    inputs = workload.prepare()
    warm = workload.warm_up()
    ready = time.monotonic()
    report = {"setup_s": ready - args.t0, "inputs_sha256": sha256(inputs),
              "warmup_sha256": sha256(warm)}

    if args.mode == "measure":
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)

            def traced_dispatch(argv, _dispatch=cli.dispatch):
                idx = tracer.begin("cli.dispatch")
                try:
                    return _dispatch(argv)
                finally:
                    tracer.end(idx)

            workload.dispatch = traced_dispatch
        else:
            workload.probes = []
        n = MIN_REQUESTS if args.trace else requests_for(args.workload, args.seconds)
        items = []
        start = time.monotonic()
        while len(items) < n and (len(items) < MIN_REQUESTS
                                  or time.monotonic() - start < TIME_CAP * args.seconds):
            items.append(workload.run_item(len(items)))
        loop_wall = time.monotonic() - start
        workload.timed(items, HOST_SENSITIVITY[args.workload])
        if workload.probes:
            report["probe_factor_mean"] = (sum(workload.probes) / len(workload.probes)
                                           / PROBE_REFERENCE_S)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        problems = workload.check(items)
        if tracer is not None:
            tracer.uninstall()
            problems += stationarity_problems(tracer.ee_fits)
            attempted = sum(it["fits"] for it in items)
            seen = tracer.counts["estimate.fits"]
            if seen < attempted:
                problems.append(f"wrappers saw {seen} fits of {attempted} attempted")
            report["layers"] = tracing.layer_metrics(tracer)
            tracer.write(result_stem(args.workload, args.seed, 1) + "-spans.json.gz")
        report.update(loop_wall_s=loop_wall, peak_rss_mb=peak_kb / 1024.0, problems=problems)
    elif args.mode == "replay":
        items = [workload.run_item(i) for i in range(args.items)]
        workload.timed(items)
    else:
        items = []

    report["items"] = [{k: it[k] for k in ITEM_KEYS} for it in items]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
