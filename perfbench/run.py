"""epfit benchmark: one workload per invocation.

    python3 perfbench/run.py --workload mc_fixed --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each workload runs in fresh processes
(see ``workload.py``): five set-up-only processes, the measured process
and a replay process that re-issues the first requests untraced and must
reproduce their output bytes.  The measured process issues a fixed
number of requests, about ``--seconds`` worth; a traced run issues a
smaller fixed set.  Time metrics use host-corrected call times.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics.  The exit code is 0 only when every correctness and
determinism check passed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from tracing import LAYER_METRICS
from workload import MIN_REQUESTS, SETUP_SENSITIVITY, WORK, result_stem

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "epfit")

WORKLOADS = ("mc_fixed", "mc_shape", "analysis")
SETUP_PROCESSES = 5
# untraced runs replay requests until this much measured time is covered
REPLAY_SECONDS = 2.0
# a run must end within 180 s
DEADLINE_S = 170.0
LEDGER_ITEMS = 64

END_TO_END = (
    ("setup_s", "s"),
    ("reps_per_s", "1/s"),
    ("datasets_per_s", "1/s"),
    ("fit_s_p50", "s"),
    ("fit_s_tail", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def run_child(mode: str, args, run_dir: str, deadline: float, **extra) -> dict:
    """Start workload.py in a fresh process and return its JSON report."""
    tag = f"{mode}{extra.pop('index', '')}"
    argv = [sys.executable, os.path.join(HERE, "workload.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--workdir", os.path.join(run_dir, tag)]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    log_path = os.path.join(run_dir, f"{tag}.log")
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.monotonic()
        argv += ["--t0", repr(t0)]
        try:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=log, text=True,
                                  timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{tag} process exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        with open(log_path, encoding="utf-8") as fh:
            tail = "".join(fh.readlines()[-20:])
        raise BenchError(f"{tag} process failed with exit code {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond
    it, that percentile, and the sample count."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        raise BenchError(f"only {n} latency samples; need 11 for a tail")
    return s[n - 11], 100.0 * (n - 10) / n, n


def tree_files(top: str):
    """(relative path, bytes) of the files under top, in a fixed order."""
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                yield os.path.relpath(path, top), fh.read()


def tree_digest(top: str) -> str:
    digest = hashlib.sha256()
    for rel, body in tree_files(top):
        digest.update(rel.encode() + b"\0" + body)
    return digest.hexdigest()


def net_source_lines(top: str) -> int:
    """Non-blank lines that are not comment-only, over the .py files."""
    return sum(1 for rel, body in tree_files(top) if rel.endswith(".py")
               for line in body.decode("utf-8").splitlines()
               if line.strip() and not line.strip().startswith("#"))


def environment(seed: int, net_lines: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed, "net_source_lines": net_lines}


def check_ledger(key: str, digests: list[str]) -> list[str]:
    """Compare this run's per-request digests with earlier runs of the
    same source, workload and seed in this checkout, then record them."""
    path = os.path.join(WORK, "digests.json")
    ledger = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            ledger = json.load(fh)
    known = ledger.setdefault(key, {})
    problems = [f"request {i}: output digest differs from an earlier run"
                for i, d in enumerate(digests[:LEDGER_ITEMS]) if known.get(str(i), d) != d]
    for i, d in enumerate(digests[:LEDGER_ITEMS]):
        known.setdefault(str(i), d)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh)
    os.replace(tmp, path)
    return problems


def measure(args) -> tuple[dict, dict, list[str]]:
    """Run the processes of one benchmark run; return metrics, the full
    record and the problems found."""
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    run_dir = os.path.join(WORK, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        setups = [run_child("setup", args, run_dir, deadline, index=i)
                  for i in range(SETUP_PROCESSES)]
        main = run_child("measure", args, run_dir, deadline,
                         seconds=args.seconds, trace=args.trace)
        items = main["items"]
        if args.trace:
            replay_n = len(items)
        else:
            covered, replay_n = 0.0, 0
            while replay_n < len(items) and covered < REPLAY_SECONDS:
                covered += items[replay_n]["wall"]
                replay_n += 1
        replay = run_child("replay", args, run_dir, deadline, items=replay_n)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = list(main["problems"])
    processes = setups + [main, replay]
    for key in ("inputs_sha256", "warmup_sha256"):
        if len({p[key] for p in processes}) != 1:
            problems.append(f"{key} differs between processes of one run")
    for i, (a, b) in enumerate(zip(items, replay["items"])):
        if a["digest"] != b["digest"]:
            problems.append(f"request {i}: replayed output bytes differ")
    # the inputs depend on the benchmark's own code as well as the seed
    src_digest = tree_digest(SRC)
    digests = [it["digest"] for it in items]
    problems += check_ledger(f"{src_digest}:{tree_digest(HERE)}:{args.workload}:{args.seed}",
                             digests)

    wall = sum(it["wall"] for it in items)
    wall_c = sum(it["wall_c"] for it in items)
    fits = sum(it["fits"] for it in items)
    failed = sum(it["failed"] for it in items)
    cli_fits = sum(it["cli_fits"] for it in items)
    samples = [s for it in items for s in it["fit_samples"]]
    tail, pct, count = tail_latency(samples)
    # traced runs are not probed
    probe_factor = main.get("probe_factor_mean", 1.0)
    setup_raw = statistics.median(p["setup_s"] for p in processes)
    e2e = {
        "setup_s": setup_raw / probe_factor ** SETUP_SENSITIVITY,
        "reps_per_s": sum(it["reps"] for it in items) / wall_c,
        "datasets_per_s": sum(it["datasets"] for it in items) / wall_c,
        "fit_s_p50": statistics.median(samples),
        "fit_s_tail": tail,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed, net_source_lines(SRC)),
        "source_sha256": src_digest,
        "requests": len(items),
        "measured_wall_s": wall,
        "corrected_wall_s": wall_c,
        "uncorrected": {"setup_s": setup_raw,
                        "reps_per_s": sum(it["reps"] for it in items) / wall,
                        "datasets_per_s": sum(it["datasets"] for it in items) / wall},
        "loop_wall_s": main["loop_wall_s"],
        "fits_attempted": fits,
        "fits_failed": failed,
        "fail_frac": failed / fits,
        "budget_limited_frac": (sum(it["budget_limited"] for it in items) / cli_fits
                                if cli_fits else None),
        "fit_s_tail_percentile": pct,
        "fit_s_samples": count,
        "setup_samples_s": [p["setup_s"] for p in processes],
        "probe_factor_mean": probe_factor,
        "correction_mean": wall / wall_c,
        "outputs_sha256": hashlib.sha256(
            "".join(digests[:MIN_REQUESTS]).encode()).hexdigest(),
        "replayed_requests": replay_n,
        "request_s": [it["wall_c"] for it in items],
        "request_s_uncorrected": [it["wall"] for it in items],
        "fit_s": samples,
        "end_to_end": e2e,
        "problems": problems,
    }
    if args.trace:
        layers = dict(main["layers"])
        layers["trace.overhead_s"] = wall - sum(it["wall"] for it in replay["items"])
        record["per_layer"] = layers
    with open(result_stem(args.workload, args.seed, args.trace) + ".json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return e2e, record, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: no epfit source at {os.path.relpath(SRC)}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        e2e, record, problems = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests {record['requests']}  fits {record['fits_attempted']}")
    for metric, unit in () if args.trace else END_TO_END:
        note = ""
        if metric == "setup_s":
            note = (f"  (median of {len(record['setup_samples_s'])} set-ups; "
                    f"uncorrected {record['uncorrected'][metric]:.6g})")
        elif metric in record["uncorrected"]:
            note = f"  (uncorrected {record['uncorrected'][metric]:.6g})"
        elif metric == "fit_s_tail":
            note = f"  (p{record['fit_s_tail_percentile']:.1f} of {record['fit_s_samples']} samples)"
        print(f"  {metric:<22} {e2e[metric]:.6g} {unit}{note}")
    print(f"  {'fail_frac':<22} {record['fail_frac']:.6g} ratio  "
          f"({record['fits_failed']}/{record['fits_attempted']} fits raised)")
    blf = record["budget_limited_frac"]
    print(f"  {'budget_limited_frac':<22} "
          + ("n/a  (simulate tables do not report convergence)" if blf is None
             else f"{blf:.6g} ratio  (of CLI fit reports)"))
    if args.trace:
        for metric, unit in LAYER_METRICS + (("trace.overhead_s", "s"),):
            print(f"  {metric:<32} {record['per_layer'][metric]:.6g} {unit}")
    print("  environment " + json.dumps(record["environment"]))
    print(f"  outputs_sha256 {record['outputs_sha256']}  (first {MIN_REQUESTS} requests)")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    if args.trace:
        units = dict(LAYER_METRICS + (("trace.overhead_s", "s"),))
        metrics = {k: {"value": v, "unit": units[k]} for k, v in record["per_layer"].items()}
    else:
        units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": not problems, "attempted": record["fits_attempted"],
                      "failed": record["fits_failed"], "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
