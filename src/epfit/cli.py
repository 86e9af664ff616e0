"""Command-line surface: CSV ingestion, config parsing, subcommand
dispatch and JSON/CSV report emission.

Subcommands: fit, tune, simulate, rng, fisher.  Every randomized
command requires an explicit seed, and seeded commands write
byte-identical reports across reruns (timing is opt-in via --timings
precisely so the default output stays reproducible).  Failures emit a
machine-readable JSON error: exit 2 for usage and input problems, 1
for computation failures.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import sys
import time
from importlib import resources

import numpy as np

from . import epd, simulate
from .fisher import FisherMatrix, fisher_for_family, psd_check, variances
from .scores import CombinedHuber, CombinedPlain, Distorted, Huber, Plain, QWeighted, ShapeTriple
from .select import evaluate_fit, expected_mae, tune

__all__ = [
    "IngestError",
    "UsageError",
    "ingest",
    "add_outliers",
    "load_report_schema",
    "validate_report",
    "dispatch",
    "main",
]

SCHEMA_VERSION = "1"

# the score families by --score name; a family's flags are its tuning_names
_FAMILIES = {"s": Plain, "huber": Huber, "combined": CombinedPlain,
             "combined-huber": CombinedHuber, "sq": QWeighted, "sd": Distorted}
# every tuning constant, in the order r, k, t, q, beta
_TUNING_NAMES = tuple(dict.fromkeys(n for cls in _FAMILIES.values() for n in cls.tuning_names))
# the keys of an [estimator.*] section: the fit flags it may set
_ESTIMATOR_KEYS = ("score", "method", "alpha", "estimate_alpha", *_TUNING_NAMES)
# report label of an objective-route fit, by --score
_OBJECTIVE_LABELS = {"s": "MLE", "sq": "MqLE", "sd": "MDLE"}


class IngestError(ValueError):
    """Malformed data file."""


class UsageError(ValueError):
    """Bad flags, missing files or malformed configuration."""


def ingest(path: str) -> np.ndarray:
    """Read one numeric value per line; a single non-numeric first line
    is treated as a header.  Non-finite values are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read data file {path}: {exc}") from exc
    values = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            val = float(text)
        except ValueError:
            if lineno == 1:
                continue
            raise IngestError(f"{path}: unparseable value at line {lineno}: {text!r}") from None
        if not math.isfinite(val):
            raise IngestError(f"{path}: non-finite value at line {lineno}")
        values.append(val)
    if not values:
        raise IngestError(f"{path}: no numeric data")
    return np.array(values)


def add_outliers(data, use_abs: bool = False) -> np.ndarray:
    """Append the +/- double of the sample maximum (of |x| with use_abs)."""
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise ValueError("data must be non-empty")
    ref = float(np.max(np.abs(data))) if use_abs else float(np.max(data))
    return np.concatenate([data, [2.0 * ref, -2.0 * ref]])


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_safe(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    return obj


def load_report_schema() -> dict:
    with resources.files("epfit").joinpath("report_schema.json").open("r") as fh:
        return json.load(fh)


def validate_report(report: dict, schema: dict | None = None):
    """Structural validation against the shipped schema subset
    (type, required, properties, items)."""
    schema = schema or load_report_schema()
    _validate_node(report, schema, "$")


_TYPE_MAP = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, name: str) -> bool:
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, _TYPE_MAP[name])


def _validate_node(value, schema: dict, path: str):
    names = schema.get("type")
    if names is not None:
        names = [names] if isinstance(names, str) else names
        if not any(_type_ok(value, n) for n in names):
            raise ValueError(f"{path}: expected {names}, got {type(value).__name__}")
    for key in schema.get("required", []):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"{path}: missing required key {key!r}")
    for key, sub in schema.get("properties", {}).items():
        if isinstance(value, dict) and key in value:
            _validate_node(value[key], sub, f"{path}.{key}")
    if "items" in schema and isinstance(value, list):
        for i, item in enumerate(value):
            _validate_node(item, schema["items"], f"{path}[{i}]")


def _write_report(path: str, command: str, argv, inputs: dict, payload: dict,
                  timing_ms: float | None):
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "argv": list(argv),
        "inputs": _json_safe(inputs),
        "payload": _json_safe(payload),
    }
    if timing_ms is not None:
        report["timing_ms"] = timing_ms
    validate_report(report)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def _number(text: str, flag: str, cast=float):
    try:
        return cast(text)
    except ValueError:
        raise UsageError(f"{flag} expects numbers, got {text!r}") from None


def _count(minimum: int):
    """argparse type of an integer flag that must be at least ``minimum``."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return count


def _usage(build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError for an unusable value
    turned into a UsageError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_triple(text: str):
    vals = [_number(p, "--alpha") for p in text.split(",") if p != ""]
    if len(vals) == 1:
        return vals[0]
    if len(vals) == 3:
        return _usage(ShapeTriple, *vals)
    raise UsageError(f"--alpha expects one value or a1,a2,a3, got {text!r}")


def _parse_grid(text: str, flag: str):
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise UsageError(f"{flag} {text!r} must be start:stop:step or a comma list")
        start, stop, step = (_number(p, flag) for p in pieces)
        if step <= 0 or stop < start:
            raise UsageError(f"{flag} {text!r} needs start <= stop and a positive step")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(count)]
    grid = [_number(p, flag) for p in text.split(",") if p != ""]
    if not grid:
        raise UsageError(f"{flag} has no values")
    return grid


def _build_family(score: str, values, alpha):
    """The family named ``score`` with its tuning constants read from the
    mapping ``values`` by name; a combined family takes the ShapeTriple
    ``alpha`` as its branch shapes."""
    if score not in _FAMILIES:
        raise UsageError(f"unknown score {score!r}")
    cls = _FAMILIES[score]
    missing = [f"--{name}" for name in cls.tuning_names if values.get(name) is None]
    if missing:
        raise UsageError(f"the {score} score needs {' and '.join(missing)}")
    constants = {name: values[name] for name in cls.tuning_names}
    if "triple" in (f.name for f in dataclasses.fields(cls)):
        if not isinstance(alpha, ShapeTriple):
            raise UsageError(f"the {score} score needs --alpha a1,a2,a3")
        constants["triple"] = alpha
    return _usage(cls, **constants)


def _family_payload(family) -> dict:
    out = {"family": type(family).__name__, **family.tuning()}
    if family.shapes is not None:
        out["alpha_triple"] = list(family.shapes.as_tuple())
    return out


def _fisher_payload(matrix: FisherMatrix) -> dict:
    diag = matrix.psd or psd_check(matrix)
    out = {
        "dim": matrix.dim,
        "n": matrix.n,
        "method": matrix.method,
        "entries": matrix.entries,
        "psd": {
            "determinant_test": diag.determinant_test,
            "pivot_test": diag.pivot_test,
            "min_eigenvalue": diag.min_eigenvalue,
            "asymmetry": diag.asymmetry,
        },
    }
    if matrix.element_errors is not None:
        out["element_errors"] = matrix.element_errors
    return out


def _variances_payload(var) -> dict:
    return {"raw": list(var.raw), "abs": list(var.abs_values),
            "pseudo_inverse": var.pseudo_inverse, "negative": list(var.negative)}


def _fit_payload(data, result) -> dict:
    return {
        "estimates": {
            "mu": result.params.mu,
            "sigma": result.params.sigma,
            "alpha": result.params.alpha,
        },
        "alpha_estimated": result.estimated_alpha,
        "converged": result.converged,
        "iterations": result.iterations,
        "objective_value": result.objective_value,
        "fisher": _fisher_payload(result.fisher),
        "variances": _variances_payload(result.variances),
        "ic": {"aic": result.ic[0], "caic": result.ic[1], "bic": result.ic[2]},
        "volume": result.volume,
        "mae": result.mae,
        "n": int(len(data)),
    }


def _cmd_rng(args, argv) -> int:
    p = _usage(epd.EpdParams, args.mu, args.sigma, args.alpha)
    draws = epd.sample(p, args.n, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        for v in draws:
            fh.write(repr(float(v)) + "\n")
    return 0


def _cmd_fit(args, argv) -> int:
    if args.outlier_abs and not args.add_outliers:
        raise UsageError("--outlier-abs needs --add-outliers")
    if args.method == "objective" and args.ga_seed is None:
        raise UsageError("--ga-seed is required for objective fits")
    if args.method == "ee" and args.ga_seed is not None:
        raise UsageError("--ga-seed applies only to objective fits")
    data = ingest(args.data)
    digest = _sha256(args.data)
    if args.add_outliers:
        data = add_outliers(data, use_abs=args.outlier_abs)
    started = time.perf_counter()
    spec = _estimator(args.score, vars(args))
    family_info = _family_payload(spec.family)
    if spec.objective:
        family_info["family"] = _OBJECTIVE_LABELS[args.score]
    result = evaluate_fit(data, spec.fit(data, args.ga_seed), fisher_method=args.fisher)
    if args.mae_reps > 0:
        result.mae = expected_mae(data, result.params, result.family)

    timing = (time.perf_counter() - started) * 1000.0 if args.timings else None
    payload = {"method": args.method, "score": args.score, **family_info,
               **_fit_payload(data, result),
               "outliers_added": bool(args.add_outliers)}
    inputs = {"seed": args.ga_seed if args.method == "objective" else None,
              "data_sha256": digest, "n": int(len(data))}
    _write_report(args.out, "fit", argv, inputs, payload, timing)
    return 0


def _cmd_fisher(args, argv) -> int:
    alpha = _parse_triple(args.alpha)
    scalar = alpha.alpha2 if isinstance(alpha, ShapeTriple) else alpha
    p = _usage(epd.EpdParams, args.mu, args.sigma, scalar)
    family = _build_family(args.family, vars(args), alpha)
    if args.dim == 3 and family.likelihood is None:
        raise UsageError(f"--dim 3 needs a likelihood score (s, sq or sd), got {args.family}")
    matrix = fisher_for_family(family, p, args.n, dim=args.dim, method=args.mode)
    payload = {
        **_family_payload(family),
        "params": {"mu": p.mu, "sigma": p.sigma, "alpha": p.alpha},
        "fisher": _fisher_payload(matrix),
        "variances": _variances_payload(variances(matrix)),
    }
    _write_report(args.out, "fisher", argv, {"seed": None, "data_sha256": None, "n": args.n},
                  payload, None)
    return 0


def _cmd_tune(args, argv) -> int:
    data = ingest(args.data)
    digest = _sha256(args.data)
    alpha = _parse_triple(args.alpha) if args.alpha else None

    names = _FAMILIES[args.family].tuning_names
    missing = [f"--grid-{name}" for name in names if not getattr(args, f"grid_{name}")]
    if missing:
        raise UsageError(f"family {args.family} needs {' and '.join(missing)}")
    grids = [_parse_grid(getattr(args, f"grid_{name}"), f"--grid-{name}") for name in names]
    candidates = [_build_family(args.family, dict(zip(names, combo)), alpha)
                  for combo in itertools.product(*grids)]

    scalar_alpha = alpha if isinstance(alpha, float) else None
    if scalar_alpha is None and any(c.shapes is None for c in candidates):
        raise UsageError(f"family {args.family} needs a scalar --alpha")
    sizes = tuple(_number(v, "--sizes", int) for v in args.sizes.split(",")) if args.sizes else None
    if sizes is not None and (len(sizes) != 3 or min(sizes) < 0 or sum(sizes) != len(data)):
        raise UsageError(f"--sizes needs three non-negative integers summing to {len(data)}")
    report = tune(data, candidates, alpha=scalar_alpha, sizes=sizes)
    payload = {
        "family": args.family,
        "chosen": report.chosen,
        "trace": report.trace,
        "candidates": [
            {
                "label": c.label,
                "tuning": c.tuning,
                "volume": c.volume,
                "aic": c.aic, "caic": c.caic, "bic": c.bic,
                "mae": c.mae,
                "error": c.error,
                "estimates": None if c.fit is None else {
                    "mu": c.fit.params.mu,
                    "sigma": c.fit.params.sigma,
                    "alpha": c.fit.params.alpha,
                },
            }
            for c in report.candidates
        ],
    }
    _write_report(args.out, "tune", argv,
                  {"seed": args.seed, "data_sha256": digest, "n": int(len(data))},
                  payload, None)
    return 0


def _parse_scalar(text: str):
    text = text.strip()
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            pass
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    return text


def _read_sections(path: str, prefix: str) -> list[tuple[str, dict]]:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise UsageError(f"malformed config file {path}: {exc}") from exc
    out = []
    for section in parser.sections():
        if section.startswith(prefix + "."):
            name = section[len(prefix) + 1:]
            out.append((name, {k: _parse_scalar(v) for k, v in parser[section].items()}))
    if not out:
        raise UsageError(f"{path}: no [{prefix}.*] sections found")
    return out


def _unknown_keys(values: dict, known, where: str):
    unknown = sorted(set(values) - set(known))
    if unknown:
        raise UsageError(f"{where}: unknown key {unknown[0]!r}")


def _load_design(arg: str, n2: int | None) -> simulate.SimulationDesign:
    if arg in ("design1", "design2", "design3", "design4"):
        return simulate.reference_design(int(arg[-1]), n2=n2 or 100)
    comps = dict(_read_sections(arg, "component"))
    missing = [k for k in ("1", "2", "3") if k not in comps]
    if missing:
        raise UsageError(f"{arg}: missing [component.{missing[0]}] section")
    built = []
    for key in ("1", "2", "3"):
        vals, where = comps[key], f"{arg}: component {key}"
        _unknown_keys(vals, ("alpha", "mu", "sigma", "n"), where)
        try:
            n = vals["n"]
            alpha, mu, sigma = (_number(str(vals[k]), f"{where} {k}")
                                for k in ("alpha", "mu", "sigma"))
        except KeyError as exc:
            raise UsageError(f"{where} is missing key {exc}") from None
        # _parse_scalar reads an integer as int, and true or false as bool
        if type(n) is not int:
            raise UsageError(f"{where}: n must be an integer, got {n!r}")
        try:
            built.append(simulate.DesignComponent(alpha=alpha, mu=mu, sigma=sigma, n=n))
        except ValueError as exc:
            raise UsageError(f"{where}: {exc}") from None
    if n2 is not None:
        built[1] = dataclasses.replace(built[1], n=n2)
    return simulate.SimulationDesign(tuple(built))


def _estimator(label: str, values) -> simulate.EstimatorSpec:
    """One estimator from a mapping of flag values: ``vars(args)`` of
    ``fit`` or one [estimator.*] section, whose keys are the flag names."""
    alpha = values.get("alpha")
    alpha = None if alpha is None else _parse_triple(str(alpha))
    score = str(values.get("score", "s"))
    family = _build_family(score, values, alpha)
    method = values.get("method", "ee")
    if method not in ("ee", "objective"):
        raise UsageError(f"estimator {label}: method must be ee or objective, got {method!r}")
    # None where neither the flag nor the key is given
    estimate_alpha = values.get("estimate_alpha")
    if estimate_alpha is not None and not isinstance(estimate_alpha, bool):
        raise UsageError(f"estimator {label}: estimate_alpha must be true or false, "
                         f"got {estimate_alpha!r}")
    if method == "ee":
        scalar = alpha if isinstance(alpha, float) else None
        if scalar is None and family.shapes is None and not estimate_alpha:
            raise UsageError(f"estimator {label}: the {score} score needs a scalar --alpha "
                             "or --estimate-alpha")
        route = dict(alpha=scalar, estimate_alpha=bool(estimate_alpha))
    else:
        if family.likelihood is None:
            raise UsageError(f"estimator {label}: objective fits need a likelihood score "
                             "(s, sq or sd)")
        if alpha is not None or estimate_alpha is False:
            raise UsageError(f"estimator {label}: objective fits estimate the shape, so they "
                             "take neither alpha nor estimate_alpha = false")
        route = dict(objective=True)
    try:
        return simulate.EstimatorSpec(label=label, family=family, **route)
    except ValueError as exc:
        raise UsageError(f"estimator {label}: {exc}") from None


def _load_estimators(path: str) -> list[simulate.EstimatorSpec]:
    sections = _read_sections(path, "estimator")
    for name, vals in sections:
        _unknown_keys(vals, _ESTIMATOR_KEYS, f"estimator {name}")
    return [_estimator(name, vals) for name, vals in sections]


def _cmd_simulate(args, argv) -> int:
    design = _load_design(args.design, args.n2)
    estimators = _load_estimators(args.estimators)
    report = simulate.run(design, estimators, m=args.m, seed=args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    return 0


class _JsonArgumentParser(argparse.ArgumentParser):
    """Raises instead of exiting so errors surface as JSON."""

    def error(self, message):
        raise UsageError(message)


@functools.cache  # parsing leaves the parser as it was: one per process
def _build_parser() -> argparse.ArgumentParser:
    parser = _JsonArgumentParser(
        prog="epfit",
        description="Robust fitting of the exponential power distribution",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    rng = sub.add_parser("rng", help="draw EP samples to a CSV file")
    rng.add_argument("--mu", type=float, required=True)
    rng.add_argument("--sigma", type=float, required=True)
    rng.add_argument("--alpha", type=float, required=True)
    rng.add_argument("--n", type=_count(1), required=True)
    rng.add_argument("--seed", type=int, required=True)
    rng.add_argument("--out", required=True)

    fit = sub.add_parser("fit", help="fit a score family or objective to data")
    fit.add_argument("--data", required=True)
    fit.add_argument("--score", required=True, choices=list(_FAMILIES))
    fit.add_argument("--method", choices=["ee", "objective"], default="ee")
    fit.add_argument("--alpha", help="shape value, or a1,a2,a3 for combined scores")
    fit.add_argument("--estimate-alpha", action="store_true", default=None)
    fit.add_argument("--fisher", choices=["closed", "quad", "auto"], default="auto")
    fit.add_argument("--ga-seed", type=int)
    fit.add_argument("--add-outliers", action="store_true",
                     help="append the +/- doubled sample maximum before fitting")
    fit.add_argument("--outlier-abs", action="store_true",
                     help="with --add-outliers, use the doubled absolute maximum instead")
    fit.add_argument("--mae-reps", type=_count(0), default=0,
                     help="any positive count attaches the exact expected sorted MAE")
    fit.add_argument("--timings", action="store_true")
    fit.add_argument("--out", required=True)

    fis = sub.add_parser("fisher", help="information matrix at given parameters")
    fis.add_argument("--family", required=True, choices=list(_FAMILIES))
    fis.add_argument("--mu", type=float, required=True)
    fis.add_argument("--sigma", type=float, required=True)
    fis.add_argument("--alpha", required=True)
    fis.add_argument("--n", type=_count(1), required=True)
    fis.add_argument("--dim", type=int, choices=[2, 3], default=2)
    fis.add_argument("--mode", choices=["closed", "quad", "auto"], default="auto")
    fis.add_argument("--out", required=True)

    tun = sub.add_parser("tune", help="grid search over tuning constants")
    tun.add_argument("--data", required=True)
    tun.add_argument("--family", required=True,
                     choices=[name for name, cls in _FAMILIES.items() if cls.tuning_names])
    tun.add_argument("--alpha")
    tun.add_argument("--replications", type=_count(1), default=500,
                     help="accepted and ignored: the MAE is exact, not replicated")
    tun.add_argument("--sizes", help="component sizes n1,n2,n3 for artificial samples")
    tun.add_argument("--seed", type=int, required=True,
                     help="recorded in the report; the exact MAE draws nothing")
    tun.add_argument("--out", required=True)

    simp = sub.add_parser("simulate", help="Monte Carlo table for a design")
    simp.add_argument("--design", required=True,
                      help="design1..design4 or a config file path")
    simp.add_argument("--estimators", required=True, help="estimator config file")
    simp.add_argument("--m", type=_count(2), required=True)
    simp.add_argument("--seed", type=int, required=True)
    simp.add_argument("--n2", type=_count(1))
    simp.add_argument("--threads", type=_count(1), default=1,
                      help="accepted and ignored: replications run serially")
    simp.add_argument("--out", required=True)

    for name in _TUNING_NAMES:
        fit.add_argument(f"--{name}", type=float)
        fis.add_argument(f"--{name}", type=float)
        tun.add_argument(f"--grid-{name}")

    return parser


_COMMANDS = {
    "rng": _cmd_rng,
    "fit": _cmd_fit,
    "fisher": _cmd_fisher,
    "tune": _cmd_tune,
    "simulate": _cmd_simulate,
}


def _emit_error(kind: str, message: str):
    sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}}) + "\n")


def dispatch(argv) -> int:
    """Run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return 2
    try:
        return _COMMANDS[args.subcommand](args, argv)
    except (UsageError, IngestError) as exc:
        _emit_error("usage", str(exc))
        return 2
    except Exception as exc:
        _emit_error("computation", f"{type(exc).__name__}: {exc}")
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
