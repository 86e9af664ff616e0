"""Layer tracing for the traced benchmark run.

Wraps epfit's public functions at each layer boundary by rebinding the
module attributes that callers look up, so no file of the package
changes.  Spans (name, start, end, parent) are kept in compact arrays in
memory and written when the run ends; the hot scalar special functions
and the per-point objective evaluations are counted, not spanned.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter

_clock = time.perf_counter


class Tracer:
    """Span recorder plus named counters for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        # EE fits kept for the stationarity check made after timing
        self.ee_fits: list[tuple] = []
        self._undo: list[tuple] = []

    def begin(self, name: str) -> int:
        nid = self._name_index.get(name)
        if nid is None:
            nid = self._name_index[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(_clock())
        return idx

    def end(self, idx: int):
        self.ends[idx] = _clock()
        self._stack.pop()

    # -- wrappers -------------------------------------------------------

    def spanned(self, fn, name: str, on_result=None, counter: str | None = None,
                wrap_callable: str | None = None):
        """Wrap fn in a span; optionally count calls, inspect the result,
        or count the evaluations of the objective passed as first arg."""
        tracer = self

        def wrapper(*args, **kwargs):
            if counter is not None:
                tracer.counts[counter] += 1
            if wrap_callable is not None:
                inner = args[0]

                def counted(*a, **k):
                    tracer.counts[wrap_callable] += 1
                    return inner(*a, **k)

                args = (counted,) + args[1:]
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, *counters: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for c in counters:
                counts[c] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, module, attr: str, wrapper):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def patch_everywhere(self, fn, wrapper, skip_defining: bool = False):
        """Rebind every epfit module attribute that is ``fn``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "epfit" or mod_name.startswith("epfit.")):
                continue
            if skip_defining and mod_name == fn.__module__:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapper)

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # -- results --------------------------------------------------------

    def span_totals(self) -> tuple[dict, dict]:
        """Total and self seconds per span name."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        total: Counter = Counter()
        self_time: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_ids[i]]
            dur = self.ends[i] - self.starts[i]
            total[name] += dur
            self_time[name] += dur - child[i]
        return total, self_time

    def write(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": self.name_ids.tolist(),
                "start": self.starts.tolist(),
                "end": self.ends.tolist(),
                "parent": self.parents.tolist(),
                "counts": dict(self.counts),
            }, fh)


def install(tracer: Tracer):
    """Wrap epfit's layer boundaries; undo with ``tracer.uninstall()``."""
    from epfit import epd, estimate, fisher, optimize, scores, select, simulate, special_fn

    counts = tracer.counts

    def on_ee_fit(args, kwargs, result):
        counts["estimate.iterations"] += result.iterations
        counts["estimate.budget_limited"] += not result.converged
        data = args[0] if args else kwargs["data"]
        family = args[1] if len(args) > 1 else kwargs["score"]
        tracer.ee_fits.append((data, family, result))

    def on_objective_fit(args, kwargs, result):
        counts["estimate.iterations"] += result.iterations
        counts["estimate.budget_limited"] += not result.converged

    def on_fisher(args, kwargs, result):
        counts["fisher.closed_form"] += result.method == "closed_form"
        counts["fisher.partial"] += result.method == "quadrature-partial"

    def on_integrate(args, kwargs, result):
        counts["special_fn.quad_splits"] += result.subdivisions

    spans = [
        (estimate.fit_ee_location_scale, "estimate.fit_ee", dict(
            counter="estimate.fits", on_result=on_ee_fit)),
        (estimate.fit_objective, "estimate.fit_objective", dict(
            counter="estimate.fits", on_result=on_objective_fit)),
        (estimate.fit_ee_alpha, "estimate.shape_root", dict(
            counter="estimate.shape_root_solves")),
        (optimize.maximize, "optimize.ga", dict(wrap_callable="optimize.ga_evals")),
        (optimize.polish, "optimize.polish", dict(wrap_callable="optimize.polish_evals")),
        (fisher.fisher_for_family, "fisher.matrix", dict(
            counter="fisher.matrices", on_result=on_fisher)),
        (epd.sample, "epd.sample", dict(counter="epd.sample_calls")),
        (select.evaluate_fit, "select.evaluate_fit", {}),
        (select.artificial_sample, "select.artificial_sample", {}),
        (select.mae, "select.mae", dict(counter="select.mae_reps")),
        (simulate.generate, "simulate.generate", {}),
        (simulate.run, "simulate.run", {}),
    ]
    for fn, name, opts in spans:
        tracer.patch_everywhere(fn, tracer.spanned(fn, name, **opts))

    # one ee_weight call per EE sweep: only the estimator's own binding
    tracer.patch(estimate, "ee_weight", tracer.spanned(
        scores.ee_weight, "scores.ee_weight", counter="scores.ee_weight_calls"))
    tracer.patch(estimate, "density_weight", tracer.spanned(
        scores.density_weight, "scores.density_weight"))
    tracer.patch_everywhere(special_fn.integrate, tracer.spanned(
        special_fn.integrate, "special_fn.integrate",
        counter="special_fn.integrate_calls", on_result=on_integrate), skip_defining=True)

    # counted only: these run tens of thousands of times per fit
    tracer.patch_everywhere(estimate.objective_value, tracer.counted(
        estimate.objective_value, "estimate.objective_evals"))
    for fn in (epd.log_pdf, epd.log_q_pdf, epd.distorted_log_pdf):
        tracer.patch_everywhere(fn, tracer.counted(fn, "epd.logpdf_calls"), skip_defining=True)
    # the shape residual is the only caller of digamma inside estimate
    tracer.patch(estimate, "digamma", tracer.counted(
        special_fn.digamma, "special_fn.scalar_calls", "estimate.shape_residual_evals"))
    for fn in (special_fn.gamma_fn, special_fn.log_gamma, special_fn.digamma,
               special_fn.trigamma):
        tracer.patch_everywhere(fn, tracer.counted(fn, "special_fn.scalar_calls"),
                                skip_defining=True)


# (metric, unit) in the order the benchmark reports them
LAYER_METRICS = (
    ("estimate.fits", "count"),
    ("estimate.iterations", "count"),
    ("estimate.budget_limited", "count"),
    ("estimate.fit_ee_s", "s"),
    ("estimate.shape_root_solves", "count"),
    ("estimate.shape_residual_evals", "count"),
    ("estimate.shape_root_s", "s"),
    ("estimate.objective_fit_s", "s"),
    ("estimate.objective_evals", "count"),
    ("scores.ee_weight_calls", "count"),
    ("scores.ee_weight_s", "s"),
    ("scores.density_weight_s", "s"),
    ("optimize.ga_s", "s"),
    ("optimize.ga_evals", "count"),
    ("optimize.polish_s", "s"),
    ("optimize.polish_evals", "count"),
    ("fisher.matrices", "count"),
    ("fisher.matrix_s", "s"),
    ("fisher.closed_form_share", "ratio"),
    ("fisher.partial", "count"),
    ("special_fn.integrate_calls", "count"),
    ("special_fn.quad_splits", "count"),
    ("special_fn.integrate_s", "s"),
    ("special_fn.scalar_calls", "count"),
    ("epd.sample_calls", "count"),
    ("epd.sample_s", "s"),
    ("epd.logpdf_calls", "count"),
    ("select.evaluate_fit_s", "s"),
    ("select.mae_reps", "count"),
    ("select.mae_s", "s"),
    ("simulate.generate_s", "s"),
    ("simulate.self_s", "s"),
    ("cli.self_s", "s"),
)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values from the recorded spans and counters."""
    total, self_time = tracer.span_totals()
    c = tracer.counts
    matrices = c["fisher.matrices"]
    values = {
        "estimate.fit_ee_s": total["estimate.fit_ee"],
        "estimate.shape_root_s": total["estimate.shape_root"],
        "estimate.objective_fit_s": total["estimate.fit_objective"],
        "scores.ee_weight_s": total["scores.ee_weight"],
        "scores.density_weight_s": total["scores.density_weight"],
        "optimize.ga_s": total["optimize.ga"],
        "optimize.polish_s": total["optimize.polish"],
        "fisher.matrix_s": total["fisher.matrix"],
        "fisher.closed_form_share": c["fisher.closed_form"] / matrices if matrices else 0.0,
        "special_fn.integrate_s": total["special_fn.integrate"],
        "epd.sample_s": total["epd.sample"],
        "select.evaluate_fit_s": total["select.evaluate_fit"],
        "select.mae_s": total["select.artificial_sample"] + total["select.mae"],
        "simulate.generate_s": total["simulate.generate"],
        "simulate.self_s": self_time["simulate.run"],
        "cli.self_s": self_time["cli.dispatch"],
    }
    return {name: values[name] if name in values else c[name] for name, _ in LAYER_METRICS}
