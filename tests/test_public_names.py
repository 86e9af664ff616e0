"""Each module's ``__all__`` lists exactly what it defines in public, and
the names README retires are gone."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import epfit

MODULES = sorted(info.name for info in pkgutil.iter_modules(epfit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_the_public_definitions(name):
    module = importlib.import_module(f"epfit.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    # type aliases such as scores.ScoreFamily are neither functions nor classes
    defined = {n for n, v in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(v) or inspect.isclass(v))
               and v.__module__ == module.__name__}
    assert sorted(defined - set(module.__all__)) == []


README = Path(__file__).resolve().parents[1] / "README.md"


def retired_spans() -> list[tuple[str, str]]:
    """The ``module.name`` paths, each with its argument text, that start
    README's "Retired names" bullets: each bullet's names before its
    replacement."""
    section = README.read_text().split("\n## Retired names\n", 1)[1].split("\n## ", 1)[0]
    spans = []
    for bullet in section.split("\n- ")[1:]:
        head = bullet.split("`:", 1)[0] + "`"
        for span in re.findall(r"`([^`]*)`", head):
            m = re.fullmatch(r"(\w+(?:\.\w+)+)(?:\((.*)\))?", span, re.S)
            if m and m[1].split(".")[0] in MODULES:
                spans.append((m[1], m[2] or ""))
    return spans


def retired_names() -> list[str]:
    """The names retired whole, leaving out a retired parameter of a kept
    name (arguments with ``...``)."""
    return [name for name, args in retired_spans() if "..." not in args]


def retired_parameters() -> list[tuple[str, str]]:
    """(kept name, parameter) for each retired parameter of a kept name:
    the ``parameter=`` arguments of a span with ``...``."""
    return [(name, param) for name, args in retired_spans() if "..." in args
            for param in re.findall(r"(\w+)=", args)]


def _owner(path):
    owner = importlib.import_module(f"epfit.{path[0]}")
    for attr in path[1:]:
        owner = getattr(owner, attr)
    return owner


def test_retired_names_are_gone():
    names = retired_names()
    assert {"special_fn.incomplete_gamma", "fisher.FisherMatrix.unit",
            "special_fn.IntegrationResult.__float__", "special_fn.QuadratureSpec",
            "optimize.GaConfig", "optimize.GaResult", "estimate.FitResult.ga_history",
            "epd.gamma_transform", "simulate.SimulationReport.design",
            "simulate.SimulationReport.m", "simulate.SimulationReport.seed",
            "fisher.fisher_for_group", "scores.Huber.slope", "scores.Huber.breaks",
            "scores.CombinedPlain.slope", "scores.CombinedPlain.breaks",
            "scores.CombinedHuber.slope", "scores.CombinedHuber.breaks"} <= set(names)
    present = []
    for name in names:
        *path, last = name.split(".")
        owner = _owner(path)
        if hasattr(owner, last) or last in getattr(owner, "__dataclass_fields__", {}):
            present.append(name)
    assert present == []


def test_retired_parameters_are_gone():
    pairs = retired_parameters()
    assert {("estimate.fit_objective", "population"), ("estimate.fit_objective", "generations"),
            ("simulate.EstimatorSpec", "ga_population"),
            ("simulate.EstimatorSpec", "ga_generations"), ("simulate.run", "threads"),
            ("estimate.fit_ee_alpha", "bracket"), ("simulate.reference_design", "n1"),
            ("simulate.reference_design", "n3")} <= set(pairs)
    present = [(name, param) for name, param in pairs
               if param in inspect.signature(_owner(name.split("."))).parameters]
    assert present == []
