"""Each module's ``__all__`` lists exactly what it defines in public."""

import importlib
import inspect
import pkgutil

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
