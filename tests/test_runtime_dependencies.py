"""The command-line entry point loads no scientific library beyond
numpy, the one runtime dependency that pyproject.toml declares: scipy
and mpmath are test oracles only."""

import os
import subprocess
import sys
from pathlib import Path

import epfit

SRC = Path(epfit.__file__).resolve().parents[1]


def test_cli_loads_neither_scipy_nor_mpmath():
    code = ("import sys, epfit.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath'}))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
