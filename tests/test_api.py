"""The public names: every ``__all__`` entry exists, and the package exports what it imports."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sfspectrum

MODULES = ["cli", "ensembles", "fixedmodes", "graph", "polymatrix", "structural", "system"]


def _module(name):
    return importlib.import_module(f"sfspectrum.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = _module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [x for x in module.__all__ if not hasattr(module, x)] == []


def test_the_package_exports_exactly_what_it_imports():
    imported = {
        x for x, value in vars(sfspectrum).items()
        if not x.startswith("_") and not inspect.ismodule(value)
    }
    assert len(set(sfspectrum.__all__)) == len(sfspectrum.__all__)
    assert set(sfspectrum.__all__) == imported
    # each is the object a module exports under the same name
    exported = {x: getattr(m, x) for m in map(_module, MODULES) for x in m.__all__}
    assert [x for x in sfspectrum.__all__
            if x not in exported or exported[x] is not getattr(sfspectrum, x)] == []


def test_importing_the_package_loads_no_undeclared_dependency():
    # pyproject.toml declares numpy only; scipy may be installed but must not be needed
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = "import sys, sfspectrum; print(sorted({m.split('.')[0] for m in sys.modules}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    top_level = set(ast.literal_eval(out))
    assert "sfspectrum" in top_level and "numpy" in top_level
    assert "scipy" not in top_level
