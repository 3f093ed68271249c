"""The public names: every ``__all__`` entry exists, and the package exports what it imports."""

import importlib
import inspect

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
