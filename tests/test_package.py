"""Public names: every name a module exports must resolve on it."""

import importlib
import pkgutil

import pytest

import qgeo

MODULES = sorted(m.name for m in pkgutil.iter_modules(qgeo.__path__))


def test_package_exports_resolve():
    missing = [nm for nm in qgeo.__all__ if not hasattr(qgeo, nm)]
    assert not missing, f"qgeo.__all__ names {missing}"


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"qgeo.{module}")
    missing = [nm for nm in mod.__all__ if not hasattr(mod, nm)]
    assert not missing, f"qgeo.{module}.__all__ names {missing}"
