"""Public names: every name a module exports must resolve on it, and
every console script the project declares must import.  Importing the
package runs no scipy package."""

import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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


def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name}: {target} is not callable"


def test_import_loads_no_scipy_package():
    # a fresh interpreter, since the tests themselves import scipy
    env = dict(os.environ, PYTHONPATH=str(Path(qgeo.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import qgeo, sys; print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_missing_sparsetools_extension_names_where_it_looked(monkeypatch, tmp_path):
    from qgeo import jets

    fake = SimpleNamespace(origin=str(tmp_path / "__init__.py"))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "sparse"))):
        jets._load_csr_matvecs()
