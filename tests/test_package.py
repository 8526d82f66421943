"""Public names: every name a module exports must resolve on it, and
every console script the project declares must import.  Importing the
package runs no scipy package."""

import ast
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


def test_kernel_benchmarks_run():
    # tests/bench_kernels.py is outside the collected pattern; run it once
    # with timing off so a stale import or a renamed attribute fails here
    pytest.importorskip("pytest_benchmark")
    bench = Path(__file__).with_name("bench_kernels.py")
    env = dict(os.environ, PYTHONPATH=str(Path(qgeo.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", str(bench), "-q",
         "--benchmark-disable", "-p", "no:cacheprovider"],
        cwd=bench.parents[1], env=env, capture_output=True, text=True)
    assert re.search(r"\b23 passed\b", out.stdout), out.stdout[-2000:]


def test_missing_sparsetools_extension_names_where_it_looked(monkeypatch, tmp_path):
    from qgeo import jets

    fake = SimpleNamespace(origin=str(tmp_path / "__init__.py"))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "sparse"))):
        jets._load_csr_matvecs()


def _sources():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(Path(qgeo.__file__).parent.glob("*.py"))}


def _loaded_names(tree):
    """Every name the module reads, attribute names and ``__all__`` entries
    included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            out.update(ast.literal_eval(node.value))
    return out


def test_every_import_is_used():
    # no linter runs on the package, so a stale import is caught here
    stale = []
    for module, tree in _sources().items():
        used = _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            stale += [f"{module}: {nm}" for nm in names if nm not in used]
    assert not stale, f"unused imports: {stale}"


def _unreferenced_privates(trees):
    """``module.name`` of each `_`-prefixed module-level function, method or
    assigned name (annotated ones included) that no module of ``trees``
    reads or imports."""
    used = set().union(*(_loaded_names(t) for t in trees.values()))
    used |= {a.name for t in trees.values() for node in ast.walk(t)
             if isinstance(node, ast.ImportFrom) for a in node.names}
    dead = []
    for module, tree in trees.items():
        scopes = [tree.body] + [node.body for node in tree.body
                                if isinstance(node, ast.ClassDef)]
        names = [node.name for body in scopes for node in body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        names += [t.id for node in tree.body
                  if isinstance(node, (ast.Assign, ast.AnnAssign))
                  for t in (node.targets if isinstance(node, ast.Assign)
                            else [node.target])
                  if isinstance(t, ast.Name)]
        dead += [f"{module}.{nm}" for nm in names if nm.startswith("_")
                 and not nm.endswith("__") and nm not in used]
    return dead


def test_every_private_helper_is_referenced():
    # a `_`-prefixed module-level function, method or constant that nothing
    # in the package names is a helper left behind
    dead = _unreferenced_privates(_sources())
    assert not dead, f"unreferenced private helpers: {dead}"
    # the check sees plain and annotated constants, functions and methods,
    # and an assignment alone is no reference
    snippet = ast.parse(
        "_A = 1\n"
        "_B: int = 2\n"
        "_C: int = _A\n"
        "def _f():\n"
        "    return _B\n"
        "class K:\n"
        "    def _g(self):\n"
        "        pass\n")
    assert _unreferenced_privates({"m": snippet}) == ["m._f", "m._g", "m._C"]


def test_conformal_batteries_reduce_through_gap():
    # every battery number goes through `conformal._gap`, and every identity
    # residual through `ambient._rel`, whose np.max keeps a NaN; the builtin
    # max and min drop one that is not first.  The scalars the batteries
    # reduce are assembled in `invariants` and the pack tables read in
    # `submanifold`, so neither reduces with them either
    sources = _sources()
    calls = [f"{module}.py line {node.lineno}: {node.func.id}"
             for module in ("conformal", "ambient", "submanifold", "invariants")
             for node in ast.walk(sources[module])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("max", "min")]
    assert not calls, f"builtin reductions: {calls}"


def test_conformal_compensates_in_one_place():
    # exp(-weight t Upsilon(x0)) is written once, in _Engine.compensated;
    # the rescale factor itself comes from fields._rescale_factor
    tree = _sources()["conformal"]
    engine = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "_Engine")
    home = next(node for node in engine.body
                if isinstance(node, ast.FunctionDef) and node.name == "compensated")

    def exps(root, skip=()):
        return [node.lineno for node in _walk(root, set(skip))
                if isinstance(node, ast.Attribute) and node.attr == "exp"
                and isinstance(node.value, ast.Name) and node.value.id == "np"]

    assert len(exps(home)) == 1
    assert exps(tree, skip=("compensated",)) == [], "np.exp outside compensated"


def _walk(node, skip):
    """``ast.walk`` that does not enter the functions named in ``skip``."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not (isinstance(child, ast.FunctionDef) and child.name in skip):
            yield from _walk(child, skip)


def _is_pull(node, bound):
    """Whether ``node`` is a ``.pulled(...)`` call, a name bound to one, or
    either of them under ``.truncate(...)``."""
    while (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
           and node.func.attr == "truncate"):
        node = node.func.value
    if isinstance(node, ast.Name):
        return node.id in bound
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pulled")


def _projected_pulls(tree, skip=("block", "projected_ambient_deriv")):
    """Lines of the ``.project(`` calls outside ``skip`` whose tensor is a pull."""
    nodes = list(_walk(tree, set(skip)))
    bound = {t.id for node in nodes if isinstance(node, ast.Assign)
             and _is_pull(node.value, set())
             for t in node.targets if isinstance(t, ast.Name)}
    return [node.lineno for node in nodes
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "project" and node.args
            and _is_pull(node.args[0], bound)]


def test_curvature_tensors_reach_the_frames_through_block():
    # a CurvaturePack attribute is projected only by SubmanifoldPack.block,
    # which cuts it to the order the one table sets; projected_ambient_deriv
    # is the independent reference route and keeps its own projections
    found = [f"{module}.py line {line}" for module, tree in _sources().items()
             for line in _projected_pulls(tree)]
    assert not found, f"pulled tensors projected outside block: {found}"
    # the check sees the direct, the truncated and the named pull
    snippet = ast.parse(
        "def f(p):\n"
        "    a = p.project(p.pulled('ric'), 'nn')\n"
        "    b = p.project(p.pulled('weyl').truncate(1), 'aaan')\n"
        "    wy = p.pulled('weyl').truncate(0)\n"
        "    return a, b, p.project(wy, 'atat'), p.project(p.pull(a), 'n')\n")
    assert _projected_pulls(snippet) == [2, 3, 5]


def _scalar_bodies(tree):
    """Each ``@_scalar`` function of ``tree`` with the routes it declares."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        for d in node.decorator_list:
            if isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_scalar":
                yield node, next((ast.literal_eval(kw.value)
                                  for kw in d.keywords if kw.arg == "routes"), {})


def _route_findings(tree):
    """What is wrong with the routes of each ``@_scalar`` body in ``tree``:
    a compared route that is not declared, a count of uncompared declared
    routes other than one (the fall-through), a ``per_pack`` of its own,
    or a raise."""
    found = []
    for node, declared in _scalar_bodies(tree):
        compared = set()
        for cmp in ast.walk(node):
            if not (isinstance(cmp, ast.Compare) and all(
                    isinstance(op, (ast.Eq, ast.NotEq)) for op in cmp.ops)):
                continue
            sides = [cmp.left, *cmp.comparators]
            if any(getattr(x, "id", None) == "route" for x in sides):
                compared |= {x.value for x in sides
                             if isinstance(x, ast.Constant)}
        found += [f"{node.name}: undeclared route {r!r}"
                  for r in sorted(compared - set(declared))]
        if declared and len(set(declared) - compared) != 1:
            found.append(f"{node.name}: {sorted(set(declared) - compared)} "
                         "uncompared")
        if any(getattr(d, "id", None) == "per_pack" for d in node.decorator_list):
            found.append(f"{node.name}: per_pack under _scalar")
        found += [f"{node.name}: raises on line {r.lineno}"
                  for r in ast.walk(node) if isinstance(r, ast.Raise)]
    return found


def test_scalar_routes_are_declared_and_gated():
    # the gate of ``invariants._scalar`` is the one check of a route's name
    # and condition and the one memo of the value; a declared route with no
    # branch would silently compute the fall-through's form
    from qgeo.invariants import REGISTRY

    tree = _sources()["invariants"]
    assert _route_findings(tree) == []
    assert ({node.name: declared for node, declared in _scalar_bodies(tree)}
            == {name: spec.routes for name, spec in REGISTRY.items()})
    snippet = ast.parse(
        "@_scalar(-4, 'k < n', routes={'a': '', 'b': '', 'c': 'k == 4'})\n"
        "@per_pack\n"
        "def f(p, route):\n"
        "    if route == 'a' or route == 'x':\n"
        "        return 1\n"
        "    raise ValueError(route)\n"
        "@_scalar(-4, 'k < n', routes={'a': '', 'b': ''})\n"
        "def g(p, route):\n"
        "    return 1 if 'a' != route else 2\n"
        "@_scalar(-4, 'k < n')\n"
        "def h(p):\n"
        "    return 1\n")
    assert _route_findings(snippet) == [
        "f: undeclared route 'x'", "f: ['b', 'c'] uncompared",
        "f: per_pack under _scalar", "f: raises on line 6"]
