"""The benchmark's traced mode wraps the names in ``perfbench/child.py``'s
``LAYERS`` with ``vars(owner)[attr]`` and reads each estimator's realization
count, and the thinning's point count, by position.  A rename or a moved ``n`` here would crash a traced run;
this test makes it fail in the test suite instead.  Those names are also
the only public definitions in ``src/`` (functions, classes, and the
methods and properties of public classes) that the package itself may
leave unused: a helper that only tests call belongs in ``tests/oracles.py``.
Likewise a default that package calls always override, or a parameter that
none of them sets, is a choice the package never makes."""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "greencell"


@pytest.fixture(scope="module")
def child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, path):
    owner = importlib.import_module(f"greencell.{module}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return vars(owner)[attr]


def test_every_layer_resolves(child):
    for module, path, _, _ in child.LAYERS:
        assert callable(_resolve(module, path)), f"{module}.{path}"


@pytest.mark.parametrize("name", ["estimate_ee", "estimate_ce", "estimate_interference"])
def test_estimate_counters_read_n(child, name):
    (count,) = [c for module, path, _, c in child.LAYERS if (module, path) == ("mc", name)]
    params = list(inspect.signature(_resolve("mc", name)).parameters)
    # the counter reports whatever sits at its position: give each position its index
    counters = count(tuple(range(len(params))), {}, SimpleNamespace(realization_count=0))
    assert counters["realizations_requested"] == params.index("n")


def test_thin_counter_offers_the_point_count(child):
    (count,) = [c for module, path, _, c in child.LAYERS if (module, path) == ("geometry", "matern_ii_thin")]
    points = np.array([[0.0, 0.0], [100.0, 0.0], [500.0, 0.0]])
    args = (points, np.array([0.9, 0.2, 0.5]), 200.0)
    counters = count(args, {}, _resolve("geometry", "matern_ii_thin")(*args))
    assert counters == {"offered": 3, "retained": 2}


def _public_definitions(tree):
    """(path, is_member) of every public module-level function and class, and
    of every public method and property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", True


def test_public_definitions_are_used_by_the_package(child):
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attrs = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    names = attrs | {n.id for n in nodes if isinstance(n, ast.Name)}
    wrapped = {(module, p) for module, path, _, _ in child.LAYERS for p in (path, path.split(".")[0])}
    unused = [
        f"{module}.{path}"
        for module, tree in trees.items()
        for path, is_member in _public_definitions(tree)
        # a member is reached as an attribute; a module-level name may also be passed bare
        if path.split(".")[-1] not in (attrs if is_member else names) and (module, path) not in wrapped
    ]
    assert unused == [], f"public definitions no package code uses: {unused}"


def _defaulted_parameters(tree):
    """(name it is called by, parameter, positional index or None) of every
    defaulted parameter in ``tree``: a method's index counts after ``self``,
    and an ``__init__`` is called by its class's name."""
    owner = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        cls = owner.get(id(f))
        bound = cls is not None and "staticmethod" not in {getattr(d, "id", None) for d in f.decorator_list}
        name = cls.name if cls is not None and f.name == "__init__" else f.name
        positional = [a.arg for a in f.args.posonlyargs + f.args.args][bound:]
        for i in range(len(positional) - len(f.args.defaults), len(positional)):
            yield name, positional[i], i
        for a, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if default is not None:
                yield name, a.arg, None


def _passes(call, param, index):
    if any(k.arg in (param, None) for k in call.keywords) or any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and index < len(call.args)


def test_every_default_is_both_taken_and_overridden_by_the_package():
    # cli.main's argv is the entry point's: only its callers outside the package set it
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    calls = {}
    for node in (n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Call)):
        calls.setdefault(getattr(node.func, "id", None) or getattr(node.func, "attr", None), []).append(node)
    one_sided = [
        f"{module}.{name}({param})"
        for module, tree in trees.items()
        for name, param, index in _defaulted_parameters(tree)
        if (module, name) != ("cli", "main") and name in calls
        and len({_passes(call, param, index) for call in calls[name]}) == 1
    ]
    assert one_sided == [], f"defaulted parameters the package always or never passes: {one_sided}"


def test_package_root_binds_no_name():
    # ``greencell/__init__.py`` is its docstring: every name is imported from its module
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree) and len(tree.body) == 1
