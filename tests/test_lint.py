"""Checks on the syntax trees of src/crepant; each failure lists path:line."""

import ast
import importlib
import pathlib
import re
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "crepant").rglob("*.py"))

# nodes that src/crepant must not hold: python -O strips assert statements,
# floating point is inexact, and dataclasses generate code at a cold start
FORBIDDEN = {
    "assert": lambda node: isinstance(node, ast.Assert),
    "float": lambda node: isinstance(node, ast.Constant) and isinstance(node.value, float)
    or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float",
    "dataclasses": lambda node: isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    or isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names),
}


def _nodes():
    """(path:line, node) for every node with a line in src/crepant."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if hasattr(node, "lineno"):
                yield f"{path.relative_to(ROOT)}:{node.lineno}", node


@pytest.mark.parametrize("kind", FORBIDDEN)
def test_no_forbidden_node(kind):
    found = [site for site, node in _nodes() if FORBIDDEN[kind](node)]
    assert not found, "\n".join(found)


def test_no_unreferenced_def_or_class():
    """Each def or class is named in src, tests or bench outside its definition."""
    words = Counter(
        word
        for root in ("src", "tests", "bench")
        for path in (ROOT / root).rglob("*.py")
        for word in re.findall(r"\w+", path.read_text())
    )
    sites = {}
    for site, node in _nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                sites.setdefault(node.name, []).append(site)
    unreferenced = sorted(name for name, where in sites.items() if words[name] <= len(where))
    found = [f"{site} {name}" for name in unreferenced for site in sites[name]]
    assert not found, "\n".join(found)


def test_every_name_in_all_resolves():
    missing = []
    for path in SOURCES:
        module = importlib.import_module(f"crepant.{path.stem}".removesuffix(".__init__"))
        names = getattr(module, "__all__", ())
        missing += [f"{module.__name__}.{n}" for n in names if not hasattr(module, n)]
    assert not missing, "\n".join(missing)


def _is_self_dict(node) -> bool:
    return (
        isinstance(node, ast.Attribute) and node.attr == "__dict__"
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    )


def _copies_parameters(stmt, params) -> bool:
    """Whether a statement only copies parameters into ``self.__dict__``, by
    ``update`` or by item assignment."""
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        call = stmt.value
        func, values = call.func, [*call.args, *(k.value for k in call.keywords)]
        writes = isinstance(func, ast.Attribute) and func.attr == "update" and _is_self_dict(func.value)
    elif isinstance(stmt, ast.Assign):
        values = [stmt.value]
        writes = all(isinstance(t, ast.Subscript) and _is_self_dict(t.value) for t in stmt.targets)
    else:
        return False
    return writes and all(isinstance(v, ast.Name) and v.id in params for v in values)


def test_no_record_writes_out_its_binding():
    """A Record subclass binds its fields through ``Record.__init__``: its own
    ``__init__``, if any, checks or normalises, and does not only copy its
    parameters into ``__dict__``."""
    found = []
    for site, node in _nodes():
        bases = {getattr(b, "id", getattr(b, "attr", None)) for b in getattr(node, "bases", ())}
        if not isinstance(node, ast.ClassDef) or "Record" not in bases:
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                args = item.args
                params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
                body = [s for s in item.body if not isinstance(s, ast.Expr)
                        or not isinstance(s.value, ast.Constant)]  # a docstring aside
                if all(_copies_parameters(s, params - {"self"}) for s in body):
                    found.append(f"{site.rsplit(':', 1)[0]}:{item.lineno} {node.name}.__init__")
    assert not found, "\n".join(found)
