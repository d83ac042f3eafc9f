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
