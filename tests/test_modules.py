"""Module boundaries inside the package: no module of `weylcone` reads a
private (underscore) name of another, by `from .x import _y` or by `x._y`,
and no module imports a name it never reads."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "weylcone").glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_imports(tree: ast.Module) -> list[str]:
    """Every `from .x import _y` and `x._y` for a package module x, as text."""
    modules = {}  # local name -> package module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level == 1 or node.module == "weylcone" or (node.module or "").startswith("weylcone.")
            if not package:
                continue
            if node.module in (None, "weylcone"):  # from . import x
                for alias in node.names:
                    modules[alias.asname or alias.name] = alias.name
            else:
                found += [f"from {node.module} import {a.name}" for a in node.names if _is_private(a.name)]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("weylcone.") and alias.asname:
                    modules[alias.asname] = alias.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _is_private(node.attr)
        ):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_module_reads_a_private_name_of_another(path):
    assert _private_imports(ast.parse(path.read_text())) == []


def test_the_guard_sees_both_forms():
    src = "from . import lp\nfrom .polyhedra import VPolytope, _facets\nlp._solve(1)\nlp.solve(1)\n"
    assert _private_imports(ast.parse(src)) == ["from polyhedra import _facets", "lp._solve"]


def _unused_imports(tree: ast.Module) -> list[str]:
    """Every name an import binds that the module never reads; `__future__` is exempt."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_module_imports_a_name_it_never_reads(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_the_unused_import_guard_sees_both_forms():
    src = (
        "from __future__ import annotations\nimport json\nimport os.path\n"
        "from .linalg import add, dot as d, zeros\nd(os.path, zeros)\n"
    )
    assert _unused_imports(ast.parse(src)) == ["json", "add"]
