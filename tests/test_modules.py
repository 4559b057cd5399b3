"""Module boundaries inside the package: no module of `weylcone` reads a
private (underscore) name of another, by `from .x import _y` or by `x._y`,
no module imports a name it never reads, nothing it defines goes unread,
and every defaulted parameter is passed by some call."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "weylcone").glob("*.py"))
READERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


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


def _lp_reads(tree: ast.Module) -> set[str]:
    """Every name of the package module `lp` that a module reads, by `from .lp import x`
    or as `lp.x` with `lp` bound by `from . import lp`."""
    bound, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or node.module == "weylcone"):
            if node.module == "lp":
                found |= {a.name for a in node.names}
            elif node.module in (None, "weylcone"):
                bound |= {a.asname or a.name for a in node.names if a.name == "lp"}
    found |= {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound
    }
    return found


# The LP entry points each module may read: `regions` solves an LP only for the
# points it keeps (the cone witnesses and the threshold certificate); its
# emptiness questions go through `polyhedra`.
LP_READS = {
    "chambers": {"feasible_point"},
    "polyhedra": {"feasible_point", "solve"},
    "regions": {"interior_point", "lexmin_point"},
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_each_module_reads_only_its_pinned_lp_entry_points(path):
    assert _lp_reads(ast.parse(path.read_text())) == LP_READS.get(path.stem, set())


def test_the_lp_guard_sees_both_forms():
    src = "from . import lp, polyhedra\nfrom .lp import solve\nlp.feasible_point(1)\npolyhedra.in_hull(2)\n"
    assert _lp_reads(ast.parse(src)) == {"solve", "feasible_point"}


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


def _definitions(tree: ast.Module) -> list[str]:
    """Top-level functions and classes, and the non-dunder methods of those classes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [
                f"{node.name}.{m.name}"
                for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not m.name.endswith("__")
            ]
    return found


def _read_names(trees) -> set[str]:
    """Every name read as a Name, as an attribute, or bound by an import."""
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.alias):
                read.add(n.name)
    return read


def _dead_names(defining: ast.Module, read: set[str]) -> list[str]:
    return [name for name in _definitions(defining) if name.rpartition(".")[2] not in read]


def test_every_function_class_and_method_of_the_package_is_read_somewhere():
    """Name-based: a definition counts as read when its bare name is read
    anywhere in `src/`, `tests/` or `perfbench/`, so a dead name that shares
    its spelling with another reader (a method `at` beside a live `at`) hides."""
    read = _read_names(ast.parse(p.read_text()) for p in READERS)
    dead = [f"{p.stem}.{name}" for p in SOURCES for name in _dead_names(ast.parse(p.read_text()), read)]
    assert dead == []


def test_the_dead_name_guard_sees_functions_classes_and_methods():
    src = (
        "class Box:\n    def __init__(self): pass\n    def used(self): pass\n    def unused(self): pass\n"
        "def called(): pass\ndef orphan(): pass\nclass Lonely: pass\n"
    )
    reader = "from .x import called\nBox().used()\n"
    assert _dead_names(ast.parse(src), _read_names([ast.parse(reader)])) == ["Box.unused", "orphan", "Lonely"]


def _defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(name called, parameter, position) for every parameter with a default of
    a top-level function or of a method (an `__init__` is called by its class's
    name); the position counts the arguments a call passes, so it skips a
    method's self or cls, and is None for keyword-only ones."""
    found = []
    functions = [(n, None) for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        functions += [(m, cls) for m in cls.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for fn, cls in functions:
        name = cls.name if cls and fn.name == "__init__" else fn.name
        bound = cls is not None and not any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
        params = [*fn.args.posonlyargs, *fn.args.args][int(bound) :]
        defaulted = params[len(params) - len(fn.args.defaults) :]
        found += [(name, a.arg, params.index(a)) for a in defaulted]
        found += [(name, a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return found


def _calls(trees) -> dict[str, list[ast.Call]]:
    """Every call by the bare name it calls, leaving out a function's calls to itself."""
    calls: dict[str, list[ast.Call]] = {}

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None and name not in enclosing:
                calls.setdefault(name, []).append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for tree in trees:
        visit(tree, frozenset())
    return calls


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):  # by keyword, or **kwargs
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def _unset_options(defining: ast.Module, calls: dict[str, list[ast.Call]]) -> list[str]:
    return [
        f"{fn}({param})"
        for fn, param, position in _defaulted_parameters(defining)
        if not any(_passes(c, param, position) for c in calls.get(fn, ()))
    ]


def test_every_option_of_the_package_is_set_by_some_call():
    """A defaulted parameter that no call in `src/`, `tests/` or `perfbench/`
    passes is a constant spelled as an option.  Name-based like the dead-name
    guard: a call counts for every definition of the name it calls."""
    calls = _calls(ast.parse(p.read_text()) for p in READERS)
    unset = [f"{p.stem}.{name}" for p in SOURCES for name in _unset_options(ast.parse(p.read_text()), calls)]
    assert unset == []


def test_the_option_guard_sees_keywords_positions_stars_and_self_calls():
    src = (
        "def f(a, k=1, j=2): pass\n"
        "def rec(n, bound=0):\n    return rec(n - 1, bound)\n"
        "def g(*, flag=False): pass\n"
        "def h(a, b=0): pass\n"
        "class Box:\n    def __init__(self, a, b=0, c=1): pass\n    def m(self, a, size=3): pass\n"
        "    @staticmethod\n    def s(a, size=3): pass\n"
    )
    reader = "f(0, j=5)\nh(*args)\ng(**opts)\nBox(1, 2).m(1, 2)\nBox.s(1)\n"
    calls = _calls([ast.parse(src), ast.parse(reader)])
    assert _unset_options(ast.parse(src), calls) == ["f(k)", "rec(bound)", "Box(c)", "s(size)"]
