"""No package module imports a name it never uses.

No linter ships with the test dependencies, so this parses each module of
``src/reachverify`` with ``ast``: an imported name must be read somewhere
in the module (annotations included, quoted ones too), be listed in its
``__all__``, or carry ``# noqa: F401`` on its line.  ``__init__.py`` is
skipped: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "reachverify"
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imports(tree, lines):
    """``(name, line)`` of every import binding not marked ``noqa: F401``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    yield name, alias.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used_names(ast.parse(node.value, mode="eval"))
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    """``(name, line)`` of each import of ``source`` that the module never uses."""
    tree = ast.parse(source)
    kept = _used_names(tree) | _exported(tree)
    return [(name, line) for name, line in _imports(tree, source.splitlines())
            if name not in kept]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_an_unused_import_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import itertools\n"
        "import numpy as np\n"
        "from .geometry import Grid, interpolate\n"
        "from .scene import load_tube_manifest  # noqa: F401\n"
        "from .dynamics import rate\n"
        "__all__ = ['rate']\n"
        "def f(g: Grid) -> 'np.ndarray':\n"
        "    return g\n"
    )
    assert unused_imports(source) == [("itertools", 2), ("interpolate", 4)]
