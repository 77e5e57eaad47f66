"""Every name a module of the package imports is used in that module, and
every private module-level name it defines is read there."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ffsubspace"


def unused_imports(source: str) -> list:
    """Names bound by an import and never read, except those in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, alias.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used | exported
    )


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def orphaned_private(source: str) -> list:
    """Private module-level functions, classes and constants (`_name`) that
    the module never reads outside their own definition."""
    tree = ast.parse(source)
    defined, read = {}, set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            own = {t.id for t in targets if isinstance(t, ast.Name)}
        else:
            own = set()
        for name in own:
            if _is_private(name):
                defined.setdefault(name, node.lineno)
        read |= {
            n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        } - own
    return sorted((line, name) for name, line in defined.items() if name not in read)


MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_orphaned_private_names(path):
    assert orphaned_private(path.read_text(encoding="utf-8")) == []


def test_unused_imports_finds_them():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json.decoder\n"
        "from math import comb, lcm\n"
        "__all__ = ['lcm']\n"
        "def f(x: comb):\n"
        "    import sys\n"
        "    return json.decoder\n"
    )
    assert unused_imports(source) == [(2, "os"), (2, "osp"), (7, "sys")]


def test_orphaned_private_finds_them():
    source = (
        "_USED = 1\n"
        "_UNUSED: int = 2\n"
        "__all__ = []\n"
        "def _helper():\n"
        "    return _USED\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else 0\n"
        "class _Orphan:\n"
        "    pass\n"
        "def public():\n"
        "    return _helper()\n"
    )
    assert orphaned_private(source) == [(2, "_UNUSED"), (6, "_recursive"), (8, "_Orphan")]
