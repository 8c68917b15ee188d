"""Static checks on the package source, for want of a linter in the test
environment: every name a module imports is read somewhere in it, every
module-level private name is read somewhere in the package, and the command
line imports only the library's public names.  ``__init__.py`` imports to
re-export, so the first check leaves it out."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "drivenqubit"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def read_names(tree: ast.AST) -> set:
    """Names an expression of ``tree`` reads, as a variable or an attribute."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def unused_imports(source: str) -> list:
    """Names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def private_definitions(tree: ast.Module) -> set:
    """Module-level private functions, classes and constants of ``tree``;
    dunder names are exempt."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))}


def unread_private_names(sources: list) -> list:
    """Module-level private names defined in ``sources`` that no expression
    of any of them reads; importing a name is not reading it."""
    trees = [ast.parse(source) for source in sources]
    defined = set().union(*(private_definitions(tree) for tree in trees))
    return sorted(defined - set().union(*(read_names(tree) for tree in trees)))


def private_imports(source: str) -> list:
    """Private names that ``source`` imports from the package's modules."""
    return sorted(
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").partition(".")[0] == PACKAGE.name)
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_unused_imports_are_found():
    source = "import os.path\nimport numpy as np\nfrom .bloch import _damping, _running_sum\nnp.ones(_damping)\n"
    assert unused_imports(source) == ["_running_sum", "os"]


def test_unread_private_names_are_found():
    defining = (
        "__all__ = []\n_A, (_B, C) = 1, (2, 3)\n_D: int = 4\n"
        "def _fold(): return _A\ndef _node_values(): pass\nclass _K: pass\nclass E:\n    _x = 1\n"
    )
    reading = "from .m import _fold, _node_values\nimport m\n_fold()\nm._K\n"
    assert unread_private_names([defining]) == ["_B", "_D", "_K", "_fold", "_node_values"]
    assert unread_private_names([defining, reading]) == ["_B", "_D", "_node_values"]


def test_private_imports_are_found():
    source = (
        "from __future__ import annotations\nfrom os import _exit\nfrom .asymptotics import _folds, steady_fold\n"
        "from . import _private\nfrom drivenqubit.bloch import _damping\n"
    )
    assert private_imports(source) == ["_damping", "_folds", "_private"]


def test_cli_imports_only_public_names():
    assert private_imports((PACKAGE / "cli.py").read_text()) == []


def test_steady_maps_read_bands_through_node_values():
    # The window and the fold evaluate their series through
    # bloch._node_values alone, the one place that sums coefficient rows
    # at nodes.
    imported = private_imports((PACKAGE / "asymptotics.py").read_text())
    assert "_node_values" in imported
    assert not {"_running_sum", "_coefficient_rows"} & set(imported)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_every_private_name_is_read():
    assert unread_private_names([path.read_text() for path in sorted(PACKAGE.glob("*.py"))]) == []
