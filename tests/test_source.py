"""Static checks on the package source, for want of a linter in the test
environment: every name a module imports is read somewhere in it.
``__init__.py`` imports to re-export, so it is left out."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "drivenqubit"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


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


def test_unused_imports_are_found():
    source = "import os.path\nimport numpy as np\nfrom .bloch import _damping, _running_sum\nnp.ones(_damping)\n"
    assert unused_imports(source) == ["_running_sum", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []
