"""Static checks over the package source, read with ``ast``.

The package is stdlib-only: every import names a standard-library module
or the package itself.  And no module other than ``__init__`` (whose
imports are its re-exports) imports a name it never uses, so code that
is deleted takes its imports with it.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "contactposets"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imports(tree):
    """(top-level module or None for a relative import, bound names) per
    import statement, wherever it sits in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield alias.name.split(".")[0], [bound]
        elif isinstance(node, ast.ImportFrom):
            top = None if node.level else node.module.split(".")[0]
            yield top, [alias.asname or alias.name for alias in node.names]


def test_modules_found():
    assert {path.name for path in MODULES} >= {"__init__.py", "core.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_are_stdlib_or_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    foreign = [
        top
        for top, _ in _imports(tree)
        if top is not None
        and top != "contactposets"
        and top not in sys.stdlib_module_names
    ]
    assert foreign == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda path: path.name
)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = [
        name
        for top, names in _imports(tree)
        if top != "__future__"
        for name in names
    ]
    assert [name for name in imported if name not in used] == []
