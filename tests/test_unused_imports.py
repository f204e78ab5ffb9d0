"""No module in the package, the test suite or the scripts imports a name it never uses,
and no private module-level name in the package goes unreferenced."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "saco").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def imported_names(tree):
    """(bound name, line) for every import except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in imported_names(tree) if name not in used]


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport a.b\nfrom c import d as e, f\nf()\n"
    assert unused_imports(source) == [("os", 2), ("a", 3), ("e", 4)]


@pytest.mark.parametrize("path", FILES, ids=[f"{p.parent.name}/{p.name}" for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(tree):
    """(name, line) of each module-level private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def referenced_names(tree):
    """Every name read, attribute looked up or name imported in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def dead_private_names(sources):
    """(module, name, line) of private module-level names no source references."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = {name for tree in trees.values() for name in referenced_names(tree)}
    return [(module, name, line) for module, tree in trees.items()
            for name, line in private_definitions(tree)
            if name.startswith("_") and not name.startswith("__") and name not in used]


def test_scan_finds_dead_private_code():
    sources = {
        "a": "_LIMIT = 3\n_DEAD = 4\ndef _kept():\n    return _LIMIT\ndef _gone():\n    pass\n"
             "class _Gone:\n    pass\nkept = _kept()\n",
        "b": "from .a import _shared\nimport a\na._attr()\n",
        "c": "def _shared():\n    pass\ndef _attr():\n    pass\n__all__ = []\n",
    }
    assert dead_private_names(sources) == [("a", "_DEAD", 2), ("a", "_gone", 5), ("a", "_Gone", 7)]


def test_no_dead_private_code():
    assert dead_private_names({p.name: p.read_text() for p in PACKAGE}) == []
