"""Every public function, class and public method of the package is reached by a
program: some module of the package, a script, the benchmark harness or the README
names it outside its own definition.  Code only tests call is deleted, or listed
in ``ALLOWED`` with the reason it stays."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "saco").glob("*.py"))
PROGRAMS = [*PACKAGE, *sorted((ROOT / "scripts").glob("*.py")),
            *sorted((ROOT / "perfbench").glob("*.py"))]
ALLOWED = {"default_theta_grid": "ROADMAP item 10 decides"}


def public_definitions(tree):
    """(name, first line, last line) of each public module-level function or class
    and each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
                        yield item.name, item.lineno, item.end_lineno


def name_uses(tree):
    """(name, line) of every name read, attribute looked up or name imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def unreached(definitions, programs, text=""):
    """(module, name, line) of each definition no program names outside its own lines.

    ``definitions`` maps a module to its source, ``programs`` maps every
    program file (the modules among them) to its source, and ``text`` is
    prose whose whole words count as names.
    """
    uses = {path: list(name_uses(ast.parse(source))) for path, source in programs.items()}
    words = set(re.findall(r"\w+", text))
    found = []
    for module, source in definitions.items():
        for name, first, last in public_definitions(ast.parse(source)):
            named = name in words or any(
                used == name and (path != module or not first <= line <= last)
                for path, pairs in uses.items() for used, line in pairs)
            if not named:
                found.append((module, name, first))
    return found


def test_every_public_definition_is_reached_by_a_program():
    # the scan itself, on a module whose unreached definitions are known
    lib = ("def used():\n    return helper()\n"
           "def helper():\n    return 1\n"
           "def recursive(n):\n    return recursive(n - 1)\n"
           "def _private():\n    pass\n"
           "class Box:\n    def size(self):\n        return self.size()\n"
           "    def shown(self):\n        pass\n"
           "    def _hidden(self):\n        pass\n")
    programs = {"lib": lib, "script": "from lib import used\nused()\n"}
    assert unreached({"lib": lib}, programs, "Call `Box.shown()` for details.") == [
        ("lib", "recursive", 5), ("lib", "size", 10)]

    programs = {path: path.read_text() for path in PROGRAMS}
    found = unreached({path: programs[path] for path in PACKAGE}, programs,
                      (ROOT / "README.md").read_text())
    stray = [(path.name, name, line) for path, name, line in found if name not in ALLOWED]
    assert stray == []
    # an entry that is reached again leaves the list
    assert sorted(name for _, name, _ in found) == sorted(ALLOWED)
