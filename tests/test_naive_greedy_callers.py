"""``selection.naive_greedy`` is the reference ``lazy_greedy`` is checked against,
not a program path: in the package only its definition and the cross-check of
``saco bench-greedy`` (``cli.cmd_bench_greedy``, through its import) name it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "saco"
ALLOWED = {("selection.py", "<module>", "def"), ("cli.py", "<module>", "import"),
           ("cli.py", "cmd_bench_greedy", "use")}


def references(source, name="naive_greedy"):
    """(enclosing function, kind, line) of every definition, import, name or
    attribute ``name`` in ``source``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if child.name == name:
                    found.append((where, "def", child.lineno))
                visit(child, child.name)
                continue
            if isinstance(child, ast.alias) and name in (child.name, child.asname):
                found.append((where, "import", child.lineno))
            elif (isinstance(child, ast.Name) and child.id == name
                  or isinstance(child, ast.Attribute) and child.attr == name):
                found.append((where, "use", child.lineno))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_finds_every_reference():
    source = ("from .selection import naive_greedy as ng, lazy_greedy\n"
              "def naive_greedy():\n    pass\n"
              "def run(sel):\n    return sel.naive_greedy, naive_greedy()\n"
              "x = lazy_greedy\n")
    assert references(source) == [("<module>", "import", 1), ("<module>", "def", 2),
                                   ("run", "use", 5), ("run", "use", 5)]


def test_naive_greedy_stays_off_the_program_paths():
    stray = [(path.name, where, kind, line) for path in sorted(PACKAGE.glob("*.py"))
             for where, kind, line in references(path.read_text())
             if (path.name, where, kind) not in ALLOWED]
    assert stray == []
