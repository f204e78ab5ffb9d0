"""Every file the package writes is opened in one of three functions:
``data.write_lines`` for text, ``tensorio.write_tensor`` for feature
tensors and ``align.write_pgm`` for images."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "saco"
WRITERS = {("data.py", "write_lines"), ("tensorio.py", "write_tensor"),
           ("align.py", "write_pgm")}


def _opens_for_writing(call: ast.Call) -> bool:
    """``open(path, mode)`` or ``path.open(mode)`` whose mode is not a constant read
    mode, or a ``Path.write_text`` / ``write_bytes``."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    at = 1 if isinstance(func, ast.Name) else 0
    mode = call.args[at] if len(call.args) > at else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def file_writers(source):
    """(enclosing function, line) of every call in ``source`` that opens a file for writing."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                if isinstance(child, ast.Call) and _opens_for_writing(child):
                    found.append((where, child.lineno))
                visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_finds_every_writer():
    source = ("def read(p):\n    return open(p, 'rb'), open(p), open(p, mode='r'), p.open()\n"
              "def write(p, mode):\n    open(p, 'w')\n    open(p, mode=mode)\n"
              "    def inner():\n        p.write_text('x')\n        p.open('a')\n    return inner\n"
              "open('log', 'a')\n")
    assert file_writers(source) == [("write", 4), ("write", 5), ("inner", 7), ("inner", 8),
                                    ("<module>", 10)]


def test_only_the_three_writers_open_files_for_writing():
    stray = [(path.name, where, line) for path in sorted(PACKAGE.glob("*.py"))
             for where, line in file_writers(path.read_text())
             if (path.name, where) not in WRITERS]
    assert stray == []
