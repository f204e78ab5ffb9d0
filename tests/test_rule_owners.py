"""Rules the package applies in many places have one owner, ``saco.data``:
``check_count`` and ``whole_numbers``, the only code that needs the
``numbers`` module, and the block budget ``BLOCK_DOUBLES`` with
``block_rows``.  No other module imports ``numbers`` or defines a
module-level ``*BLOCK_DOUBLES`` of its own."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "saco"
OWNER = "data.py"


def restated_rules(source):
    """(rule, line) of every import of ``numbers`` and every module-level
    assignment to a name ending in ``BLOCK_DOUBLES`` in ``source``, by line."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [("numbers", node.lineno) for alias in node.names
                      if alias.name.split(".")[0] == "numbers"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and \
                (node.module or "").split(".")[0] == "numbers":
            found.append(("numbers", node.lineno))
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                   else [])
        if any(isinstance(name, ast.Name) and name.id.endswith("BLOCK_DOUBLES")
               for target in targets for name in ast.walk(target)):
            found.append(("BLOCK_DOUBLES", node.lineno))
    return sorted(found, key=lambda item: item[1])


def test_scan_finds_every_restated_rule():
    source = ("import numbers\nimport os, numbers.abc\nfrom numbers import Integral\n"
              "def f():\n    import numbers\n    LOCAL_BLOCK_DOUBLES = 3\n"
              "KNN_BLOCK_DOUBLES = 1 << 18\nA, SOLVE_BLOCK_DOUBLES = 1, 2\n"
              "BLOCK_DOUBLES: int = 4\nfrom .data import BLOCK_DOUBLES\nfrom . import numbers\n")
    assert restated_rules(source) == [("numbers", 1), ("numbers", 2), ("numbers", 3),
                                      ("numbers", 5), ("BLOCK_DOUBLES", 7),
                                      ("BLOCK_DOUBLES", 8), ("BLOCK_DOUBLES", 9)]


def test_each_rule_stays_with_its_owner():
    stray = [(path.name, rule, line) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != OWNER for rule, line in restated_rules(path.read_text())]
    assert stray == []
    assert {rule for rule, _ in restated_rules((PACKAGE / OWNER).read_text())} == \
        {"numbers", "BLOCK_DOUBLES"}
