"""Rules the package applies in many places have one owner, ``saco.data``:
``check_count`` and ``whole_numbers``, the only code that needs the
``numbers`` module, ``check_scalar`` for finite scalars in a range, the
only code that calls ``math.isfinite``, ``finite_array`` for finite arrays
of a shape, ``read_only``, the one place
that marks an array read-only, the block budget ``BLOCK_DOUBLES`` with
``blocks``, the one walk over rows in blocks, ``whole_numbers``, the one
"whole number >= 0" rule of ids and labels, and ``positions``, the one reader
of an id or label list.  No other module imports ``numbers`` or ``operator``,
calls ``math.isfinite`` or ``operator.index``, defines a module-level ``*BLOCK_DOUBLES`` of its own, walks
blocks itself (``np.array_split`` or a stepped ``range``), compares a value
against infinity or an ``.ndim`` attribute, compares an id or label with 0,
or assigns to ``.flags.writeable``, and no package module imports another
one's underscore name."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "saco"
OWNER = "data.py"
# ``ids``, ``image_ids``, ``label``, ``self.labels``, or ``y`` as classify names labels
ID_OR_LABEL = re.compile(r"(^|_)(ids?|labels?)$|^y$")
# the rule each module's import restates
IMPORT_RULES = {"numbers": "numbers", "operator": "index"}


def _is_inf(node):
    """Whether ``node`` is ``np.inf``, ``numpy.inf``, ``math.inf`` or
    ``float("inf")``, signed or not."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Attribute):
        return node.attr == "inf" and isinstance(node.value, ast.Name) and \
            node.value.id in ("np", "numpy", "math")
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
        node.func.id == "float" and len(node.args) == 1 and \
        isinstance(node.args[0], ast.Constant) and \
        str(node.args[0].value).strip().lstrip("+-").lower() in ("inf", "infinity")


def _is_id_or_label(node):
    """Whether ``node`` names an id or label array: its name, an attribute, an
    indexed one (``ids[rows]``) or one whose method is called (``labels.min()``)."""
    while isinstance(node, ast.Subscript) or (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        node = node.value if isinstance(node, ast.Subscript) else node.func.value
    name = node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else ""
    return bool(ID_OR_LABEL.search(name))


def _is_zero(node):
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and \
        node.value == 0


def restated_rules(source):
    """(rule, line) of every import of ``numbers``, every module-level
    assignment to a name ending in ``BLOCK_DOUBLES``, every call of
    ``array_split`` or of a three-argument ``range``, every comparison
    against an infinity constant, of an ``.ndim`` attribute or of an id or
    label with 0 (a sign test), every assignment to a ``.flags.writeable``
    attribute, every ``math.isfinite`` call or import, every import of
    ``operator`` or ``operator.index`` call and every import of an underscore
    name from a package module (relative or ``saco.*``) in ``source``, by line."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(map(_is_inf, [node.left, *node.comparators])):
            found.append(("inf", node.lineno))
        elif isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Attribute) and node.func.attr == "array_split") or
                (isinstance(node.func, ast.Name) and node.func.id == "range"
                 and len(node.args) == 3)):
            found.append(("block walk", node.lineno))
        elif isinstance(node, ast.ImportFrom) and \
                (node.level or (node.module or "").split(".")[0] == "saco") and \
                any(alias.name.startswith("_") for alias in node.names):
            found.append(("private import", node.lineno))
        if isinstance(node, ast.Compare) and any(
                isinstance(side, ast.Attribute) and side.attr == "ndim"
                for side in [node.left, *node.comparators]):
            found.append(("ndim", node.lineno))
        if isinstance(node, ast.Compare) and \
                any(map(_is_zero, [node.left, *node.comparators])) and \
                any(map(_is_id_or_label, [node.left, *node.comparators])):
            found.append(("sign", node.lineno))
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and any(
                isinstance(t, ast.Attribute) and t.attr == "writeable" and
                isinstance(t.value, ast.Attribute) and t.value.attr == "flags"
                for target in getattr(node, "targets", [getattr(node, "target", None)])
                for t in ast.walk(target)):
            found.append(("writeable", node.lineno))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and \
                node.func.attr == "isfinite" and isinstance(node.func.value, ast.Name) and \
                node.func.value.id == "math":
            found.append(("isfinite", node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and \
                any(alias.name == "isfinite" for alias in node.names):
            found.append(("isfinite", node.lineno))
        if isinstance(node, ast.Import):
            found += [(IMPORT_RULES[top], node.lineno) for alias in node.names
                      if (top := alias.name.split(".")[0]) in IMPORT_RULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and \
                (top := (node.module or "").split(".")[0]) in IMPORT_RULES:
            found.append((IMPORT_RULES[top], node.lineno))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and \
                node.func.attr == "index" and isinstance(node.func.value, ast.Name) and \
                node.func.value.id == "operator":
            found.append(("index", node.lineno))
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
              "BLOCK_DOUBLES: int = 4\nfrom .data import BLOCK_DOUBLES\nfrom . import numbers\n"
              "ok = 0 < v < np.inf\nif x >= -math.inf: pass\nf = float(' Inf ') == y\n"
              "big = np.full(3, np.inf)\ng = v < float(1)\nh = numpy.inf != v\n"
              "from .coding import Encoder, _reject_rows\nfrom . import _private\n"
              "from saco.coding import _check\nfrom .data import check_count\n"
              "from numpy import _core\nfrom __future__ import annotations\n"
              "for lo in range(0, m, rows): pass\nparts = np.array_split(idx, 3)\n"
              "ok = range(0, m), np.arange(0, m, 2), range(m)\n"
              "if a.ndim != 2 or 1 < b.ndim: pass\nok = np.empty(a.ndim), a.ndim + 1\n"
              "if len(a.shape) != 2: pass\n"
              "a.flags.writeable = False\nfor x in xs: x.flags.writeable = False\n"
              "op.data.flags.writeable: bool = False\nb, c.flags.writeable = 1, 0\n"
              "ok = a.flags.writeable, a.setflags(write=True), b.writeable == False\n"
              "bad |= ids < 0\nif (self.labels < 0).any() or labels.min() < 0: pass\n"
              "ok = 0 > label, y >= 0.0, image_ids[rows] < 0, medoid_ids != 0\n"
              "ok = scores[best] < 0, -neg_g < 0, 0 <= pid < m, ids < 1, len(ids) == 0\n"
              "ok = 0 < v, yi >= 0, labels == c, x.ids, valid & (ids == ids)\n"
              "if not math.isfinite(theta): pass\nfrom math import isfinite, pi\n"
              "ok = np.isfinite(a).all(), numpy.isfinite(b), math.isnan(c), m.isfinite(d)\n"
              "import operator\npid = operator.index(i)\nfrom operator import index\n"
              "ok = ids.index(3), op.index(i), operator_index(i), import_operator\n")
    assert restated_rules(source) == [("numbers", 1), ("numbers", 2), ("numbers", 3),
                                      ("numbers", 5), ("BLOCK_DOUBLES", 7),
                                      ("BLOCK_DOUBLES", 8), ("BLOCK_DOUBLES", 9),
                                      ("inf", 12), ("inf", 13), ("inf", 14), ("inf", 17),
                                      ("private import", 18), ("private import", 19),
                                      ("private import", 20), ("block walk", 24),
                                      ("block walk", 25), ("ndim", 27), ("ndim", 27),
                                      ("writeable", 30), ("writeable", 31),
                                      ("writeable", 32), ("writeable", 33),
                                      ("sign", 35), ("sign", 36), ("sign", 36),
                                      ("sign", 37), ("sign", 37), ("sign", 37), ("sign", 37),
                                      ("isfinite", 40), ("isfinite", 41), ("index", 43),
                                      ("index", 44), ("index", 45)]


def test_each_rule_stays_with_its_owner():
    stray = [(path.name, rule, line) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != OWNER for rule, line in restated_rules(path.read_text())]
    assert stray == []
    assert {rule for rule, _ in restated_rules((PACKAGE / OWNER).read_text())} == \
        {"numbers", "BLOCK_DOUBLES", "ndim", "writeable", "isfinite"}
