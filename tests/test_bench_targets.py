"""Every function the benchmark harness wraps is still in the program.

``perfbench/layers.py`` names its targets as strings, ``Target(owner, attr)``,
so neither an import nor the reach scan sees one disappear: the layer would
just read as absent in a traced run.  Here each target is resolved against the
package.  Targets known to be gone are listed in ``ABSENT`` by name, each until
the harness is retargeted (ROADMAP item 1)."""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
# the coding layer still wraps the one-patch coders that ``coding.Encoder`` replaced
ABSENT = {("saco.classify", "saco1"), ("saco.classify", "saco2"),
          ("saco.classify", "solve_weighted_l2_l1"), ("saco.classify", "spatial_weights"),
          ("saco.coding:Coder", "build")}


def targets(source):
    """(owner, attr) of every ``Target(owner, attr, ...)`` call in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Target":
            owner, attr = (ast.literal_eval(arg) for arg in node.args[:2])
            yield owner, attr


def resolves(owner, attr):
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return False
    if cls:
        obj = getattr(obj, cls, None)
    return hasattr(obj, attr)


def test_every_harness_target_resolves():
    found = set(targets(LAYERS.read_text()))
    assert len(found) > len(ABSENT)
    missing = {target for target in found if not resolves(*target)}
    assert sorted(missing - ABSENT) == []
    # a listed target that resolves again leaves the list
    assert sorted(ABSENT - missing) == []
