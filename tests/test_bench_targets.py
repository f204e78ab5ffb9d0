"""Every function the benchmark harness wraps or calls is still in the program.

``perfbench/layers.py`` names its targets as strings, ``Target(owner, attr)``,
so neither an import nor the reach scan sees one disappear: the layer would
just read as absent in a traced run.  Here each target is resolved against the
package.  Targets known to be gone are listed in ``ABSENT`` by name, each until
the harness is retargeted (ROADMAP item 1).  The names the workloads' jobs and
checks import from ``saco`` or call as ``module.attr`` are resolved too, so a
renamed one fails here rather than in a benchmark run."""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
WORKLOADS = LAYERS.with_name("workloads.py")
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


def used_names(source):
    """(module, attr) of every name ``source`` imports from a ``saco`` module or
    reaches as ``alias.attr`` through one it imports as ``import saco.x as alias``."""
    tree = ast.parse(source)
    aliases, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((alias.asname or alias.name, alias.name) for alias in node.names
                           if alias.name.split(".")[0] == "saco")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "saco":
            found.update((node.module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and \
                node.value.id in aliases:
            found.add((aliases[node.value.id], node.attr))
    return found


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


def test_scan_finds_the_saco_names_a_source_uses():
    source = ("import numpy as np\nimport saco.align as align\nimport saco.graphs\n"
              "from saco.data import Patch, sample_candidates\nfrom .x import y\n"
              "model = align.k_medoids(images, 2, grid)\nf = align.WORK_SIZE\n"
              "np.zeros(3)\ninputs.viewpoints(0)\nalign.x.y\n")
    assert used_names(source) == {("saco.align", "k_medoids"), ("saco.align", "WORK_SIZE"),
                                  ("saco.align", "x"), ("saco.data", "Patch"),
                                  ("saco.data", "sample_candidates")}


def test_every_workload_name_resolves():
    found = used_names(WORKLOADS.read_text())
    assert {("saco.selection", "evaluate_ids"), ("saco.align", "k_medoids"),
            ("saco.align", "align_to_medoid"), ("saco.classify", "src_image_accuracy"),
            ("saco.data", "Patch")} <= found
    assert sorted(name for name in found if not resolves(*name)) == []
