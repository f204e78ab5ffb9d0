"""Tests of the benchmark itself: inputs, span arithmetic, wrappers.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import inspect
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import layers  # noqa: E402
from tracer import Span, Tracer, covered_length, inclusive_time, self_times  # noqa: E402


# -- inputs -------------------------------------------------------------------


def test_select_instance_is_criterion_4s():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from test_acceptance import clustered_instance
    finally:
        sys.path.remove(str(ROOT / "tests"))
    want = clustered_instance(7, 10000)
    feats, coords, labels = inputs.clustered_instance(7, 10000)
    assert np.array_equal(np.stack([p.features for p in want]), feats)
    assert [p.coord for p in want] == [(float(x), float(y)) for x, y in coords]
    assert [p.label for p in want] == labels.tolist()


def _array_bytes(obj):
    if isinstance(obj, np.ndarray):
        return [obj.dtype.str.encode(), repr(obj.shape).encode(), obj.tobytes()]
    if isinstance(obj, (list, tuple)):
        return [b for item in obj for b in _array_bytes(item)]
    return [repr(obj).encode()]


@pytest.mark.parametrize("generate", [
    lambda seed: inputs.clustered_instance(seed, 2000),
    inputs.spatial_texture,
    lambda seed: inputs.viewpoints(seed, 10),
])
def test_inputs_repeat_byte_for_byte_and_follow_the_seed(generate):
    assert _array_bytes(generate(5)) == _array_bytes(generate(5))
    assert _array_bytes(generate(5)) != _array_bytes(generate(6))


def test_texture_and_viewpoints_are_the_acceptance_data():
    from saco.synth import make_spatial_texture, make_viewpoints

    train, test, _ = make_spatial_texture(n_classes=3, train_per_class=20, test_per_class=20,
                                          pool_size=120, feature_dim=64, noise=0.15, seed=0)
    mine = inputs.spatial_texture(0)
    assert len(mine) == len(train) + len(test)
    for img, (image_id, label, feats, coords) in zip(train + test, mine):
        assert (img.image_id, img.label) == (image_id, label)
        assert np.array_equal(img.features, feats) and np.array_equal(img.coords, coords)

    images, views, rotations = make_viewpoints(per_view=60, size=64, seed=0)
    pixels, my_views, my_rotations = inputs.viewpoints(0, 60)
    assert np.array_equal(np.stack([im.pixels for im in images]), pixels)
    assert np.array_equal(views, my_views) and np.array_equal(rotations, my_rotations)


# -- span arithmetic -------------------------------------------------------------


def _spans(*rows):
    return [Span(name, start, end, parent) for name, start, end, parent in rows]


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert covered_length([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == 4.0
    assert covered_length([(3.0, 4.0), (1.0, 5.0)], 0.0, 10.0) == 4.0


def test_self_time_subtracts_direct_children_only():
    spans = _spans(
        ("job", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 5.0, 9.0, 0),
        ("d", 6.0, 7.0, 3),
        ("e", 6.5, 8.0, 3),
    )
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])


def test_inclusive_time_counts_nested_same_name_once():
    spans = _spans(
        ("job", 0.0, 10.0, -1),
        ("x", 1.0, 5.0, 0),
        ("y", 2.0, 4.0, 1),
        ("x", 2.5, 3.0, 2),
        ("x", 6.0, 7.0, 0),
    )
    assert inclusive_time(spans, ["x"]) == pytest.approx(5.0)
    assert inclusive_time(spans, ["x", "y"]) == pytest.approx(5.0)
    assert inclusive_time(spans, ["y"]) == pytest.approx(2.0)


def test_layer_metrics_self_time_and_ratios():
    spans = _spans(
        ("job", 0.0, 10.0, -1),
        ("classify.encode", 1.0, 9.0, 0),
        ("coding.weights", 2.0, 3.0, 1),
        ("coding.solve", 3.0, 5.0, 1),
        ("coding.solve", 5.0, 8.0, 1),
    )
    m = layers.layer_metrics(spans, {"selection.gain_evals": 10})
    assert m["classify.encode_s"] == pytest.approx(8.0)
    assert m["classify.encode_self_s"] == pytest.approx(2.0)
    assert m["coding.solve_s"] == pytest.approx(5.0)
    assert m["coding.solves"] == 2
    assert m["coding.us_per_solve"] == pytest.approx(2.5e6)
    assert m["trace.coverage_frac"] == pytest.approx(0.8)
    # ratios over an empty base read 0, not an error
    assert m["selection.us_per_eval"] == 0.0 and m["selection.evals_per_atom"] == 0.0


# -- wrappers ----------------------------------------------------------------------


class _Thing:
    @classmethod
    def make(cls, x):
        return ("made", cls, x)


def _module():
    mod = types.ModuleType("fake")

    def outer(x):
        return mod.inner(x) * 2

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x + 1

    mod.outer, mod.inner = outer, inner
    return mod


def test_wrappers_record_parents_and_restore_originals():
    mod = _module()
    before = {a: inspect.getattr_static(mod, a) for a in ("outer", "inner")}
    before_make = inspect.getattr_static(_Thing, "make")
    tracer = Tracer()
    assert tracer.wrap(mod, "outer", "o")
    assert tracer.wrap(mod, "inner", "i", count=lambda fn, a, k, r: {"calls": 1})
    assert tracer.wrap(_Thing, "make", "m")

    with tracer.span("job"):
        assert mod.outer(1) == 4
        assert _Thing.make(3) == ("made", _Thing, 3)
        with pytest.raises(ValueError):
            mod.outer(-1)
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("job", -1), ("o", 0), ("i", 1), ("m", 0), ("o", 0), ("i", 4)]
    assert all(s.end >= s.start for s in tracer.spans)
    assert tracer.counts["calls"] == 1  # the raising call counts nothing

    tracer.restore()
    assert tracer.installed == 0
    assert {a: inspect.getattr_static(mod, a) for a in before} == before
    assert inspect.getattr_static(_Thing, "make") is before_make


def test_missing_name_is_skipped_and_its_layer_reported_absent():
    mod = _module()
    tracer = Tracer()
    assert not tracer.wrap(mod, "renamed_away", "x")
    assert tracer.installed == 0

    fake = types.ModuleType("perfbench_fake_layer")
    fake.inner = mod.inner
    sys.modules[fake.__name__] = fake
    try:
        table = {
            "kept": [layers.Target(fake.__name__, "inner", "kept.inner")],
            "gone": [layers.Target(fake.__name__, "inner", "gone.inner"),
                     layers.Target(fake.__name__, "renamed_away", "gone.x")],
            "no_module": [layers.Target("perfbench_no_such_module", "f", "n.f")],
        }
        assert layers.install(tracer, table) == ["gone", "no_module"]
        assert tracer.installed == 1
        tracer.restore()
        assert fake.inner is mod.inner
    finally:
        del sys.modules[fake.__name__]


def test_install_on_the_program_restores_every_target():
    tracer = Tracer()
    targets = [t for ts in layers.LAYERS.values() for t in ts]
    before = [inspect.getattr_static(layers._resolve(t.owner), t.attr) for t in targets]
    assert layers.install(tracer) == []
    assert tracer.installed == len(targets)
    tracer.restore()
    after = [inspect.getattr_static(layers._resolve(t.owner), t.attr) for t in targets]
    assert all(a is b for a, b in zip(after, before))


# -- the benchmark definition --------------------------------------------------------


def test_declared_metrics_match_what_the_runs_report():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(m["name"] for m in doc["per_layer"]) == list(layers.zero_metrics())
    assert [m["name"] for m in doc["end_to_end"]] == ["job_s", "setup_s", "peak_rss_mb"]
    from workloads import WORKLOADS

    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "align-views", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
