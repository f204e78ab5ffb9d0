"""Every value type owns read-only arrays: checked once when it is built, valid for
good.  One table covers them all: writing through a value's array raises, and
writing into the arrays it was built from leaves it unchanged.  Rows the program
has just gathered reach their value read-only, so they are not copied again."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import saco
import saco.align as al
from saco.classify import LinearSvmModel
from saco.data import (Dictionary, ImageFeatures, LabeledImage, Patch, PatchSet, finite_array,
                       read_only, sample_candidates)
from saco.synth import make_spatial_texture, make_viewpoints


def _inputs(seed):
    """Writable arrays to build values from: (6, 3) features, (6, 2) coords in
    [0,1]^2, (6,) whole-number labels and a (2, 40, 40) thumbnail stack."""
    rng = np.random.default_rng(seed)
    return {"features": rng.normal(size=(6, 3)), "coords": rng.uniform(size=(6, 2)),
            "labels": rng.integers(0, 3, size=6), "thumbs": rng.uniform(size=(2, 40, 40)),
            "grid": np.arange(0.0, 360.0, 30.0)}


def _patch_rows(a):
    return [Patch(i, a["features"][i], tuple(a["coords"][i]), int(a["labels"][i]), 0)
            for i in range(len(a["labels"]))]


# type: (build a value from the writable inputs, the value's arrays by name)
TABLE = {
    "LabeledImage": (lambda a: LabeledImage(3, a["features"], 1),
                     lambda v: {"pixels": v.pixels}),
    "ImageFeatures": (lambda a: ImageFeatures(4, 2, a["features"], a["coords"]),
                      lambda v: {"features": v.features, "coords": v.coords}),
    "PatchSet": (lambda a: PatchSet(a["features"], a["coords"], a["labels"], a["labels"],
                                    a["labels"]),
                 lambda v: {"features": v.features, "coords": v.coords, "labels": v.labels,
                            "image_ids": v.image_ids, "ids": v.ids,
                            "row features": v[0].features}),
    "Dictionary": (lambda a: Dictionary(_patch_rows(a)),
                   lambda v: {"matrix": v.matrix, "gram": v.gram(),
                              "atom_coords": v.atom_coords, "atom_labels": v.atom_labels}),
    "ViewpointModel": (lambda a: al.ViewpointModel([4, 9], list(a["thumbs"]), a["grid"]),
                       lambda v: {"thumbnails": v.thumbnails, "thumbnail 0": v.thumbnails[0],
                                  "theta_grid": v.theta_grid}),
    "LinearSvmModel": (lambda a: LinearSvmModel(a["features"], a["coords"][:, 0]),
                       lambda v: {"weights": v.weights, "biases": v.biases}),
}


@pytest.mark.parametrize("kind", TABLE)
def test_writing_through_a_value_raises(kind):
    build, arrays = TABLE[kind]
    value = build(_inputs(0))
    for name, arr in arrays(value).items():
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            np.negative(arr, out=arr)
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, getattr(value, field.name))


@pytest.mark.parametrize("kind", TABLE)
def test_writing_into_the_inputs_leaves_the_value_unchanged(kind):
    build, arrays = TABLE[kind]
    inputs = _inputs(1)
    value = build(inputs)
    want = arrays(build(_inputs(1)))
    for arr in inputs.values():
        arr[...] = -1
    got = arrays(value)
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


def test_finite_array_takes_only_a_read_only_array_that_owns_its_data():
    frozen = read_only(np.arange(6.0).reshape(2, 3).copy())
    assert finite_array("a", frozen, (2, 3)) is frozen
    writable = np.arange(6.0).reshape(2, 3)
    for other in (writable, writable.T, read_only(writable[:1]), frozen[:1], frozen.T):
        out = finite_array("a", other, (None, None))
        assert not out.flags.writeable and out.flags.c_contiguous
        assert not np.shares_memory(out, other)


@pytest.fixture
def copies(monkeypatch):
    """The names of the arrays that ``finite_array`` copies, counted in every
    package module that imports it."""
    made = []

    def counted(name, value, shape, where=None):
        out = finite_array(name, value, shape, where)
        if out is not value:
            made.append(name)
        return out

    for info in pkgutil.iter_modules(saco.__path__):
        module = importlib.import_module(f"saco.{info.name}")
        if getattr(module, "finite_array", None) is finite_array:
            monkeypatch.setattr(module, "finite_array", counted)
    return made


def test_sampled_and_gathered_rows_are_not_copied_again(copies):
    pools, _, _ = make_spatial_texture(n_classes=2, train_per_class=3, test_per_class=1,
                                       pool_size=16, feature_dim=8, seed=0)
    copies.clear()  # the generator's own arrays are copied into its pools
    ps = sample_candidates(pools, per_image=5, seed=0)
    sub = ps[np.arange(0, len(ps), 2)]
    assert copies == []
    np.testing.assert_array_equal(sub.features, ps.features[::2])
    np.testing.assert_array_equal(sub.coords, ps.coords[::2])


def test_a_value_rebuilt_from_another_shares_its_arrays():
    ps = PatchSet.of(_patch_rows(_inputs(2)))
    again = PatchSet(ps.features, ps.coords, ps.labels, ps.image_ids, ps.ids)
    assert again.features is ps.features and again.coords is ps.coords
    image = LabeledImage(0, np.ones((3, 3)), 0)
    assert LabeledImage(1, image.pixels, 0).pixels is image.pixels


def test_a_rejected_thumbnail_write_leaves_alignment_unchanged():
    images, _, _ = make_viewpoints(per_view=4, seed=0)
    model, _, _ = al.k_medoids(images, 2, al.default_theta_grid(), seed=0)
    with pytest.raises(ValueError):
        model.thumbnails[0][:] = np.nan
    assert [al.align_to_medoid(img, model)[2] for img in images[:3]] == [140.0, 270.0, 350.0]
