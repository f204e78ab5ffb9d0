import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import saco.coding as cd
import saco.data
import saco.graphs as graphs
import saco.selection as sel
from saco.data import (
    Dictionary,
    ImageFeatures,
    LabeledImage,
    Patch,
    PatchSet,
    load_image_pools,
    load_patches,
    read_csv_rows,
    sample_candidates,
    save_patches,
    write_lines,
)
from saco.errors import InvalidInputError

from conftest import make_graphs, make_patches


def _patch(i, feats, coord=(0.25, 0.75), label=0, image_id=0):
    return Patch(id=i, features=np.asarray(feats, dtype=float), coord=coord,
                 label=label, image_id=image_id)


class TestPatch:
    """Patch rows are validated once, when they become a PatchSet."""

    def test_validate_accepts_good_patch(self):
        ps = PatchSet.of([_patch(0, [1.0, 2.0])])
        assert len(ps) == 1 and ps[0].coord == (0.25, 0.75)

    def test_rejects_nan_features(self):
        with pytest.raises(InvalidInputError,
                           match="features: non-finite value nan at row 1, column 0"):
            PatchSet.of([_patch(0, [0.0, 1.0]), _patch(1, [np.nan, 1.0])])

    def test_rejects_coord_outside_unit_square(self):
        with pytest.raises(InvalidInputError, match=r"patch row 0: coord \(1.5, 0.0\) outside"):
            PatchSet.of([_patch(0, [1.0], coord=(1.5, 0.0))])

    def test_rejects_negative_label(self):
        with pytest.raises(InvalidInputError,
                           match="patch row 0: id, image id or label is not an integer >= 0"):
            PatchSet.of([_patch(0, [1.0], label=-1)])


class TestPatchSet:
    def _set(self, m=6):
        rng = np.random.default_rng(5)
        return PatchSet(rng.normal(size=(m, 3)), rng.uniform(size=(m, 2)), np.arange(m) % 2,
                        np.arange(m) // 3, ids=10 + np.arange(m))

    def test_rows_are_patch_views(self):
        ps = self._set()
        row = ps[4]
        assert isinstance(row, Patch)
        assert (row.id, row.label, row.image_id) == (14, 0, 1)
        assert type(row.id) is int and type(row.coord[0]) is float
        assert row.coord == tuple(ps.coords[4].tolist())
        np.testing.assert_array_equal(row.features, ps.features[4])
        assert [p.id for p in ps] == list(range(10, 16))

    def test_index_array_gives_a_patch_set(self):
        ps = self._set()
        sub = ps[np.array([5, 1])]
        assert isinstance(sub, PatchSet)
        assert sub.ids.tolist() == [15, 11]
        np.testing.assert_array_equal(sub.features, ps.features[[5, 1]])

    def test_of_returns_a_patch_set_unchanged_and_stacks_patches_once(self):
        ps = self._set()
        assert PatchSet.of(ps) is ps
        again = PatchSet.of(list(ps))
        for name in ("features", "coords", "labels", "image_ids", "ids"):
            np.testing.assert_array_equal(getattr(again, name), getattr(ps, name))

    @pytest.mark.parametrize("field, value, message", [
        ("features", np.inf, "features: non-finite value inf at row 2"),
        ("coords", np.nan, "coords: non-finite value nan at row 2"),
        ("coords", -0.5, "patch row 2: coord"),
        ("labels", -1, "patch row 2: id, image id or label is not an integer >= 0"),
        ("ids", -1, "patch row 2: id, image id or label is not an integer >= 0"),
        ("image_ids", -1, "patch row 2: id, image id or label is not an integer >= 0"),
        ("labels", [1], "patch row 2: id, image id or label is not an integer >= 0"),
    ])
    def test_bad_row_is_named(self, field, value, message):
        ps = self._set()
        arrays = {name: getattr(ps, name).copy()
                  for name in ("features", "coords", "labels", "image_ids", "ids")}
        if isinstance(value, list):  # a ragged Python list, as [0, 1, [1], 1, 0, 1]
            arrays[field] = arrays[field].tolist()
        arrays[field][2] = value
        with pytest.raises(InvalidInputError, match=message):
            PatchSet(**arrays)

    @pytest.mark.parametrize("field", ["labels", "image_ids", "ids"])
    @pytest.mark.parametrize("value", [2.9, np.nan])
    def test_fractional_label_or_id_is_named(self, field, value):
        # ids [2.9, 1, 2, 3] were truncated to [2, 1, 2, 3], a repeated id
        ps = self._set()
        arrays = {name: getattr(ps, name).astype(float)
                  for name in ("features", "coords", "labels", "image_ids", "ids")}
        whole = PatchSet(**arrays)  # whole numbers in a float array are kept
        for name in ("labels", "image_ids", "ids"):
            assert getattr(whole, name).dtype == np.int64
            np.testing.assert_array_equal(getattr(whole, name), getattr(ps, name))
        arrays[field][2] = value
        with pytest.raises(InvalidInputError,
                           match="patch row 2: id, image id or label is not an integer"):
            PatchSet(**arrays)

    @pytest.mark.parametrize("field", ["label", "image_id", "id"])
    def test_bool_in_a_list_is_not_an_integer(self, field):
        # a bool among the ints of a Python list once read as 0 or 1
        rows = list(self._set())
        rows[2] = Patch(**{**vars(rows[2]), field: True})
        with pytest.raises(InvalidInputError,
                           match="patch row 2: id, image id or label is not an integer"):
            PatchSet.of(rows)

    @pytest.mark.parametrize("field", ["label", "image_id", "id"])
    def test_int_past_uint64_in_a_list_is_named(self, field):
        # np.asarray([0, 1, 2**64]) is an object array, and every row of it once
        # read as bad, so row 0 was named
        rows = list(self._set())[:3]
        rows[2] = Patch(**{**vars(rows[2]), field: 2 ** 64})
        with pytest.raises(InvalidInputError,
                           match="patch row 2: id, image id or label is not an integer"):
            PatchSet.of(rows)

    def test_row_counts_must_agree(self):
        with pytest.raises(InvalidInputError, match="patch arrays disagree"):
            PatchSet(np.zeros((3, 2)), np.zeros((3, 2)), [0, 0], [0, 0, 0])


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        patches = [
            Patch(i, rng.normal(size=4), (float(rng.uniform()), float(rng.uniform())),
                  int(i % 2), i // 3)
            for i in range(7)
        ]
        csv, skt = tmp_path / "p.csv", tmp_path / "p.skt"
        save_patches(csv, skt, patches, header_comments=["generator = test"])
        back = load_patches(csv, skt)
        assert len(back) == 7
        for a, b in zip(patches, back):
            assert a.id == b.id
            assert a.label == b.label
            assert a.image_id == b.image_id
            assert a.coord == pytest.approx(b.coord)
            np.testing.assert_allclose(b.features, a.features.astype(np.float32))

    def test_comment_lines_preserved_and_skipped(self, tmp_path):
        csv, skt = tmp_path / "p.csv", tmp_path / "p.skt"
        save_patches(csv, skt, [_patch(0, [1.0])], header_comments=["seed = 9"])
        text = csv.read_text()
        assert text.startswith("# seed = 9\n")
        assert len(load_patches(csv, skt)) == 1

    def test_header_must_match_exactly(self, tmp_path):
        csv, skt = tmp_path / "p.csv", tmp_path / "p.skt"
        save_patches(csv, skt, [_patch(0, [1.0])])
        body = csv.read_text().splitlines()
        body[0] = "id,image,label,x,y"
        csv.write_text("\n".join(body) + "\n")
        with pytest.raises(InvalidInputError):
            load_patches(csv, skt)

    def test_row_count_must_match_feature_rows(self, tmp_path):
        csv, skt = tmp_path / "p.csv", tmp_path / "p.skt"
        save_patches(csv, skt, [_patch(0, [1.0]), _patch(1, [2.0])])
        lines = csv.read_text().splitlines()
        csv.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(InvalidInputError):
            load_patches(csv, skt)


def test_group_rows_by_image_keeps_order(tmp_path):
    patches = [_patch(i, [float(i)], image_id=i % 3, label=i % 3) for i in range(9)]
    csv, skt = tmp_path / "g.csv", tmp_path / "g.skt"
    save_patches(csv, skt, patches)
    pools = load_image_pools(csv, skt)
    assert [p.image_id for p in pools] == [0, 1, 2]
    assert all(pool.features.shape == (3, 1) for pool in pools)
    assert pools[1].label == 1


def test_load_patches_names_the_csv_line_of_a_bad_row(tmp_path):
    patches = [_patch(i, [float(i), 1.0]) for i in range(3)]
    csv, skt = tmp_path / "b.csv", tmp_path / "b.skt"
    save_patches(csv, skt, patches, header_comments=["one comment line"])
    csv.write_text(csv.read_text().replace("1,0,0,0.25", "1,0,0,nan"))
    # line 1 is the comment and line 2 the header, so patch row 1 is line 4
    message = f"{csv}:4: coords: non-finite value nan at row 1, column 0"
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        load_patches(csv, skt)


@pytest.mark.parametrize("column", [0, 1, 2], ids=["id", "image_id", "label"])
def test_both_patch_readers_reject_a_negative_field_at_its_line(tmp_path, column):
    # load_patches once took an image id of -1 that load_image_pools rejected
    csv, skt = tmp_path / "n.csv", tmp_path / "n.skt"
    save_patches(csv, skt, [_patch(i, [float(i)]) for i in range(3)])
    lines = csv.read_text().splitlines()
    fields = lines[2].split(",")
    fields[column] = "-1"
    lines[2] = ",".join(fields)
    csv.write_text("\n".join(lines) + "\n")
    for reader in (load_patches, load_image_pools):
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"{csv}:3: negative id, image id or label")):
            reader(csv, skt)


def test_image_pool_with_a_nan_row_names_image_and_row():
    feats = np.ones((4, 3))
    feats[2, 1] = np.nan
    with pytest.raises(InvalidInputError,
                       match="image 7 features: non-finite value nan at row 2, column 1"):
        ImageFeatures(image_id=7, label=0, features=feats, coords=np.zeros((4, 2)))
    coords = np.zeros((4, 2))
    coords[3, 0] = np.inf
    with pytest.raises(InvalidInputError,
                       match="image 7 coords: non-finite value inf at row 3, column 0"):
        ImageFeatures(image_id=7, label=0, features=np.ones((4, 3)), coords=coords)


@pytest.mark.parametrize("image_id, label", [(1.5, 0), (3, 0.5), (3, np.nan), ("4", 0),
                                             (True, 0), (3, False), ([3], 0), ([3], [0])])
def test_image_id_and_label_must_be_whole_numbers(image_id, label):
    # an id of 1.5 failed later inside numpy's default_rng, and a label of
    # 0.5 was sampled as class 0; np.asarray([True, 0]) is an int64 array,
    # so an id of True once became image 1
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"image {image_id!r}: id and label must be integers")):
        ImageFeatures(image_id, label, np.zeros((2, 3)), np.zeros((2, 2)))


@pytest.mark.parametrize("image_id, label", [(-1, 0), (3, -2)])
def test_negative_image_id_or_label_is_named(image_id, label):
    # a test image of label -1 once reached run_pipeline's encode-test stage,
    # whose "patch row 0: negative id or label" named no image
    message = re.escape(f"image {image_id}: id and label must be integers >= 0")
    with pytest.raises(InvalidInputError, match=message):
        ImageFeatures(image_id, label, np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(InvalidInputError, match=message):
        LabeledImage(image_id, np.ones((4, 4)), label)


class TestZeroWidthFeatures:
    """Features of no columns are rejected where they enter, naming their shape."""

    def test_patch_set_with_rows(self):
        # a (5, 0) PatchSet once constructed, and graph building then failed
        # on a zero kernel bandwidth
        with pytest.raises(InvalidInputError,
                           match=re.escape("patches need at least one feature, "
                                           "got features (5, 0)")):
            PatchSet(np.zeros((5, 0)), np.full((5, 2), 0.5), np.zeros(5), np.zeros(5))

    @pytest.mark.parametrize("rows", [0, 4])
    def test_image_features(self, rows):
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"image 3 needs at least one feature, "
                                           f"got features ({rows}, 0)")):
            ImageFeatures(3, 0, np.zeros((rows, 0)), np.zeros((rows, 2)))

    def test_no_patches_still_stack(self):
        assert PatchSet.of([]).features.shape == (0, 0)


class TestFiniteArray:
    """``finite_array``: float64 of a shape, every entry finite, errors naming the row."""

    def test_returns_float64_of_the_shape(self):
        out = saco.data.finite_array("a", [[1, 2], [3, 4]], (None, 2))
        assert out.dtype == np.float64 and out.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert saco.data.finite_array("b", np.zeros(0), (None,)).shape == (0,)

    @pytest.mark.parametrize("value, shape, want", [
        (np.zeros((3, 2)), (None, 3), "(*, 3)"),
        (np.zeros((3, 2)), (4, None), "(4, *)"),
        (np.zeros(3), (None, None), "(*, *)"),
        (np.zeros((3, 2)), (3,), "(3,)"),
        (5.0, (None,), "(*,)"),
    ])
    def test_shape_error_gives_both_shapes(self, value, shape, want):
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"a must have shape {want}, got {np.shape(value)}")):
            saco.data.finite_array("a", value, shape)

    @pytest.mark.parametrize("value, got", [
        pytest.param([[True, False]], "dtype bool", id="bool"),
        pytest.param([["1", "2"]], "dtype <U1", id="numeric-string"),
        pytest.param([["a", "2"]], "dtype <U1", id="string"),
        pytest.param([[1.0, 2.0], [3.0]], "a ragged sequence", id="ragged"),
    ])
    def test_only_integers_and_floats_are_numbers(self, value, got):
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"features must hold integers or floats, got {got}")):
            saco.data.finite_array("features", value, (None, None))

    def test_a_bool_raster_is_not_an_image(self):
        with pytest.raises(InvalidInputError, match="image 0 must hold integers or floats"):
            LabeledImage(0, [[True, False], [False, True]], 0)

    @pytest.mark.parametrize("value", [float("nan"), np.float64("inf"), np.array(-np.inf)],
                             ids=["float", "numpy-scalar", "0-d-array"])
    def test_a_non_finite_0d_value_is_named(self, value):
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"angle: non-finite value {float(value)}") + "$"):
            saco.data.finite_array("angle", value, ())

    def test_first_bad_row_and_column_are_named(self):
        a = np.zeros((4, 3))
        a[3, 0], a[2, 2], a[2, 1] = np.nan, -np.inf, np.inf
        with pytest.raises(InvalidInputError,
                           match=r"^a: non-finite value inf at row 2, column 1$"):
            saco.data.finite_array("a", a, (None, 3))
        with pytest.raises(InvalidInputError, match=r"^b: non-finite value nan at row 1$"):
            saco.data.finite_array("b", [0.0, np.nan, np.inf], (3,))
        with pytest.raises(InvalidInputError,
                           match=r"^f.csv:12: a: non-finite value inf at row 2, column 1$"):
            saco.data.finite_array("a", a, (4, 3), where=lambda row: f"f.csv:{row + 10}")


def test_whole_float_image_id_and_label_become_ints():
    pool = ImageFeatures(np.float64(2.0), 1.0, np.zeros((2, 3)), np.zeros((2, 2)))
    assert (pool.image_id, pool.label) == (2, 1)
    assert type(pool.image_id) is int and type(pool.label) is int
    assert sample_candidates([pool], per_image=2, seed=0).image_ids.tolist() == [2, 2]


def test_load_image_pools_rejects_mixed_labels(tmp_path):
    patches = [_patch(0, [0.0], image_id=5, label=0), _patch(1, [1.0], image_id=5, label=1)]
    csv, skt = tmp_path / "m.csv", tmp_path / "m.skt"
    save_patches(csv, skt, patches)
    with pytest.raises(InvalidInputError):
        load_image_pools(csv, skt)


class TestSampleCandidates:
    def _pools(self, n_images=4, n=30, seed=0):
        rng = np.random.default_rng(seed)
        return [
            ImageFeatures(image_id=i, label=i % 2,
                          features=rng.normal(size=(n, 3)),
                          coords=rng.uniform(0.0, 4.0, size=(n, 2)))
            for i in range(n_images)
        ]

    def test_deterministic(self):
        pools = self._pools()
        a = sample_candidates(pools, per_image=5, seed=7)
        b = sample_candidates(pools, per_image=5, seed=7)
        assert [p.id for p in a] == [p.id for p in b]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)

    def test_seed_changes_sample(self):
        pools = self._pools()
        a = sample_candidates(pools, per_image=5, seed=0)
        b = sample_candidates(pools, per_image=5, seed=1)
        assert any(
            not np.array_equal(x.features, y.features) for x, y in zip(a, b)
        )

    def test_independent_of_image_order(self):
        pools = self._pools()
        fwd = sample_candidates(pools, per_image=5, seed=3)
        rev = sample_candidates(list(reversed(pools)), per_image=5, seed=3)
        by_img_fwd = {}
        by_img_rev = {}
        for p in fwd:
            by_img_fwd.setdefault(p.image_id, []).append(p.features)
        for p in rev:
            by_img_rev.setdefault(p.image_id, []).append(p.features)
        for img in by_img_fwd:
            got, want = by_img_rev[img], by_img_fwd[img]
            assert len(got) == len(want)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_ids_sequential_from_zero(self):
        out = sample_candidates(self._pools(), per_image=5, seed=0)
        assert [p.id for p in out] == list(range(len(out)))

    def test_coords_normalized_to_unit_square(self):
        out = sample_candidates(self._pools(), per_image=5, seed=0)
        xs = [p.coord[0] for p in out]
        ys = [p.coord[1] for p in out]
        assert min(xs) >= 0.0 and max(xs) <= 1.0
        assert min(ys) >= 0.0 and max(ys) <= 1.0

    def test_degenerate_extent_maps_to_center(self):
        pool = ImageFeatures(image_id=0, label=0,
                             features=np.ones((4, 2)),
                             coords=np.full((4, 2), 2.5))
        out = sample_candidates([pool], per_image=4, seed=0)
        assert all(p.coord == (0.5, 0.5) for p in out)

    def test_negative_seed_part_is_rejected(self):
        with pytest.raises(InvalidInputError, match=r"seed must be a non-negative integer, got \[3, -1\]"):
            sample_candidates(self._pools(), per_image=5, seed=[3, -1])

    def test_fractional_seed_part_is_rejected(self):
        # int() once truncated the part 1.5 to 1
        with pytest.raises(InvalidInputError,
                           match=r"seed must be a non-negative integer, got \[2, 1\.5\]"):
            sample_candidates(self._pools(), per_image=5, seed=[2, 1.5])

    @pytest.mark.parametrize("per_image, message", [
        (2.5, "per_image must be an integer, got 2.5"),
        (True, "per_image must be an integer, got True"),
        (0, "per_image must be >= 1, got 0"),
    ])
    def test_per_image_must_be_a_count(self, per_image, message):
        # 2.5 once failed inside numpy's choice, and True sampled one patch
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            sample_candidates(self._pools(), per_image=per_image, seed=0)

    def test_no_images_and_an_empty_pool_are_rejected(self):
        with pytest.raises(InvalidInputError, match="no images to sample from"):
            sample_candidates([], per_image=5, seed=0)
        empty = ImageFeatures(image_id=7, label=0, features=np.zeros((0, 3)),
                              coords=np.zeros((0, 2)))
        with pytest.raises(InvalidInputError, match="image 7 has an empty pool"):
            sample_candidates(self._pools() + [empty], per_image=5, seed=0)

    def test_oversampling_with_replacement(self):
        pool = ImageFeatures(image_id=0, label=0,
                             features=np.arange(6.0).reshape(3, 2),
                             coords=np.zeros((3, 2)))
        out = sample_candidates([pool], per_image=10, seed=0)
        assert len(out) == 10


class TestDictionary:
    def test_matrix_columns_are_atoms(self):
        atoms = [_patch(0, [1.0, 0.0]), _patch(1, [0.0, 2.0])]
        d = Dictionary(atoms)
        np.testing.assert_array_equal(d.matrix, np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert d.n_atoms == 2
        assert d.feature_dim == 2

    def test_gram_cached_and_correct(self):
        rng = np.random.default_rng(4)
        atoms = [_patch(i, rng.normal(size=5)) for i in range(3)]
        d = Dictionary(atoms)
        g1 = d.gram()
        np.testing.assert_allclose(g1, d.matrix.T @ d.matrix)
        assert d.gram() is g1

    def test_empty_dictionary_rejected(self):
        with pytest.raises(InvalidInputError):
            Dictionary([])

    def test_zero_width_dictionary_rejected(self):
        with pytest.raises(InvalidInputError, match=re.escape("got features (3, 0)")):
            Dictionary(PatchSet(np.zeros((3, 0)), np.full((3, 2), 0.5), [0, 1, 0], [0, 0, 0]))

    def test_mismatched_atom_dims_rejected(self):
        with pytest.raises(InvalidInputError):
            Dictionary([_patch(0, [1.0]), _patch(1, [1.0, 2.0])])

    def test_atom_coords_and_labels(self):
        atoms = [_patch(0, [1.0], coord=(0.1, 0.2), label=2),
                 _patch(1, [2.0], coord=(0.3, 0.4), label=1)]
        d = Dictionary(atoms)
        np.testing.assert_allclose(d.atom_coords, [[0.1, 0.2], [0.3, 0.4]])
        assert list(d.atom_labels) == [2, 1]


def test_a_csv_of_comments_alone_has_no_header(tmp_path):
    path = tmp_path / "c.csv"
    write_lines(path, [], comments=["seed = 3", "no rows"])
    with pytest.raises(InvalidInputError, match=re.escape(f"{path}: empty file, header required")):
        list(read_csv_rows(path, "a,b", (int, float)))


def test_an_empty_raster_is_named():
    with pytest.raises(InvalidInputError,
                       match=re.escape("image 3 must be a non-empty 2-D array, got shape (0, 5)")):
        LabeledImage(3, np.ones((0, 5)), 0)


def test_write_lines_writes_comments_then_lines(tmp_path):
    path = tmp_path / "t.csv"
    write_lines(path, ["a,b", "1,2.5"], comments=["seed = 3"])
    assert path.read_bytes() == b"# seed = 3\na,b\n1,2.5\n"
    assert list(read_csv_rows(path, "a,b", (int, float))) == [(3, (1, 2.5))]
    write_lines(path, iter(["only"]))
    assert path.read_bytes() == b"only\n"


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 5000), width=st.integers(1, 2 * saco.data.BLOCK_DOUBLES))
def test_blocks_split_rows_evenly_within_the_budget(n, width):
    spans = saco.data.blocks(n, width)
    assert all(span.step is None for span in spans)
    assert [i for span in spans for i in range(span.start, span.stop)] == list(range(n))
    assert len(spans) == -(-n // max(1, saco.data.BLOCK_DOUBLES // width))
    sizes = [span.stop - span.start for span in spans]
    if n:
        assert sizes == [len(b) for b in np.array_split(np.arange(n), len(spans))]
    assert all(size * width <= saco.data.BLOCK_DOUBLES for size in sizes if size > 1)


def test_one_budget_sizes_graph_greedy_and_saco2_blocks(monkeypatch):
    """``BLOCK_DOUBLES`` alone sizes the blocks of both neighbour searches,
    greedy scoring and saco2's solves: a smaller budget moves all of them
    and leaves their outputs equal."""
    patches = make_patches(8, m=120, dim=12, clustered=True)  # dense features, tree locations
    atoms = make_patches(9, m=20, dim=8)  # saco2 over p = 8 < m = 20: the push-through path
    queries = np.random.default_rng(10).normal(size=(30, 8))
    coords = np.random.default_rng(11).uniform(size=(30, 2))
    encoder = cd.Encoder(Dictionary(atoms), "saco2", 0.05, 0.7, cd.SpatialWeightConfig())
    blocks = {}

    def spy(module, name, size):
        real = getattr(module, name)

        def wrapped(*args):
            blocks.setdefault(name, []).append(size(*args))
            return real(*args)
        monkeypatch.setattr(module, name, wrapped)

    spy(graphs, "_dense_block", lambda X, sq, err, lo, hi, *rest: hi - lo)
    spy(graphs, "_tree_block", lambda X, tree, lo, hi, k: hi - lo)
    spy(sel.SelectionState, "_scored_block", lambda state, B, *rest: len(B))
    spy(cd, "_cholesky_rows", lambda K, V, n: len(K))

    def run(graphs_for_greedy=None):
        blocks.clear()
        S, L = make_graphs(patches, k_nn=8)
        chosen = sel.lazy_greedy(patches, *(graphs_for_greedy or (S, L)),
                                 sel.ObjectiveWeights(), 10)
        return (S, L), chosen, encoder.encode(queries, coords)[0]

    graphs0, chosen, codes = run()
    assert (blocks["_dense_block"], blocks["_tree_block"], blocks["_cholesky_rows"]) == \
        ([120], [120], [30])
    assert blocks["_scored_block"][0] == 120  # lazy greedy's first call: the whole pool
    S, L = graphs0
    width = int((np.diff(S.csr.indptr) + np.diff(L.csr.indptr)).max())
    monkeypatch.setattr(saco.data, "BLOCK_DOUBLES", 360)
    # the greedy run reads the first graphs: the dense path's values may move
    # in their last bits with its block size
    graphs2, chosen2, codes2 = run(graphs0)
    # doubles per row: m = 120 dense, (k + 2) p = 20 tree, the widest
    # candidate's stored entries, p (p + 1) / 2 = 36 packed K
    assert blocks["_dense_block"] == [3] * 40
    assert blocks["_tree_block"] == [18] + [17] * 6
    per = 360 // width
    first = [len(b) for b in np.array_split(np.arange(120), -(-120 // per))]
    assert blocks["_scored_block"][:len(first)] == first
    assert blocks["_cholesky_rows"] == [10] * 3
    for before, after in zip(graphs0, graphs2):
        np.testing.assert_array_equal(after.csr.indptr, before.csr.indptr)
        np.testing.assert_array_equal(after.csr.indices, before.csr.indices)
        np.testing.assert_allclose(after.csr.data, before.csr.data, rtol=1e-13)
    assert chosen2.ids == chosen.ids
    assert [repr(g) for g in chosen2.gains] == [repr(g) for g in chosen.gains]
    assert chosen2.n_evaluations == chosen.n_evaluations
    assert codes2.tobytes() == codes.tobytes()
