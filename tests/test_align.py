"""Rotation search, viewpoint clustering, and the PGM writer."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import saco.align as al
import saco.data
from saco.data import LabeledImage
from saco.errors import InvalidInputError
from saco.synth import make_viewpoints


def random_images(seed, n=6, size=12):
    rng = np.random.default_rng([seed, 90])
    return [rng.uniform(size=(size, size)) for _ in range(n)]


def reference_bilinear_sample(img, xs, ys):
    """Per-call mask-based bilinear sampling: the reference for the cached plans."""
    h, w = img.shape
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    fx = xs - x0
    fy = ys - y0
    out = np.zeros(xs.shape)
    for dy in (0, 1):
        for dx in (0, 1):
            xi = x0 + dx
            yi = y0 + dy
            wgt = (fx if dx else 1.0 - fx) * (fy if dy else 1.0 - fy)
            valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            if np.any(valid):
                vals = np.zeros(xs.shape)
                vals[valid] = img[yi[valid], xi[valid]]
                out += wgt * vals
    return out


def reference_rotate(img, theta_deg):
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    t = math.radians(theta_deg)
    ct, st = math.cos(t), math.sin(t)
    yy, xx = np.mgrid[0:h, 0:w]
    dx = xx - cx
    dy = yy - cy
    return reference_bilinear_sample(img, ct * dx + st * dy + cx, -st * dx + ct * dy + cy)


def reference_resize(img, out_h, out_w):
    h, w = img.shape
    gx, gy = np.meshgrid(np.linspace(0.0, w - 1.0, out_w), np.linspace(0.0, h - 1.0, out_h))
    return reference_bilinear_sample(img, gx, gy)


def reference_min_rotation_distance(a40, other, theta_grid):
    """min over theta of ||a40 - R_theta(other)||_2 and its argmin angle, one
    rotation at a time: the reference for the frame-stack search.

    Ties go to the earliest grid angle.
    """
    best_d = None
    best_t = None
    for t in theta_grid:
        d = float(np.linalg.norm(a40 - al.rotate_resize(other, t)))
        if best_d is None or d < best_d:
            best_d, best_t = d, float(t)
    return best_d, best_t


def directional_distance(a, b, grid):
    return reference_min_rotation_distance(al.rotate_resize(a, 0.0), b, grid)[0]


def reference_align_to_medoid(px, model):
    """The (cluster, angle) scan as a double loop: the reference for align_to_medoid."""
    rotated40 = [al.rotate_resize(px, t) for t in model.theta_grid]
    best = None  # (distance, cluster, theta)
    for ci, thumb in enumerate(model.thumbnails):
        for ti, r40 in enumerate(rotated40):
            d = float(np.linalg.norm(r40 - thumb))
            if best is None or d < best[0]:
                best = (d, ci, float(model.theta_grid[ti]))
    _, cluster, theta = best
    return al.rotate_image(px, theta), cluster, theta


def search_inputs(kind):
    if kind == "random":
        return random_images(21, n=6)
    images, _, _ = make_viewpoints(per_view=10)
    return [img.pixels for img in images]


class TestThetaGrid:
    def test_default_step(self):
        grid = al.default_theta_grid()
        assert grid.size == 36
        np.testing.assert_array_equal(grid[:3], [0.0, 10.0, 20.0])
        assert grid[-1] == 350.0

    def test_coarse_step(self):
        np.testing.assert_array_equal(
            al.default_theta_grid(90.0), [0.0, 90.0, 180.0, 270.0]
        )

    @pytest.mark.parametrize("step", [0.0, -10.0, 361.0, float("nan")])
    def test_bad_step(self, step):
        with pytest.raises(InvalidInputError):
            al.default_theta_grid(step)


class TestRotate:
    def test_zero_is_identity(self):
        img = random_images(0, n=1)[0]
        assert np.array_equal(al.rotate_image(img, 0.0), img)

    @pytest.mark.parametrize("size", [7, 8])
    def test_quarter_turn_matches_rot90(self, size):
        rng = np.random.default_rng(size)
        img = rng.uniform(size=(size, size))
        np.testing.assert_allclose(
            al.rotate_image(img, 90.0), np.rot90(img, 3), atol=1e-12
        )
        np.testing.assert_allclose(
            al.rotate_image(img, 180.0), np.rot90(img, 2), atol=1e-12
        )

    def test_rotations_compose(self):
        img = random_images(1, n=1)[0]
        twice = al.rotate_image(al.rotate_image(img, 90.0), 90.0)
        np.testing.assert_allclose(twice, al.rotate_image(img, 180.0), atol=1e-12)
        np.testing.assert_allclose(al.rotate_image(img, 360.0), img, atol=1e-12)

    def test_pads_with_zeros(self):
        img = np.ones((11, 11))
        rot = al.rotate_image(img, 45.0)
        assert rot[0, 0] == 0.0  # corner swings outside the frame
        assert rot[5, 5] == pytest.approx(1.0)

    def test_rejects_non_2d(self):
        with pytest.raises(InvalidInputError):
            al.rotate_image(np.zeros((3, 3, 3)), 10.0)
        with pytest.raises(InvalidInputError):
            al.rotate_image(np.zeros(0), 10.0)

    @pytest.mark.parametrize("theta, got", [(True, "bool"), ("10", "<U2")], ids=["bool", "string"])
    @pytest.mark.parametrize("rotate", [al.rotate_image, al.rotate_resize],
                             ids=["rotate_image", "rotate_resize"])
    def test_rejects_an_angle_that_is_not_a_number(self, rotate, theta, got, no_rotations):
        with pytest.raises(InvalidInputError,
                           match=f"rotation angle must hold integers or floats, got dtype {got}"):
            rotate(np.ones((5, 5)), theta)

    @pytest.mark.parametrize("theta", [np.nan, np.inf])
    def test_rejects_non_finite_angle(self, theta):
        with pytest.raises(InvalidInputError, match="finite"):
            al.rotate_image(np.ones((5, 5)), theta)


SHAPES = [(7, 7), (8, 8), (12, 9), (64, 64)]
# sources the resize meets at its edges: one row or column, one pixel, the
# working square itself and a source whose grid lands on every other pixel
RESIZE_SHAPES = SHAPES + [(1, 1), (1, 6), (6, 1), (5, 7), (40, 40), (79, 79)]


def signed_image(shape, seed):
    """Normal pixels, so some are negative, with a -0.0 in one corner."""
    img = np.random.default_rng([shape[0], shape[1], seed]).normal(size=shape)
    img[0, 0] = -0.0
    return img


def assert_bit_identical(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestSamplingPlans:
    """The cached plans reproduce per-call bilinear sampling bit for bit."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("theta", [0.0, 10.0, 45.0, 90.0, 350.0, 370.0, -30.0])
    def test_rotation_bit_identical(self, shape, theta):
        img = signed_image(shape, 7)
        assert_bit_identical(al.rotate_image(img, theta), reference_rotate(img, theta))

    @pytest.mark.parametrize("shape", RESIZE_SHAPES)
    def test_resize_bit_identical(self, shape):
        img = signed_image(shape, 8)
        assert_bit_identical((al._resize_plan(*shape) @ img.ravel()).reshape(40, 40),
                             reference_resize(img, 40, 40))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rotate_resize_bit_identical(self, shape):
        img = signed_image(shape, 9)
        for theta in al.default_theta_grid():
            expected = reference_resize(reference_rotate(img, theta), al.WORK_SIZE, al.WORK_SIZE)
            assert_bit_identical(al.rotate_resize(img, theta), expected)

    def test_repeat_call_is_a_cache_hit(self):
        img = np.random.default_rng(10).uniform(size=(23, 29))
        al.rotate_resize(img, 20.0)
        rot, res = al._rotation_plan.cache_info(), al._resize_plan.cache_info()
        al.rotate_resize(img, 20.0)
        assert al._rotation_plan.cache_info().hits == rot.hits + 1
        assert al._rotation_plan.cache_info().misses == rot.misses
        assert al._resize_plan.cache_info().hits == res.hits + 1
        assert al._resize_plan.cache_info().misses == res.misses

    def test_cache_stays_within_its_size(self):
        img = np.ones((9, 9))
        for theta in np.arange(0.0, 360.0, 3.0):  # 120 angles
            al.rotate_image(img, theta)
        for n in range(1, 80):
            al._resize_plan(n, 3)
        for plan in (al._rotation_plan, al._resize_plan):
            info = plan.cache_info()
            assert info.maxsize == al.PLAN_CACHE_SIZE
            assert info.currsize <= al.PLAN_CACHE_SIZE

    def test_default_grid_fits_the_cache(self):
        assert al.default_theta_grid().size + 1 <= al.PLAN_CACHE_SIZE

    def test_plans_store_int32_indices(self):
        # int64 indices would take 61-71 bytes per output pixel
        for theta in al.default_theta_grid():
            op = al._rotation_plan(64, 64, float(theta))
            assert op.indices.dtype == op.indptr.dtype == np.int32
            assert op.data.nbytes + op.indices.nbytes + op.indptr.nbytes <= 52 * 64 * 64

    def test_plans_are_read_only(self):
        op = al._rotation_plan(6, 6, 30.0)
        for arr in (op.data, op.indices, op.indptr):
            with pytest.raises(ValueError):
                arr[0] = 1


class TestResize:
    """The search resizes every frame to the working square, corner-aligned."""

    def test_corner_aligned(self):
        img = random_images(3, n=1, size=9)[0]
        out = al.rotate_resize(img, 0.0)
        assert out[0, 0] == pytest.approx(img[0, 0])
        assert out[-1, -1] == pytest.approx(img[-1, -1])

    def test_constant_stays_constant(self):
        out = al.rotate_resize(np.full((5, 5), 0.7), 0.0)
        np.testing.assert_allclose(out, 0.7, atol=1e-12)

    def test_rotate_resize_shape(self):
        img = random_images(5, n=1, size=17)[0]
        assert al.rotate_resize(img, 30.0).shape == (al.WORK_SIZE, al.WORK_SIZE)

    def test_working_square_is_copied_unchanged(self):
        img = random_images(2, n=1, size=al.WORK_SIZE)[0]
        out = al.rotate_resize(img, 0.0)
        assert np.array_equal(out, img)
        out[0, 0] = 99.0
        assert img[0, 0] != 99.0

    def test_downsample_hits_grid_points(self):
        # a 79-pixel side puts the 40 samples on every other source pixel
        img = random_images(6, n=1, size=2 * al.WORK_SIZE - 1)[0]
        np.testing.assert_allclose(al.rotate_resize(img, 0.0), img[::2, ::2], atol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 6), (6, 1), (1, 1)])
    def test_a_one_pixel_side_is_repeated_across_the_frame(self, shape):
        img = np.random.default_rng(list(shape)).uniform(size=shape)
        out = al.rotate_resize(img, 0.0)
        if shape[0] == 1:
            assert np.array_equal(out, np.broadcast_to(out[:1], out.shape))
        if shape[1] == 1:
            assert np.array_equal(out, np.broadcast_to(out[:, :1], out.shape))
        assert out[0, 0] == pytest.approx(img[0, 0])
        assert out[-1, -1] == pytest.approx(img[-1, -1])


BAD_RASTERS = {
    "3-D": (np.zeros((2, 2, 2)), r"image must have shape \(\*, \*\), got \(2, 2, 2\)"),
    "1-D": (np.zeros(0), r"image must have shape \(\*, \*\), got \(0,\)"),
    "no rows": (np.zeros((0, 4)), r"image must be a non-empty 2-D array, got shape \(0, 4\)"),
    "bool": (np.array([[True, False]]), "image must hold integers or floats, got dtype bool"),
}


@pytest.mark.parametrize("bad", BAD_RASTERS.values(), ids=BAD_RASTERS.keys())
class TestRasterChecks:
    """Every one-image entry reads its pixels by ``data.raster``."""

    def test_rotate_resize(self, bad, no_rotations):
        pixels, message = bad
        with pytest.raises(InvalidInputError, match=message):
            al.rotate_resize(pixels, 10.0)

    def test_write_pgm_writes_nothing(self, bad, tmp_path):
        pixels, message = bad
        path = tmp_path / "img.pgm"
        with pytest.raises(InvalidInputError, match=message):
            al.write_pgm(path, pixels)
        assert not path.exists()


BAD_GRIDS = {
    "empty": [],
    "360": [0.0, 90.0, 360.0],
    "negative": [-10.0, 0.0],
    "nan": [0.0, np.nan],
    "inf": [np.inf],
    "2-D": [[0.0, 90.0]],
}


def forbid_rotations(monkeypatch):
    """Fail on the first rotation plan lookup: every rotation, one image or a stack, makes one."""
    def fail(*args, **kwargs):
        raise AssertionError("rotated before the input was checked")

    monkeypatch.setattr(al, "_rotation_plan", fail)


@pytest.fixture()
def no_rotations(monkeypatch):
    forbid_rotations(monkeypatch)


class TestThetaGridChecks:
    """Every entry point rejects a bad grid before any rotation runs."""

    @pytest.mark.parametrize("grid", list(BAD_GRIDS.values()), ids=list(BAD_GRIDS))
    def test_rejected_up_front(self, grid, no_rotations):
        imgs = random_images(19, n=3)
        with pytest.raises(InvalidInputError, match="theta grid"):
            al.dissimilarity_matrix(imgs, grid)
        with pytest.raises(InvalidInputError, match="theta grid"):
            al.k_medoids(imgs, 2, grid, seed=0)
        with pytest.raises(InvalidInputError, match="theta grid"):
            al.ViewpointModel([0], [np.zeros((40, 40))], grid)


class TestNonFinitePixels:
    """A non-finite pixel is rejected once per image, by name, before any rotation runs."""

    @pytest.fixture()
    def images(self):
        images, _, _ = make_viewpoints(per_view=6)
        return [img.pixels.copy() for img in images]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_k_medoids(self, images, bad, no_rotations):
        images[4][3, 5] = bad
        with pytest.raises(InvalidInputError, match=rf"image at position 4: non-finite value "
                                                    rf"{bad} at row 3, column 5"):
            al.k_medoids(images, 2, al.default_theta_grid(), seed=0)

    def test_dissimilarity_matrix(self, images, no_rotations):
        images[-1][0, 0] = np.nan
        with pytest.raises(InvalidInputError, match="image at position 11: non-finite value nan"):
            al.dissimilarity_matrix(images, al.default_theta_grid())

    def test_labeled_image_is_named_by_its_id(self, images):
        images[2][1, 1] = np.nan
        with pytest.raises(InvalidInputError, match="image 102: non-finite value nan"):
            [LabeledImage(i + 100, px, 0) for i, px in enumerate(images)]

    def test_align_to_medoid(self, images, monkeypatch):
        model, _, _ = al.k_medoids(images, 2, al.default_theta_grid(), seed=0)
        forbid_rotations(monkeypatch)
        images[0][0, 7] = np.nan
        with pytest.raises(InvalidInputError,
                           match="image: non-finite value nan at row 0, column 7"):
            al.align_to_medoid(images[0], model)

    @pytest.mark.parametrize("call", [lambda px: al.rotate_image(px, 10.0),
                                      lambda px: al.rotate_resize(px, 10.0)],
                             ids=["rotate_image", "rotate_resize"])
    def test_one_image_entries(self, call, no_rotations):
        px = np.full((6, 8), 0.5)
        px[4, 2] = np.inf
        with pytest.raises(InvalidInputError,
                           match="image: non-finite value inf at row 4, column 2"):
            call(px)

    def test_labeled_image_rejects_at_construction(self, images):
        images[0][5, 5] = np.nan
        with pytest.raises(InvalidInputError,
                           match="image 9: non-finite value nan at row 5, column 5"):
            LabeledImage(9, images[0], 0)


@pytest.mark.parametrize("image_id, label", [(1.5, 0), (2, 0.5), (True, 0), (2, np.nan),
                                             ([2], 0), ([2], [0])])
def test_labeled_image_id_and_label_must_be_whole_numbers(image_id, label):
    # LabeledImage(1.5, pixels, 0.5) once constructed with id 1.5 and label 0.5
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"image {image_id!r}: id and label must be integers")):
        LabeledImage(image_id, np.ones((8, 8)), label)


def test_labeled_image_keeps_whole_float_id_and_label_as_ints():
    image = LabeledImage(np.float64(2.0), np.ones((8, 8)), 1.0)
    assert (image.image_id, image.label) == (2, 1)
    assert type(image.image_id) is int and type(image.label) is int


class TestEntryChecks:
    """A bad image shape or seed is rejected by name before any rotation runs."""

    def test_wrong_shape_is_named_by_position(self, no_rotations):
        images = [np.ones((12, 12)), np.ones((12, 12)), np.ones(5)]
        with pytest.raises(InvalidInputError, match=r"image at position 2 must have shape "
                                                    r"\(\*, \*\), got \(5,\)"):
            al.dissimilarity_matrix(images, al.default_theta_grid())

    def test_empty_list_is_rejected(self, no_rotations):
        with pytest.raises(InvalidInputError, match="dissimilarity_matrix needs at least one image"):
            al.dissimilarity_matrix([], al.default_theta_grid())

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", None, True])
    def test_k_medoids_rejects_bad_seed(self, seed, no_rotations):
        with pytest.raises(InvalidInputError, match=r"seed must be a non-negative integer, got "):
            al.k_medoids(random_images(21, n=3), 2, al.default_theta_grid(90.0), seed=seed)

    def test_k_medoids_accepts_numpy_integer_seed(self):
        imgs = random_images(21, n=3)
        grid = al.default_theta_grid(90.0)
        _, a, h = al.k_medoids(imgs, 2, grid, seed=np.int64(4))
        _, b, g = al.k_medoids(imgs, 2, grid, seed=4)
        np.testing.assert_array_equal(a, b)
        assert h == g


class TestDissimilarityMatrix:
    def test_matches_direct_search(self):
        imgs = random_images(10, n=4)
        grid = al.default_theta_grid(90.0)
        dm = al.dissimilarity_matrix(imgs, grid)
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                expected = 1e-6 + 0.5 * (
                    directional_distance(imgs[i], imgs[j], grid)
                    + directional_distance(imgs[j], imgs[i], grid)
                )
                assert dm[i, j] == pytest.approx(expected, rel=1e-9)

    def test_shape_and_structure(self):
        imgs = random_images(11, n=5)
        dm = al.dissimilarity_matrix(imgs, al.default_theta_grid(120.0))
        assert dm.shape == (5, 5)
        np.testing.assert_array_equal(dm, dm.T)
        np.testing.assert_array_equal(np.diag(dm), np.zeros(5))
        off = dm[~np.eye(5, dtype=bool)]
        assert np.all(off >= al.DEFAULT_EPSILON)

    def test_mixed_shapes(self):
        rng = np.random.default_rng(22)
        imgs = [rng.uniform(size=shape) for shape in [(12, 12), (20, 16), (40, 40), (12, 12)]]
        grid = al.default_theta_grid(30.0)
        frames = al._frames(imgs, grid)
        assert frames.shape == (4, grid.size, al.WORK_SIZE * al.WORK_SIZE)
        for img, stack in zip(imgs, frames):
            for theta, frame in zip(grid, stack):
                assert frame.tobytes() == al.rotate_resize(img, theta).ravel().tobytes()
        dm = al.dissimilarity_matrix(imgs, grid)
        for i in range(4):
            for j in range(i + 1, 4):
                expected = 1e-6 + 0.5 * (directional_distance(imgs[i], imgs[j], grid)
                                         + directional_distance(imgs[j], imgs[i], grid))
                assert dm[i, j] == pytest.approx(expected, rel=1e-9)

    def test_accepts_labeled_images(self):
        imgs = random_images(12, n=3)
        wrapped = [LabeledImage(i, px, 0) for i, px in enumerate(imgs)]
        grid = al.default_theta_grid(120.0)
        np.testing.assert_array_equal(
            al.dissimilarity_matrix(wrapped, grid),
            al.dissimilarity_matrix(imgs, grid),
        )


def stacked_dissimilarity(images, theta_grid):
    """Every (image, angle) frame in one (n, T, s) stack and one matrix product:
    the reference for the streamed search."""
    pixels = [al._pixels(img) for img in images]
    n, grid = len(pixels), np.asarray(theta_grid, dtype=np.float64)
    base = al._frames(pixels, [0.0])[:, 0]
    rots = al._frames(pixels, grid).reshape(n * grid.size, -1)
    d2 = (base ** 2).sum(1)[:, None] + (rots ** 2).sum(1) - 2.0 * (base @ rots.T)
    dm = np.sqrt(np.maximum(d2.reshape(n, n, grid.size).min(axis=2), 0.0))
    sym = 0.5 * (dm + dm.T) + al.DEFAULT_EPSILON
    np.fill_diagonal(sym, 0.0)
    return sym


def viewpoint_pixels(per_view, seed=0):
    return [img.pixels for img in make_viewpoints(per_view=per_view, seed=seed)[0]]


class TestStreamedSearch:
    """The rotation search holds one angle's frames at a time."""

    def test_memory_does_not_grow_with_the_grid(self):
        images = viewpoint_pixels(30)
        peaks = {}
        for step in (90.0, 10.0):  # 4 and 36 angles
            grid = al.default_theta_grid(step)
            al.dissimilarity_matrix(images, grid)  # the plans are cached before measuring
            tracemalloc.start()
            try:
                al.dissimilarity_matrix(images, grid)
                peaks[step] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[10.0] <= 1.5 * peaks[90.0]

    @pytest.mark.parametrize("kind", ["viewpoints", "random"])
    def test_k_medoids_matches_stacked_reference(self, kind, monkeypatch):
        k, images = (2, viewpoint_pixels(30, seed=1)) if kind == "viewpoints" else (3, random_images(23, n=9))
        grid = al.default_theta_grid()
        streamed = [al.k_medoids(images, k, grid, seed=s)[:2] for s in range(3)]
        monkeypatch.setattr(al, "dissimilarity_matrix", stacked_dissimilarity)
        for s, (model, assign) in enumerate(streamed):
            ref_model, ref_assign = al.k_medoids(images, k, grid, seed=s)[:2]
            assert model.medoid_ids == ref_model.medoid_ids
            np.testing.assert_array_equal(assign, ref_assign)

    @pytest.mark.parametrize("shapes, step", [
        ([(12, 12)] * 6, 10.0),
        ([(12, 12), (20, 16), (40, 40), (12, 12), (64, 64), (20, 16)], 10.0),
        # blocks of 4 columns at the default budget, too narrow for the BLAS's
        # normal kernel, so not the bits of one unblocked product
        ([(256, 256)] * 20, 90.0),
    ], ids=["random", "mixed-shapes", "narrow-blocks"])
    def test_stated_tolerance_holds(self, shapes, step):
        """Each d^2 is within 2e-13 (|a|^2 + |b|^2) of the direct sum of squares."""
        rng = np.random.default_rng(24)
        images = [rng.uniform(size=shape) for shape in shapes]
        grid = al.default_theta_grid(step)
        base = al._frames(images, [0.0])[:, 0]
        rots = al._frames(images, grid)
        direct = np.array([((rots - a) ** 2).sum(-1).min(-1) for a in base])
        scale = (base ** 2).sum(-1)[:, None] + (rots ** 2).sum(-1).max(-1)
        got = al._min_sq_distances(images, grid)
        assert np.all(np.abs(got - direct) <= 2e-13 * scale)


class TestBlockedSearch:
    """The search stacks and rotates each shape's images in blocks of at most
    ``BLOCK_DOUBLES``; the block width changes no result beyond the stated
    tolerance of the distances."""

    @staticmethod
    def run_search(images, grid):
        model, assign, _ = al.k_medoids(images, 3, grid, seed=0)
        return {"frames": al._frames(images, grid).tobytes(),
                "d2": al._min_sq_distances(images, grid),
                "medoids": model.medoid_ids, "assign": assign.tolist(),
                "aligned": [(c, t, a.tobytes()) for a, c, t in
                            (al.align_to_medoid(px, model) for px in images)]}

    @pytest.mark.parametrize("kind", ["viewpoints", "mixed-shapes"])
    def test_block_width_changes_no_result(self, kind, monkeypatch):
        rng = np.random.default_rng(27)
        images = (viewpoint_pixels(12) if kind == "viewpoints" else
                  [rng.uniform(size=s) for s in [(12, 12), (20, 16), (64, 64), (40, 40)] * 6])
        grid = al.default_theta_grid(30.0)
        ref = self.run_search(images, grid)
        base = al._frames(images, [0.0])[:, 0]
        scale = (base ** 2).sum(-1)[:, None] + (al._frames(images, grid) ** 2).sum(-1).max(-1)
        for doubles in (1, 7 * 64 * 64):  # one column; seven 64x64 columns
            monkeypatch.setattr(saco.data, "BLOCK_DOUBLES", doubles)
            got = self.run_search(images, grid)
            for key in ("frames", "medoids", "assign", "aligned"):
                assert got[key] == ref[key], (doubles, key)
            # the BLAS may round a narrower product's a.b differently
            assert np.all(np.abs(got["d2"] - ref["d2"]) <= 2e-13 * scale)

    def test_default_blocks_match_one_unblocked_product(self, tmp_path):
        # 66 images of 64x64 take two blocks of 33 at the default budget; a
        # leftover block of 2 would go to another BLAS kernel.  The bits hold
        # at one BLAS thread (more threads may split the two products
        # differently), so both run in an interpreter started with one.
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy as np\n"
                "import saco.align as al, saco.data\n"
                "from saco.synth import make_viewpoints\n"
                "images = [img.pixels for img in make_viewpoints(per_view=33, seed=2)[0]]\n"
                "grid = al.default_theta_grid(30.0)\n"
                "blocked = al.dissimilarity_matrix(images, grid)\n"
                "saco.data.BLOCK_DOUBLES = 1 << 40\n"
                "np.save(sys.argv[2], [blocked, al.dissimilarity_matrix(images, grid)])\n")
        src, out = str(Path(al.__file__).resolve().parent.parent), tmp_path / "dm.npy"
        subprocess.run([sys.executable, "-c", code, src, str(out)], check=True, timeout=600,
                       env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        blocked, whole = np.load(out)
        assert len(blocked) == 66
        assert_bit_identical(blocked, whole)

    def test_no_stacked_block_exceeds_the_budget(self, monkeypatch):
        sizes = []
        rotated = al._rotated

        def spy(cols, *args):
            sizes.append(cols.size)
            for f in rotated(cols, *args):
                sizes.append(f.size)
                yield f

        monkeypatch.setattr(al, "_rotated", spy)
        # 80 images of 64x64 and 170 of 12x12 stack to 4096 and 1600 doubles
        # (their frames) a column
        images = viewpoint_pixels(40) + random_images(28, n=170)
        al.dissimilarity_matrix(images, al.default_theta_grid(90.0))
        assert sizes and max(sizes) <= saco.data.BLOCK_DOUBLES


class TestKMedoids:
    def test_cost_never_increases(self):
        imgs = random_images(13, n=8)
        _, _, hist = al.k_medoids(imgs, 3, al.default_theta_grid(90.0), seed=1)
        assert len(hist) >= 1
        assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))

    def test_deterministic_given_seed(self):
        imgs = random_images(14, n=7)
        grid = al.default_theta_grid(90.0)
        m1, a1, h1 = al.k_medoids(imgs, 2, grid, seed=5)
        m2, a2, h2 = al.k_medoids(imgs, 2, grid, seed=5)
        assert m1.medoid_ids == m2.medoid_ids
        np.testing.assert_array_equal(a1, a2)
        assert h1 == h2

    def test_assignments_well_formed(self):
        imgs = random_images(15, n=9)
        model, assign, _ = al.k_medoids(imgs, 3, al.default_theta_grid(90.0), seed=2)
        assert len(model.medoid_ids) == 3
        assert assign.shape == (9,)
        assert set(np.unique(assign)) <= {0, 1, 2}
        # each medoid sits in the cluster it defines
        for ci, mid in enumerate(model.medoid_ids):
            assert assign[mid] == ci

    def test_k_bounds(self):
        imgs = random_images(16, n=4)
        grid = al.default_theta_grid(120.0)
        with pytest.raises(InvalidInputError):
            al.k_medoids(imgs, 0, grid, seed=0)
        with pytest.raises(InvalidInputError):
            al.k_medoids(imgs, 5, grid, seed=0)
        # k = 1.5 once failed inside numpy's choice, and k = True ran as k = 1
        for k in (1.5, True):
            with pytest.raises(InvalidInputError, match=f"k must be an integer, got {k!r}"):
                al.k_medoids(imgs, k, grid, seed=0)

    def test_k_equals_n_is_perfect(self):
        imgs = random_images(17, n=4)
        model, assign, hist = al.k_medoids(imgs, 4, al.default_theta_grid(120.0), seed=3)
        assert sorted(model.medoid_ids) == [0, 1, 2, 3]
        assert hist[-1] == 0.0

    def test_duplicate_image_keeps_its_own_cluster(self):
        # 40x40 images of quarter steps: the frames at angle 0 are the images
        # themselves and their distances are exact, so the duplicates are at
        # distance 0 but for the floor
        rng = np.random.default_rng(25)
        imgs = [rng.integers(0, 5, size=(al.WORK_SIZE, al.WORK_SIZE)) / 4.0 for _ in range(5)]
        imgs[3] = imgs[1].copy()
        _, assign, hist = al.k_medoids(imgs, 5, al.default_theta_grid(90.0), seed=0)
        np.testing.assert_array_equal(assign, np.arange(5))
        assert hist[-1] == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_at_the_iteration_cap_assignments_match_the_returned_medoids(self, seed,
                                                                          monkeypatch):
        # one round used to return the updated medoids beside the assignment to
        # the drawn ones: 1 to 8 of these 20 images had a nearer returned medoid
        images, _, _ = make_viewpoints(per_view=10, seed=3)
        grid = al.default_theta_grid(30.0)
        monkeypatch.setattr(al, "KMEDOIDS_MAX_ITER", 1)
        model, assign, hist = al.k_medoids(images, 3, grid, seed=seed)
        dist = al.dissimilarity_matrix(images, grid)[:, model.medoid_ids]
        np.testing.assert_array_equal(assign, dist.argmin(axis=1))
        assert hist == [dist.min(axis=1).sum()]


class TestAlignToMedoid:
    @pytest.fixture()
    def model(self):
        imgs = random_images(18, n=6)
        model, _, _ = al.k_medoids(imgs, 2, al.default_theta_grid(90.0), seed=0)
        return imgs, model

    def test_medoid_maps_to_itself(self, model):
        imgs, m = model
        for ci, mid in enumerate(m.medoid_ids):
            aligned, cluster, theta = al.align_to_medoid(imgs[mid], m)
            assert (cluster, theta) == (ci, 0.0)
            assert np.array_equal(aligned, imgs[mid])

    def test_recovers_known_rotation(self, model):
        imgs, m = model
        src = imgs[m.medoid_ids[0]]
        aligned, cluster, theta = al.align_to_medoid(al.rotate_image(src, 90.0), m)
        assert cluster == 0
        assert theta == 270.0
        np.testing.assert_allclose(aligned, src, atol=1e-12)

    def test_non_finite_thumbnail_is_named(self):
        # a NaN thumbnail once constructed, and align_to_medoid then returned
        # theta = 0 for every image
        thumbs = [np.zeros((40, 40)), np.zeros((40, 40))]
        thumbs[1][3, 4] = np.nan
        with pytest.raises(InvalidInputError,
                           match="thumbnail 1: non-finite value nan at row 3, column 4"):
            al.ViewpointModel([0, 1], thumbs, al.default_theta_grid())

    @pytest.mark.parametrize("ids", [[0.5], [-1], [True], [np.nan], ["0"], [[0]]])
    def test_medoid_ids_must_be_whole_numbers(self, ids):
        with pytest.raises(InvalidInputError,
                           match=r"medoid id .* at position 0 is not an integer >= 0"):
            al.ViewpointModel(ids, [np.zeros((40, 40))], al.default_theta_grid())

    @pytest.mark.parametrize("bad", [2 ** 64, "1", None])
    def test_only_the_bad_medoid_id_is_named(self, bad):
        # [0, 2**64] is an object array, and every id of it once read as bad, so
        # "medoid id 0 at position 0" was named
        with pytest.raises(InvalidInputError,
                           match=rf"medoid id {re.escape(repr(bad))} at position 1 is not"):
            al.ViewpointModel([0, bad], np.zeros((2, 40, 40)), [0.0])

    def test_whole_float_medoid_ids_become_ints(self):
        model = al.ViewpointModel([np.float64(2.0)], [np.zeros((40, 40))], [0.0])
        assert model.medoid_ids == [2] and type(model.medoid_ids[0]) is int

    def test_model_validation(self):
        with pytest.raises(InvalidInputError):
            al.ViewpointModel([], [], al.default_theta_grid())
        with pytest.raises(InvalidInputError):
            al.ViewpointModel([0], [np.zeros((40, 40))], np.array([0.0, 360.0]))
        with pytest.raises(InvalidInputError, match="2 medoids but 1 thumbnails"):
            al.ViewpointModel([0, 1], [np.zeros((40, 40))], al.default_theta_grid())
        with pytest.raises(InvalidInputError,
                           match=r"thumbnail 1 must have shape \(40, 40\), got \(20, 20\)"):
            al.ViewpointModel([0, 1], [np.zeros((40, 40)), np.zeros((20, 20))],
                              al.default_theta_grid())

    @pytest.mark.parametrize("given", ["list", "view"])
    def test_thumbnails_are_copied_once(self, given):
        # the thumbnails were once copied one by one and then stacked again;
        # k_medoids passes a view of its frames, a caller may pass a list
        block = np.random.default_rng(3).normal(size=(50, 40, 40))
        thumbs = list(block) if given == "list" else block[:]
        tracemalloc.start()
        try:
            model = al.ViewpointModel(list(range(50)), thumbs, [0.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * block.nbytes
        np.testing.assert_array_equal(model.thumbnails, block)
        # a model's own block is read-only and owned: rebuilding shares it
        assert al.ViewpointModel(model.medoid_ids, model.thumbnails,
                                 [0.0]).thumbnails is model.thumbnails


@pytest.mark.parametrize("kind", ["random", "viewpoints"])
class TestSearchMatchesReference:
    """The frame-stack search returns the one-rotation-at-a-time loops' bits."""

    def test_align_to_medoid(self, kind):
        imgs = search_inputs(kind)
        model, _, _ = al.k_medoids(imgs, 2, al.default_theta_grid(), seed=0)
        # a repeated thumbnail ties clusters; a blank image ties every angle
        tied = al.ViewpointModel([0, 1], [model.thumbnails[0]] * 2, model.theta_grid)
        for m in (model, tied):
            for px in imgs + [np.zeros_like(imgs[0])]:
                got, want = al.align_to_medoid(px, m), reference_align_to_medoid(px, m)
                assert got[1:] == want[1:]
                assert type(got[1]) is int and type(got[2]) is float
                assert got[0].tobytes() == want[0].tobytes()


def pgm_bytes(h, w, levels):
    """A binary (P5) PGM file of maxval 255 holding ``levels``, row by row."""
    return f"P5\n{w} {h}\n255\n".encode("ascii") + np.asarray(levels, np.uint8).tobytes()


class TestPgm:
    def test_quantized_pixels_are_written_exactly(self, tmp_path):
        rng = np.random.default_rng(20)
        levels = rng.integers(0, 256, size=(9, 13))
        path = tmp_path / "img.pgm"
        al.write_pgm(path, levels / 255.0)
        assert path.read_bytes() == pgm_bytes(9, 13, levels)

    def test_pixels_round_to_the_nearest_level(self, tmp_path):
        rng = np.random.default_rng(21)
        img = rng.uniform(size=(7, 5))
        path = tmp_path / "img.pgm"
        al.write_pgm(path, img)
        assert path.read_bytes() == pgm_bytes(7, 5, np.clip(np.rint(img * 255), 0, 255))

    def test_clips_out_of_range(self, tmp_path):
        path = tmp_path / "img.pgm"
        al.write_pgm(path, np.array([[-0.5, 2.0]]))
        assert path.read_bytes() == pgm_bytes(1, 2, [[0, 255]])

    def test_labeled_image_writes_its_pixels(self, tmp_path):
        levels = np.random.default_rng(22).integers(0, 256, size=(3, 4))
        path = tmp_path / "img.pgm"
        al.write_pgm(path, LabeledImage(5, levels / 255.0, 1))
        assert path.read_bytes() == pgm_bytes(3, 4, levels)

    def test_rejects_non_finite_pixel_before_writing(self, tmp_path):
        path = tmp_path / "img.pgm"
        img = np.full((4, 6), 0.5)
        img[2, 5] = np.nan
        with pytest.raises(InvalidInputError,
                           match="image: non-finite value nan at row 2, column 5"):
            al.write_pgm(path, img)
        assert not path.exists()
