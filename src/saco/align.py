"""Rotation-search alignment and viewpoint clustering.

Images are compared at a canonical 40x40 working size: one image is
rotated through a grid of angles (bilinear, about the image center,
zero padding), resized, and matched against the other by Euclidean
pixel distance.  Distances feed a k-medoids clustering of viewpoints
and per-image alignment to the nearest medoid.  Every off-diagonal
dissimilarity is at least ``DEFAULT_EPSILON``, so a medoid stays in its
own cluster even when another image is identical to it.  Rasters
(``data.raster``), thumbnails and the theta grid are checked once, a
``LabeledImage``'s or ``ViewpointModel``'s when it is built; this module
adds grid angles in [0, 360) and one angle rule, a 0-d ``finite_array``.

A list of images goes through the grid in blocks, one angle at a time:
the images of one shape walk by ``data.blocks``, max(h w, s) doubles an
image, s = WORK_SIZE^2, and a block's images are the columns of one
matrix, rotated (and resized) by one sparse product per angle.
``dissimilarity_matrix`` puts each block's frames at each angle into one
matrix product against the (n, s) canonical frames and a running
minimum, so it holds O(n^2 + s n) doubles plus one block; its distances
are within its stated tolerance, and the bits of one unblocked product
only while every block is wide enough for the BLAS's normal kernel.
``align_to_medoid`` ranks one image's (s, T) frames against the thumbnails
by the search's own d^2 and takes the first minimum over (cluster, angle):
among equal bits, ties go to the lowest cluster, then angle.

Bilinear sampling is a linear operator on the flattened pixels.  A
plan is a read-only ``scipy.sparse.csr_array`` of shape (output pixels,
h * w) whose row holds the weights of an output pixel's in-frame source
corners, with int32 indices where they fit.  Plans are kept in two LRU
caches of ``PLAN_CACHE_SIZE`` entries, the rotations keyed by (shape,
angle) and the resizes to the working square by shape alone; one takes
43-52 bytes per output pixel (~190 KB for a 64x64 rotation).  The CSR
product sums each row's corners from zero in (dy, dx) order, as sampling
is defined, in every column of a stack, so results are bit-identical to
sampling one image directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import (LabeledImage, blocks, check_count, finite_array, positions, raster,
                   read_only)
from .errors import InvalidInputError

WORK_SIZE = 40
DEFAULT_EPSILON = 1e-6
KMEDOIDS_MAX_ITER = 100
# sampling plans kept per kind: the default 36-angle grid at one image shape
# fits with room to spare
PLAN_CACHE_SIZE = 48


def default_theta_grid(step=10.0) -> np.ndarray:
    if not 0 < step <= 360:
        raise InvalidInputError(f"theta step must be in (0, 360], got {step}")
    return np.arange(0.0, 360.0, step)


def _pixels(image, name="image") -> np.ndarray:
    """A ``LabeledImage``'s raster as it is, or ``image`` checked by ``data.raster``,
    whose error names it by ``name``."""
    return image.pixels if isinstance(image, LabeledImage) else raster(name, image)


def _theta_grid(theta_grid) -> np.ndarray:
    """The search grid as a non-empty 1-D float array of angles in [0, 360)."""
    grid = finite_array("theta grid", theta_grid, (None,))
    if not grid.size:
        raise InvalidInputError("theta grid must hold at least one angle")
    bad = grid[~((grid >= 0) & (grid < 360))]
    if bad.size:
        raise InvalidInputError(f"theta grid angles must lie in [0, 360), got {bad[0]}")
    return grid


def _sampling_plan(xs: np.ndarray, ys: np.ndarray, h: int, w: int) -> sp.csr_array:
    """Bilinear sampling at float (x, y) positions in an h x w image, as an operator.

    Row r of the (xs.size, h * w) result holds the in-frame corners of
    output pixel r in (dy, dx) order, which is ascending column order.
    Out-of-frame corners are dropped; in-frame corners of weight 0 are
    kept, since their signed-zero terms still decide the sign of a zero
    result, as with -0.0 pixels.  (Non-finite pixels never get here.)
    """
    dx, dy = np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])
    xs, ys = np.reshape(xs, (-1, 1)), np.reshape(ys, (-1, 1))
    fx, fy = xs - np.floor(xs), ys - np.floor(ys)
    xi = np.floor(xs).astype(np.int64) + dx
    yi = np.floor(ys).astype(np.int64) + dy
    wgt = np.where(dx, fx, 1.0 - fx) * np.where(dy, fy, 1.0 - fy)
    valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
    itype = np.int32 if max(h * w, valid.size) < 2 ** 31 else np.int64  # every index fits
    indices, indptr = (yi * w + xi)[valid], np.r_[0, valid.sum(axis=1).cumsum()]
    op = sp.csr_array((wgt[valid], indices.astype(itype), indptr.astype(itype)),
                      shape=(len(xs), h * w))
    for arr in (op.data, op.indices, op.indptr):
        read_only(arr)
    return op


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _rotation_plan(h: int, w: int, theta_deg: float) -> sp.csr_array:
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    t = math.radians(theta_deg)
    ct, st = math.cos(t), math.sin(t)
    yy, xx = np.mgrid[0:h, 0:w]
    dx, dy = xx - cx, yy - cy
    # inverse map: rotate destination offsets by -theta
    return _sampling_plan(ct * dx + st * dy + cx, -st * dx + ct * dy + cy, h, w)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _resize_plan(h: int, w: int) -> sp.csr_array:
    """Corner-aligned resize of an h x w image to the WORK_SIZE working square."""
    ys, xs = np.linspace(0.0, h - 1.0, WORK_SIZE), np.linspace(0.0, w - 1.0, WORK_SIZE)
    gx, gy = np.meshgrid(xs, ys)
    return _sampling_plan(gx, gy, h, w)


def _angle(theta_deg) -> float:
    """One rotation angle in degrees, a finite 0-d ``finite_array``, as a float."""
    return float(finite_array("rotation angle", theta_deg, ()))


def rotate_image(image, theta_deg: float) -> np.ndarray:
    """Rotate by theta degrees about the center; bilinear, zero padding."""
    img = _pixels(image)
    return (_rotation_plan(*img.shape, _angle(theta_deg)) @ img.ravel()).reshape(img.shape)


def rotate_resize(image, theta_deg: float) -> np.ndarray:
    """The search's frame of ``image`` at one angle, rendered by ``_frames``: rotated
    about the center, then resized to the WORK_SIZE working square."""
    return _frames([_pixels(image)], [_angle(theta_deg)]).reshape(WORK_SIZE, WORK_SIZE)


def _sampled(images, theta_grid):
    """Per block: (indices, generator of their (s, n_b) frames at each grid angle).

    The images of one shape walk by ``data.blocks``, the wider of an
    image's pixels and frame a column.  A block's images are the columns of
    one matrix, rotated (and resized) by one product per angle; column c of
    the frames is image ``indices[c]`` in the working square, flattened
    (s = WORK_SIZE^2), as ``rotate_resize`` returns it.
    """
    for shape in dict.fromkeys(px.shape for px in images):
        idx = np.array([i for i, px in enumerate(images) if px.shape == shape])
        for span in blocks(len(idx), max(math.prod(shape), WORK_SIZE * WORK_SIZE)):
            block = idx[span]
            cols = np.stack([images[i].ravel() for i in block], axis=1)
            yield block, _rotated(cols, shape, theta_grid)


def _rotated(cols: np.ndarray, shape, theta_grid):
    """The (s, n_b) frames of the flattened images ``cols``, one grid angle at a time."""
    for theta in theta_grid:
        f = _rotation_plan(*shape, float(theta)) @ cols
        if shape != (WORK_SIZE, WORK_SIZE):
            f = _resize_plan(*shape) @ f
        yield f


def _frames(images, theta_grid) -> np.ndarray:
    """(n, T, s) stack: each image at each grid angle in the working square, flattened."""
    out = np.empty((len(images), len(theta_grid), WORK_SIZE * WORK_SIZE))
    for idx, frames in _sampled(images, theta_grid):
        for ti, f in enumerate(frames):
            out[idx, ti] = f.T
    return out


def _sq_distances(targets, targets_sq, frames) -> np.ndarray:
    """(q, n) d^2 = |t|^2 + |f|^2 - 2 t.f from (q, s) targets to (s, n) frames."""
    d2 = targets_sq[:, None] + np.einsum("sj,sj->j", frames, frames)
    d2 -= 2.0 * (targets @ frames)
    return d2


def _min_sq_distances(images, grid) -> np.ndarray:
    """(n, n) d2[i, j]: min over grid angles of |canonical frame of i - frame of j|^2."""
    base = _frames(images, [0.0])[:, 0]
    base_sq = np.einsum("is,is->i", base, base)
    d2 = np.empty((len(images), len(images)))
    for idx, frames in _sampled(images, grid):
        best = np.full((len(images), len(idx)), np.inf)
        for f in frames:
            np.minimum(best, _sq_distances(base, base_sq, f), out=best)
        d2[:, idx] = best
    return d2


def dissimilarity_matrix(images, theta_grid) -> np.ndarray:
    """Symmetric rotation-search dissimilarities with a zero diagonal.

    Off-diagonal entries are ``DEFAULT_EPSILON`` plus the average of the
    two directional minima; the diagonal is zero by convention so that
    trivial clusterings have zero cost.  The grid is searched one block
    of same-shape images and one angle at a time: the block's frames go
    into one matrix product against the canonical frames and a running
    minimum.  Neither every frame nor every distance is held at once, so
    working memory is O(n^2 + n s) doubles, s = WORK_SIZE^2, plus one
    ``BLOCK_DOUBLES`` block, whatever the image and grid sizes.  Each
    d^2 = |a|^2 + |b|^2 - 2 a.b, a.b from that product, is off by at most
    ~2e-13 (|a|^2 + |b|^2).  At one BLAS thread they are the bits of one
    unblocked product only while every block is wide enough for the BLAS's
    normal kernel, as 240 64x64 images in blocks of 60 are; narrower
    blocks (20 256x256 images go in blocks of 4) or more threads may move
    them within that bound.
    """
    grid = _theta_grid(theta_grid)
    if len(images) == 0:
        raise InvalidInputError("dissimilarity_matrix needs at least one image")
    pixels = [_pixels(img, f"image at position {i}") for i, img in enumerate(images)]
    dm = np.sqrt(np.maximum(_min_sq_distances(pixels, grid), 0.0))
    sym = 0.5 * (dm + dm.T) + DEFAULT_EPSILON
    np.fill_diagonal(sym, 0.0)
    return sym


@dataclass(frozen=True)
class ViewpointModel:
    """Medoid exemplars for canonical viewpoints plus the search grid."""

    medoid_ids: list[int]
    thumbnails: np.ndarray  # (k, WORK_SIZE, WORK_SIZE) canonical frames, one per medoid
    theta_grid: np.ndarray

    def __post_init__(self):
        ids = positions("medoid id", self.medoid_ids)
        if not len(ids):
            raise InvalidInputError("viewpoint model needs at least one medoid")
        if len(self.thumbnails) != len(ids):
            raise InvalidInputError(f"viewpoint model has {len(ids)} medoids but "
                                    f"{len(self.thumbnails)} thumbnails")
        try:  # the (k, WORK_SIZE, WORK_SIZE) block at one copy at most
            thumbs = finite_array("thumbnails", self.thumbnails, (len(ids), WORK_SIZE, WORK_SIZE))
        except InvalidInputError:  # named by the first bad thumbnail
            for i, thumb in enumerate(self.thumbnails):
                finite_array(f"thumbnail {i}", thumb, (WORK_SIZE, WORK_SIZE))
            raise
        vars(self).update(medoid_ids=ids.tolist(), thumbnails=thumbs,
                          theta_grid=_theta_grid(self.theta_grid))


def k_medoids(images, k, theta_grid, seed):
    """Voronoi-iteration k-medoids on rotation-search dissimilarities.

    Returns (model, assignments, cost_history) once the medoids stop
    moving, or after ``KMEDOIDS_MAX_ITER`` rounds; either way each image is
    assigned to its nearest returned medoid, and the last cost is theirs.
    The model's thumbnails are the medoids' canonical frames from the search.
    Initial medoids are a seeded draw; assignment ties go to the lowest
    cluster index and medoid-update ties to the lowest member index, so
    runs are fully reproducible.  The cost history never increases.
    """
    n = len(images)
    if check_count("k", k) > n:
        raise InvalidInputError(f"k must be in [1, {n}], got {k}")
    check_count("seed", seed, low=0)
    grid = _theta_grid(theta_grid)
    dm = dissimilarity_matrix(images, grid)
    rng = np.random.default_rng(seed)
    medoids = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
    cost_history = []
    assign = None
    for _ in range(KMEDOIDS_MAX_ITER):
        dist_to_medoids = dm[:, medoids]  # (n, k)
        assign = dist_to_medoids.argmin(axis=1)
        cost_history.append(float(dist_to_medoids[np.arange(n), assign].sum()))
        new_medoids = list(medoids)  # an empty cluster keeps its medoid
        for ci in np.unique(assign):
            members = np.flatnonzero(assign == ci)
            new_medoids[ci] = int(members[dm[np.ix_(members, members)].sum(axis=1).argmin()])
        if new_medoids == medoids or len(cost_history) == KMEDOIDS_MAX_ITER:
            break
        medoids = new_medoids
    thumbs = _frames([_pixels(images[i]) for i in medoids], [0.0])
    model = ViewpointModel(medoids, thumbs.reshape(k, WORK_SIZE, WORK_SIZE), grid)
    return model, np.asarray(assign, dtype=np.int64), cost_history


def align_to_medoid(image, model: ViewpointModel):
    """Best (cluster, rotation) for one image, plus the rotated image.

    Scans every medoid and grid angle for the smallest d^2, as the search
    computes it, between the rotated image's frame and the medoid thumbnail;
    among equal bits, ties prefer the lowest cluster, then the earliest angle.
    Returns (aligned_image, cluster_index, theta_star), the aligned image being
    the original raster rotated by theta_star.
    """
    px = _pixels(image)
    thumbs = model.thumbnails.reshape(len(model.thumbnails), -1)
    frames = _frames([px], model.theta_grid)[0].T  # (s, angle)
    d2 = _sq_distances(thumbs, np.einsum("is,is->i", thumbs, thumbs), frames)  # (cluster, angle)
    cluster, ti = np.unravel_index(int(d2.argmin()), d2.shape)
    theta = float(model.theta_grid[ti])
    return rotate_image(px, theta), int(cluster), theta


# -- PGM writer ---------------------------------------------------------------


def write_pgm(path, image) -> None:
    """Write finite floats in [0, 1] as a binary (P5) PGM with maxval 255."""
    img = _pixels(image)
    quant = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = quant.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quant.tobytes())
