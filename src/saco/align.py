"""Rotation-search alignment and viewpoint clustering.

Images are compared at a canonical 40x40 working size: one image is
rotated through a grid of angles (bilinear, about the image center,
zero padding), resized, and matched against the other by Euclidean
pixel distance.  Distances feed a reciprocal similarity with an epsilon
floor, a k-medoids clustering of viewpoints, and per-image alignment to
the nearest medoid.

Each search rotates an image once per grid angle into a (T, 1600)
frame stack.  One kernel gives the (q, T) distances from q targets to
a stack; its stacked vector products sum exactly as ``np.linalg.norm``
does.  ``align_to_medoid`` takes the first minimum over (cluster,
angle), so ties go to the lowest cluster, then the earliest angle.

Bilinear sampling is split into a plan and its application.  A plan
holds, for every output pixel, the flat indices and weights of its four
source corners; it depends only on the image shape and the angle (or
the resize target), never on the pixels.  Plans are built once and kept
in two LRU caches of ``PLAN_CACHE_SIZE`` entries each, keyed by
(shape, angle) and (shape, target shape), so a grid search rotates every
image through the same few plans.  A plan takes 64 bytes per output
pixel, ~262 KB for a 64x64 rotation, and its arrays are read-only.
Applying a plan repeats the arithmetic of sampling directly, operation
for operation, so results are bit-identical to it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledImage
from .errors import InvalidInputError

WORK_SIZE = 40
DEFAULT_EPSILON = 1e-6
# sampling plans kept per kind: the default 36-angle grid at one image shape
# fits with room to spare
PLAN_CACHE_SIZE = 48


def default_theta_grid(step=10.0) -> np.ndarray:
    if not 0 < step <= 360:
        raise InvalidInputError(f"theta step must be in (0, 360], got {step}")
    return np.arange(0.0, 360.0, step)


def _as_image(image) -> np.ndarray:
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidInputError(f"image must be a non-empty 2-D array, got shape {arr.shape}")
    return arr


def _pixels(image) -> np.ndarray:
    """The raster of a ``LabeledImage``, or ``image`` itself, as a 2-D float array."""
    return _as_image(image.pixels if isinstance(image, LabeledImage) else image)


def _theta_grid(theta_grid) -> np.ndarray:
    """The search grid as a non-empty 1-D float array of angles in [0, 360)."""
    grid = np.asarray(theta_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidInputError(f"theta grid must be a non-empty 1-D array, got shape {grid.shape}")
    bad = grid[~((grid >= 0) & (grid < 360))]
    if bad.size:
        raise InvalidInputError(f"theta grid angles must lie in [0, 360), got {bad[0]}")
    return grid


def _sampling_plan(xs: np.ndarray, ys: np.ndarray, h: int, w: int):
    """Bilinear gathers at float (x, y) positions in an h x w image.

    Returns (idx, wgt), each of shape (4,) + xs.shape: flat gather
    indices and weights of the four corners in (dy, dx) order.  Corners
    outside the frame index h * w, the zero that ``_apply_plan`` appends.
    """
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    fx = xs - x0
    fy = ys - y0
    idx = np.empty((4,) + xs.shape, dtype=np.int64)
    wgt = np.empty((4,) + xs.shape)
    for k, (dy, dx) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        xi = x0 + dx
        yi = y0 + dy
        wgt[k] = (fx if dx else 1.0 - fx) * (fy if dy else 1.0 - fy)
        valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        idx[k] = np.where(valid, yi * w + xi, h * w)
    idx.flags.writeable = False
    wgt.flags.writeable = False
    return idx, wgt


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _rotation_plan(h: int, w: int, theta_deg: float):
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    t = math.radians(theta_deg)
    ct, st = math.cos(t), math.sin(t)
    yy, xx = np.mgrid[0:h, 0:w]
    dx = xx - cx
    dy = yy - cy
    # inverse map: rotate destination offsets by -theta
    src_x = ct * dx + st * dy + cx
    src_y = -st * dx + ct * dy + cy
    return _sampling_plan(src_x, src_y, h, w)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _resize_plan(h: int, w: int, out_h: int, out_w: int):
    ys = np.linspace(0.0, h - 1.0, out_h) if out_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1.0, out_w) if out_w > 1 else np.zeros(1)
    gx, gy = np.meshgrid(xs, ys)
    return _sampling_plan(gx, gy, h, w)


def _apply_plan(plan, img: np.ndarray) -> np.ndarray:
    """Sum of weight * pixel over the plan's four corners, in corner order."""
    idx, wgt = plan
    flat = np.empty(img.size + 1)
    flat[:-1] = img.ravel()
    flat[-1] = 0.0
    vals = flat.take(idx)
    vals *= wgt
    # accumulate from zero, corner by corner, as the sampling is defined
    out = np.zeros(idx.shape[1:])
    for v in vals:
        out += v
    return out


def rotate_image(image, theta_deg: float) -> np.ndarray:
    """Rotate by theta degrees about the center; bilinear, zero padding."""
    img = _as_image(image)
    theta_deg = float(theta_deg)
    if not math.isfinite(theta_deg):
        raise InvalidInputError(f"rotation angle must be finite, got {theta_deg}")
    return _apply_plan(_rotation_plan(*img.shape, theta_deg), img)


def resize_image(image, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize with corner-aligned sampling (identity if same size)."""
    img = _as_image(image)
    if out_h < 1 or out_w < 1:
        raise InvalidInputError(f"resize target must be at least 1x1, got {out_h}x{out_w}")
    if img.shape == (out_h, out_w):
        return img.copy()
    return _apply_plan(_resize_plan(*img.shape, out_h, out_w), img)


def rotate_resize(image, theta_deg: float, size: int = WORK_SIZE) -> np.ndarray:
    """Rotate about the center, then resize to the working square."""
    return resize_image(rotate_image(image, theta_deg), size, size)


def _frames(pixels: np.ndarray, theta_grid) -> np.ndarray:
    """(T, s) stack: ``pixels`` at each grid angle in the working square, flattened."""
    return np.stack([rotate_resize(pixels, t).ravel() for t in theta_grid])


def _distances(targets: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """(q, T) Euclidean distances from each of q flattened targets to each frame."""
    diff = frames[None, :, :] - targets[:, None, :]
    return np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0])


def pairwise_similarity(a, b, theta_grid, epsilon=DEFAULT_EPSILON) -> float:
    """Reciprocal of the best rotation-search distance, both directions.

    Returns the average of 1/(epsilon + min_theta ||A - R_theta(B)||)
    and the same with the roles swapped.  Identical images score
    exactly 1/epsilon when the grid contains 0.
    """
    if not epsilon > 0:
        raise InvalidInputError(f"epsilon must be > 0, got {epsilon}")
    grid = _theta_grid(theta_grid)
    a, b = _pixels(a), _pixels(b)
    d_ab = _distances(rotate_resize(a, 0.0).ravel()[None], _frames(b, grid)).min()
    d_ba = _distances(rotate_resize(b, 0.0).ravel()[None], _frames(a, grid)).min()
    return float(0.5 * (1.0 / (epsilon + d_ab) + 1.0 / (epsilon + d_ba)))


def dissimilarity_matrix(images, theta_grid, epsilon=DEFAULT_EPSILON) -> np.ndarray:
    """Symmetric rotation-search dissimilarities with a zero diagonal.

    Off-diagonal entries are epsilon plus the average of the two
    directional minima; the diagonal is zero by convention so that
    trivial clusterings have zero cost.
    """
    if not epsilon > 0:
        raise InvalidInputError(f"epsilon must be > 0, got {epsilon}")
    grid = _theta_grid(theta_grid)
    n = len(images)
    pixels = [_pixels(img) for img in images]
    base = np.stack([rotate_resize(px, 0.0).ravel() for px in pixels])
    rots = np.stack([_frames(px, grid) for px in pixels])  # (n, T, s)
    base_sq = np.einsum("is,is->i", base, base)
    rot_sq = np.einsum("its,its->it", rots, rots)
    dm = np.zeros((n, n))
    for i in range(n):
        # directional distance from i's canonical frame to every rotation of j
        d2 = base_sq[i] + rot_sq - 2.0 * (rots @ base[i])
        np.maximum(d2, 0.0, out=d2)
        dm[i] = np.sqrt(d2.min(axis=1))
    sym = 0.5 * (dm + dm.T) + epsilon
    np.fill_diagonal(sym, 0.0)
    return sym


@dataclass
class ViewpointModel:
    """Medoid exemplars for canonical viewpoints plus the search grid."""

    medoid_ids: list[int]
    thumbnails: list[np.ndarray]  # WORK_SIZE x WORK_SIZE canonical frames
    theta_grid: np.ndarray

    def __post_init__(self):
        if len(self.medoid_ids) < 1:
            raise InvalidInputError("viewpoint model needs at least one medoid")
        if len(self.thumbnails) != len(self.medoid_ids):
            raise InvalidInputError(f"viewpoint model has {len(self.medoid_ids)} medoids but "
                                    f"{len(self.thumbnails)} thumbnails")
        for i, thumb in enumerate(self.thumbnails):
            if np.shape(thumb) != (WORK_SIZE, WORK_SIZE):
                raise InvalidInputError(f"thumbnail {i} must be {WORK_SIZE}x{WORK_SIZE}, "
                                        f"got shape {np.shape(thumb)}")
        self.theta_grid = _theta_grid(self.theta_grid)


def k_medoids(images, k, theta_grid, seed, max_iter=100, epsilon=DEFAULT_EPSILON):
    """Voronoi-iteration k-medoids on rotation-search dissimilarities.

    Returns (model, assignments, cost_history).  Initial medoids are a
    seeded draw; assignment ties go to the lowest cluster index and
    medoid-update ties to the lowest member index, so runs are fully
    reproducible.  The cost history never increases.
    """
    n = len(images)
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must be in [1, {n}], got {k}")
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be >= 1, got {max_iter}")
    grid = _theta_grid(theta_grid)
    dm = dissimilarity_matrix(images, grid, epsilon)
    rng = np.random.default_rng(seed)
    medoids = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
    cost_history = []
    assign = None
    for _ in range(max_iter):
        dist_to_medoids = dm[:, medoids]  # (n, k)
        assign = dist_to_medoids.argmin(axis=1)
        cost_history.append(float(dist_to_medoids[np.arange(n), assign].sum()))
        new_medoids = []
        for ci in range(k):
            members = np.flatnonzero(assign == ci)
            if members.size == 0:
                new_medoids.append(medoids[ci])
                continue
            within = dm[np.ix_(members, members)].sum(axis=1)
            new_medoids.append(int(members[int(within.argmin())]))
        if new_medoids == medoids:
            break
        medoids = new_medoids
    model = ViewpointModel(
        medoid_ids=list(medoids),
        thumbnails=[rotate_resize(_pixels(images[i]), 0.0) for i in medoids],
        theta_grid=grid,
    )
    return model, np.asarray(assign, dtype=np.int64), cost_history


def align_to_medoid(image, model: ViewpointModel):
    """Best (cluster, rotation) for one image, plus the rotated image.

    Scans every medoid and grid angle for the smallest distance between
    the rotated image and the medoid thumbnail; ties prefer the lowest
    cluster index, then the earliest grid angle.  Returns
    (aligned_image, cluster_index, theta_star) where the aligned image
    is the original raster rotated by theta_star.
    """
    px = _pixels(image)
    thumbs = np.stack(model.thumbnails).reshape(len(model.thumbnails), -1)
    dist = _distances(thumbs, _frames(px, model.theta_grid))  # (cluster, angle)
    cluster, ti = np.unravel_index(int(dist.argmin()), dist.shape)
    theta = float(model.theta_grid[ti])
    return rotate_image(px, theta), int(cluster), theta


# -- PGM files ----------------------------------------------------------------


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) PGM into floats in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    i = 0
    while len(tokens) < 4 and i < len(data):
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise InvalidInputError(f"{path}: not a binary PGM (P5) file")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if w < 1 or h < 1 or not 0 < maxval <= 255:
        raise InvalidInputError(f"{path}: unsupported PGM geometry {w}x{h} maxval {maxval}")
    i += 1  # single whitespace after maxval
    raster = data[i : i + w * h]
    if len(raster) != w * h:
        raise InvalidInputError(f"{path}: truncated raster, expected {w * h} bytes")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w).astype(np.float64) / maxval


def write_pgm(path, image) -> None:
    """Write floats in [0, 1] as a binary (P5) PGM with maxval 255."""
    img = _as_image(image)
    quant = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = quant.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quant.tobytes())
