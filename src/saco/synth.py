"""Synthetic datasets for demos, benchmarks and acceptance checks.

Four families:

* ``clustered_instance`` — labeled candidates from a mixture of
  sub-centres, the pool the selection checks and ``bench-greedy`` use.
* ``make_blobs2d`` — labeled 2-D point clouds where the points serve as
  both features and spatial coordinates.
* ``make_spatial_texture`` — classes that share the same texture
  prototypes and the same marginal texture distribution, differing only
  in which texture appears in which spatial zone.  Any encoder blind to
  patch location pools to near-identical signatures, so separating the
  classes requires spatial awareness.
* ``make_viewpoints`` — one synthetic object rendered from two camera
  types, each instance at a random planted in-plane rotation; shapes
  are evaluated analytically in rotated coordinates so the planted
  angle is exact.
"""

from __future__ import annotations

import numpy as np

from .data import ImageFeatures, LabeledImage, PatchSet, check_count
from .errors import InvalidInputError


def clustered_instance(seed, m) -> PatchSet:
    """``m`` candidates: three classes of four sub-centres each in six dimensions.

    Locations are uniform on the unit square.
    """
    check_count("m", m)
    rng = np.random.default_rng([seed, 303])
    centers = rng.normal(0.0, 1.0, size=(3 * 4, 6))
    labels = rng.integers(0, 3, size=m)
    which = rng.integers(0, 4, size=m)
    feats = centers[labels * 4 + which] + 0.25 * rng.normal(size=(m, 6))
    return PatchSet(feats, rng.uniform(0.0, 1.0, size=(m, 2)), labels, np.zeros(m))


def make_blobs2d(n_classes=3, points_per_class=100, spread=0.06, seed=0) -> list[ImageFeatures]:
    """Per-class Gaussian blob mixtures in [0,1]^2; features == coords.

    Returns one pool per class (image_id == class label).  Class centers
    sit on a circle around (0.5, 0.5) with two satellite sub-blobs each,
    so neighboring classes overlap near the middle.
    """
    check_count("n_classes", n_classes, low=2)
    check_count("points_per_class", points_per_class)
    rng = np.random.default_rng(seed)
    pools = []
    for c in range(n_classes):
        ang = 2.0 * np.pi * c / n_classes
        center = np.array([0.5 + 0.28 * np.cos(ang), 0.5 + 0.28 * np.sin(ang)])
        subs = [center,
                center + [0.10 * np.cos(ang + 2.0), 0.10 * np.sin(ang + 2.0)],
                center + [0.10 * np.cos(ang - 2.0), 0.10 * np.sin(ang - 2.0)]]
        pts = []
        for i in range(points_per_class):
            mu = subs[i % len(subs)]
            pts.append(rng.normal(mu, spread))
        pts = np.clip(np.array(pts), 0.0, 1.0)
        pools.append(ImageFeatures(image_id=c, label=c, features=pts, coords=pts))
    return pools


def _orthonormal_rows(n_rows: int, dim: int, rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(dim, n_rows)))
    return q[:, :n_rows].T


def make_spatial_texture(n_classes=3, train_per_class=20, test_per_class=20,
                         pool_size=120, feature_dim=64, noise=0.05, seed=0):
    """Location-coded texture dataset; returns (train, test, meta).

    The unit square splits into four quadrant zones, one per texture.
    Class ``c`` places texture ``(zone + c) % 4`` in zone ``zone``; every
    image draws an equal number of patches from each zone, so the
    per-image texture histogram is exactly uniform for every class and
    only the (texture, location) joint distribution carries the class.
    ``pool_size`` is a positive multiple of 4 and there are at least two classes.
    """
    check_count("n_classes", n_classes, low=2)
    check_count("train_per_class", train_per_class)
    check_count("test_per_class", test_per_class)
    if check_count("pool_size", pool_size) % 4 != 0:
        raise InvalidInputError(f"pool_size must be divisible by 4, got {pool_size}")
    check_count("feature_dim", feature_dim, low=4)  # one dimension per texture
    rng = np.random.default_rng(seed)
    prototypes = _orthonormal_rows(4, feature_dim, rng)

    zone_lo = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
    per_zone = pool_size // 4

    def build_image(image_id, label):
        coords = np.empty((pool_size, 2))
        feats = np.empty((pool_size, feature_dim))
        row = 0
        for zone in range(4):
            texture = (zone + label) % 4
            offs = rng.uniform(0.0, 0.5, size=(per_zone, 2))
            coords[row : row + per_zone] = zone_lo[zone] + offs
            # one draw per patch that no feature uses: it keeps each seed's stream
            rng.uniform(size=per_zone)
            feats[row : row + per_zone] = prototypes[texture] + noise * rng.normal(
                size=(per_zone, feature_dim)
            )
            row += per_zone
        return ImageFeatures(image_id=image_id, label=label, features=feats, coords=coords)

    train, test = [], []
    next_id = 0
    for c in range(n_classes):
        for _ in range(train_per_class):
            train.append(build_image(next_id, c))
            next_id += 1
    for c in range(n_classes):
        for _ in range(test_per_class):
            test.append(build_image(next_id, c))
            next_id += 1
    meta = {"prototypes": prototypes, "n_classes": n_classes, "feature_dim": feature_dim}
    return train, test, meta


# -- viewpoint shapes ----------------------------------------------------------


def _soft_inside(d, softness=0.02):
    """1 inside (d <= 0), 0 outside, linear ramp of width ``softness``."""
    return np.clip(-d / softness + 0.5, 0.0, 1.0)


def _render_view(view: int, theta_deg: float, size: int) -> np.ndarray:
    """Evaluate a view's shape function on a grid rotated by theta.

    Coordinates are normalized to [-0.5, 0.5]; the planted rotation is
    applied analytically, so no interpolation touches the ground truth.
    """
    half = (size - 1) / 2.0
    yy, xx = np.mgrid[0:size, 0:size]
    x = (xx - half) / size
    y = (yy - half) / size
    t = np.radians(theta_deg)
    ct, st = np.cos(t), np.sin(t)
    # rotate sample coords back into the shape's own frame
    xr = ct * x + st * y
    yr = -st * x + ct * y
    img = np.zeros((size, size))
    if view == 0:
        # elongated ellipse with a brightness gradient along the major
        # axis plus a bright off-center spot: orientation is unambiguous
        ell = (xr / 0.42) ** 2 + (yr / 0.18) ** 2 - 1.0
        inside = _soft_inside(ell, 0.08)
        img += inside * (0.45 + 0.30 * np.clip(xr / 0.42, -1, 1))
        spot = np.sqrt((xr - 0.22) ** 2 + yr**2) - 0.08
        img += 0.55 * _soft_inside(spot)
    else:
        # annulus plus a radial bar toward +x
        r = np.sqrt(xr**2 + yr**2)
        ring = np.maximum(0.28 - r, r - 0.40)
        img += 0.75 * _soft_inside(ring)
        bar = np.maximum.reduce([np.abs(yr) - 0.045, -xr, xr - 0.44])
        img += 0.6 * _soft_inside(bar)
    return np.clip(img, 0.0, 1.0)


def make_viewpoints(per_view=30, size=64, seed=0):
    """Two camera types x ``per_view`` random in-plane rotations.

    Returns (images, view_labels, rotations); image ``i`` shows view
    ``view_labels[i]`` rotated by ``rotations[i]`` degrees.
    """
    check_count("per_view", per_view)
    check_count("size", size, low=8)
    rng = np.random.default_rng(seed)
    images = []
    labels = []
    rotations = []
    image_id = 0
    for view in (0, 1):
        for _ in range(per_view):
            theta = float(rng.uniform(0.0, 360.0))
            images.append(LabeledImage(image_id, _render_view(view, theta, size), view))
            labels.append(view)
            rotations.append(theta)
            image_id += 1
    return images, np.asarray(labels, dtype=np.int64), np.asarray(rotations)
