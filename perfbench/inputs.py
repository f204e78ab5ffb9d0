"""Seeded input generators for the benchmark workloads.

The generators live here, not in the program, so a change to the
program cannot change what the benchmark feeds it: the same seed gives
the same arrays on every commit.  Each one reproduces, at this
repository's first benchmarked commit, the data the acceptance checks
use (``clustered_instance`` in the acceptance tests,
``saco.synth.make_spatial_texture`` and ``saco.synth.make_viewpoints``)
and returns plain numpy arrays; the workloads wrap them in the
program's input types.
"""

from __future__ import annotations

import numpy as np


def clustered_instance(seed: int, m: int):
    """Mixture-of-subcenters candidate pool: (features, coords, labels).

    Three classes with four sub-centres each in six dimensions, uniform
    locations on the unit square.
    """
    rng = np.random.default_rng([seed, 303])
    centers = rng.normal(0.0, 1.0, size=(3 * 4, 6))
    labels = rng.integers(0, 3, size=m)
    which = rng.integers(0, 4, size=m)
    feats = centers[labels * 4 + which] + 0.25 * rng.normal(size=(m, 6))
    coords = rng.uniform(0.0, 1.0, size=(m, 2))
    return feats, coords, labels


# texture set: classes, train and test images per class, patches per image,
# feature dimension and feature noise
N_CLASSES, TRAIN_PER_CLASS, TEST_PER_CLASS = 3, 20, 20
POOL_SIZE, FEATURE_DIM, NOISE = 120, 64, 0.15
# side of a viewpoint image in pixels
VIEW_SIZE = 64


def spatial_texture(seed: int):
    """Location-coded textures: a list of (image_id, label, features, coords).

    The unit square splits into quadrants; class ``c`` puts texture
    ``(zone + c) % 4`` in each zone, so only the (texture, location)
    pairing tells classes apart.  Train images come first, then test
    images, each block ordered by class.
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(FEATURE_DIM, 4)))
    prototypes = q[:, :4].T
    zone_lo = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
    per_zone = POOL_SIZE // 4

    def build_image(image_id, label):
        coords = np.empty((POOL_SIZE, 2))
        feats = np.empty((POOL_SIZE, FEATURE_DIM))
        for zone in range(4):
            rows = slice(zone * per_zone, (zone + 1) * per_zone)
            coords[rows] = zone_lo[zone] + rng.uniform(0.0, 0.5, size=(per_zone, 2))
            # the acceptance data draws a per-patch "junk" coin here (never
            # heads at its settings); drawing it keeps the random stream equal
            rng.uniform(size=per_zone)
            feats[rows] = prototypes[(zone + label) % 4] + NOISE * rng.normal(
                size=(per_zone, FEATURE_DIM)
            )
        return image_id, label, feats, coords

    images = []
    for per_class in (TRAIN_PER_CLASS, TEST_PER_CLASS):
        for c in range(N_CLASSES):
            for _ in range(per_class):
                images.append(build_image(len(images), c))
    return images


def _soft_inside(d, softness=0.02):
    return np.clip(-d / softness + 0.5, 0.0, 1.0)


def _render_view(view: int, theta_deg: float) -> np.ndarray:
    """One of two analytic shapes, rotated by ``theta_deg`` exactly."""
    half = (VIEW_SIZE - 1) / 2.0
    yy, xx = np.mgrid[0:VIEW_SIZE, 0:VIEW_SIZE]
    x = (xx - half) / VIEW_SIZE
    y = (yy - half) / VIEW_SIZE
    t = np.radians(theta_deg)
    ct, st = np.cos(t), np.sin(t)
    xr = ct * x + st * y
    yr = -st * x + ct * y
    img = np.zeros((VIEW_SIZE, VIEW_SIZE))
    if view == 0:
        # ellipse with a brightness ramp and an off-centre spot
        ell = (xr / 0.42) ** 2 + (yr / 0.18) ** 2 - 1.0
        img += _soft_inside(ell, 0.08) * (0.45 + 0.30 * np.clip(xr / 0.42, -1, 1))
        img += 0.55 * _soft_inside(np.sqrt((xr - 0.22) ** 2 + yr**2) - 0.08)
    else:
        # annulus with a radial bar
        r = np.sqrt(xr**2 + yr**2)
        img += 0.75 * _soft_inside(np.maximum(0.28 - r, r - 0.40))
        img += 0.6 * _soft_inside(np.maximum.reduce([np.abs(yr) - 0.045, -xr, xr - 0.44]))
    return np.clip(img, 0.0, 1.0)


def viewpoints(seed: int, per_view: int):
    """Two shapes at random planted rotations: (pixels, views, rotations)."""
    rng = np.random.default_rng(seed)
    pixels, views, rotations = [], [], []
    for view in (0, 1):
        for _ in range(per_view):
            theta = float(rng.uniform(0.0, 360.0))
            pixels.append(_render_view(view, theta))
            views.append(view)
            rotations.append(theta)
    return np.stack(pixels), np.asarray(views, dtype=np.int64), np.asarray(rotations)
