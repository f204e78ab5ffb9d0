import itertools
import math

import numpy as np
import pytest

from saco.data import Patch, PatchSet
from saco.errors import InvalidInputError
from saco.graphs import build_feature_affinity, build_spatial_affinity
from saco.selection import evaluate_ids


def make_patches(seed, m=30, n_classes=3, dim=5, clustered=False):
    """Random labeled patches on the unit square."""
    rng = np.random.default_rng(seed)
    if clustered:
        centers = rng.normal(0.0, 1.0, size=(n_classes * 4, dim))
        labels = rng.integers(0, n_classes, size=m)
        which = rng.integers(0, 4, size=m)
        feats = centers[labels * 4 + which] + 0.25 * rng.normal(size=(m, dim))
    else:
        feats = rng.normal(size=(m, dim))
        labels = rng.integers(0, n_classes, size=m)
    coords = rng.uniform(0.0, 1.0, size=(m, 2))
    return [
        Patch(i, feats[i], (float(coords[i, 0]), float(coords[i, 1])), int(labels[i]), 0)
        for i in range(m)
    ]


def make_graphs(patches, k_nn=8):
    S = build_feature_affinity(patches, k_nn=k_nn)
    L = build_spatial_affinity(patches, k_nn=k_nn)
    return S, L


@pytest.fixture
def small_instance():
    patches = make_patches(11, m=24)
    S, L = make_graphs(patches, k_nn=6)
    return patches, S, L


def brute_force_opt(patches, S, L, weights, k):
    """Exhaustive maximum of the objective over subsets of size <= k.

    Guarded to small instances; returns (ids, value) with the first
    maximizer in (size, lexicographic) enumeration order.
    """
    labels = PatchSet.of(patches).labels
    m = len(labels)
    if math.comb(m, min(k, m)) > 1_000_000:
        raise InvalidInputError(f"C({m},{k}) too large for exhaustive search")
    best_ids: tuple[int, ...] = ()
    best_val = 0.0
    for size in range(1, min(k, m) + 1):
        for combo in itertools.combinations(range(m), size):
            v = evaluate_ids(combo, S, L, labels, weights)
            if v > best_val:
                best_val, best_ids = v, combo
    return list(best_ids), best_val
