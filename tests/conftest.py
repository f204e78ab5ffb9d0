import itertools
import math

import numpy as np
import pytest

import saco.coding as cd
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


def reference_kkt_rows(R, D, A, W, ridge, lambda1):
    """Per row, the infinity norm of the optimality-condition violation, as the
    iterative coder first computed it: every term, ridge included, by a fresh
    temporary."""
    grad = R @ D + ridge * A
    thresh = lambda1 * W
    res = np.where(A != 0, np.abs(grad + thresh * np.sign(A)),
                   np.maximum(0.0, np.abs(grad) - thresh))
    return res.max(axis=1)


def reference_fista_rows(X, dictionary, W, ridge, lambda1, lmax, events=None):
    """The iterative coder's loop written plainly, one fresh array per
    expression: ``saco.coding._fista_rows`` must return its bits.

    Reads the stop constants from ``saco.coding`` at call time.  ``events``,
    if given, gets (iteration, rows restarted, rows frozen) for every
    iteration of a non-empty batch.
    """
    D = dictionary.matrix
    n, m = W.shape
    lips = lmax + ridge.max(axis=1)
    A = np.zeros((n, m))
    kkt = np.zeros(n)
    iterations = np.zeros(n, dtype=np.int64)
    converged = lips <= 0
    rows = np.flatnonzero(~converged)
    x, w = X[rows], W[rows]
    step = 1.0 / lips[rows, None]
    thresh = step * lambda1 * w
    w2, ridged = ridge[rows], ridge.any()
    tol = cd.FISTA_KKT_TOL * np.abs(x @ D).max(axis=1)
    a = y = np.zeros((len(rows), m))
    ra = ry = -x
    t = np.ones(len(rows))
    for it in range(1, cd.FISTA_MAX_ITER + 1):
        if not rows.size:
            break
        z = cd.soft_threshold(y - step * (ry @ D + w2 * y), thresh)
        dz = z - a
        dr = dz @ D.T
        rise = (np.einsum("ij,ij->i", dr, ra + 0.5 * dr)
                + lambda1 * np.einsum("ij,ij->i", w, np.abs(z) - np.abs(a)))
        if ridged:
            rise += 0.5 * np.einsum("ij,ij->i", w2 * dz, z + a)
        take = rise <= 0
        t_next = np.where(take, 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t)), 1.0)
        beta = np.where(take, (t - 1.0) / t_next, 0.0)[:, None]
        if not take.all():
            back = ~take
            z[back], dz[back], dr[back] = a[back], 0.0, 0.0
        a, ra, t = z, ra + dr, t_next
        frozen = 0
        if it % cd.FISTA_KKT_EVERY == 0 or it == cd.FISTA_MAX_ITER:
            ra = a @ D.T - x
            res = reference_kkt_rows(ra, D, a, w, w2, lambda1)
            A[rows], kkt[rows], iterations[rows] = a, res, it
            done = res <= tol
            frozen = int(done.sum())
            if done.any():
                converged[rows[done]] = True
                keep = ~done
                rows, x, w, step, thresh, w2, tol = (
                    rows[keep], x[keep], w[keep], step[keep], thresh[keep], w2[keep], tol[keep])
                a, ra, t, dz, dr, beta = a[keep], ra[keep], t[keep], dz[keep], dr[keep], beta[keep]
        if events is not None:
            events.append((it, int((~take).sum()), frozen))
        y, ry = a + beta * dz, ra + beta * dr
    return A, converged, iterations, kkt
