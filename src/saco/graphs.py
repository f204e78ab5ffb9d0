"""Sparse affinity graphs over candidate patches.

Both graph builders sparsify with k-nearest-neighbor retention, apply a
Gaussian kernel exp(-d^2 / (2 sigma^2)), and symmetrize by elementwise
maximum.  The diagonal is excluded.  The feature graph estimates sigma
by the median pairwise distance over a deterministic sample of up to
1000 pairs; the spatial graph uses a fixed bandwidth (default 0.25 in
normalized coordinates).

Each point i keeps the k smallest (d^2, j) with j != i: ties in d^2 go
to the lower index, and self is excluded by index, so a duplicate of i
is a neighbour like any other.  d^2 is sum((x_i - x_j)^2) computed
directly.  Two paths find the neighbours:

- Points of at most ``TREE_MAX_DIM`` dimensions (the spatial graph, and
  low-dimensional features) use a k-d tree (``scipy.spatial.cKDTree``,
  imported on first use, one worker).  Its values are direct d^2 for
  every row.
- Points of higher dimension use dense blocks of rows ranked by the
  expansion |x|^2 + |y|^2 - 2 x.y.  It cancels for close points, so a
  value can be off by about p * eps * (|x|^2 + |y|^2); rows whose
  boundary may tie within that bound are re-ranked, and take their
  values, from direct d^2.

Both paths give the same sparsity pattern; the tree's direct d^2 moves
graph values by at most ~1e-14 from the expansion's.  Both walk their
rows by ``data.blocks``, m doubles a dense row (ranked in two buffers
allocated once per graph) and min(k + 2, m) p a tree row.  Each block
writes its rows into preallocated (m, k) outputs, neighbours in
ascending column order, and the graph's CSR arrays are those outputs as
they are; only the graph and its symmetrization grow with m.  A row's
neighbours do not depend on the block size; its dense expansion values
can, in the last bits.

At m = 7200, k = 50 on Gaussian points (one thread, medians of 5), the
tree takes 0.51 s against the dense path's 0.61 s at p = 7, 0.60 s
against 0.58-0.66 s at p = 8, 0.65 s against 0.53 s at p = 9 and 4.7 s
against 0.76 s at p = 64: the paths cross at p = 8, where they tie,
hence the threshold.  ``k_nn`` is checked by ``data.check_count``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .data import PatchSet, blocks, check_count, check_scalar
from .errors import DegenerateInputError, InvalidInputError

MEDIAN_SAMPLE_PAIRS = 1000
# points of at most this many dimensions get their neighbours from a k-d tree
TREE_MAX_DIM = 8
_EPS = np.finfo(np.float64).eps


class AffinityGraph:
    """Symmetric non-negative sparse affinity with a zero diagonal."""

    def __init__(self, matrix: sp.csr_matrix):
        matrix = matrix.tocsr()
        if matrix.shape[0] != matrix.shape[1]:
            raise InvalidInputError(f"affinity matrix must be square, got {matrix.shape}")
        self._csr = matrix
        self.n = matrix.shape[0]

    @property
    def csr(self) -> sp.csr_matrix:
        return self._csr

    def row(self, i: int):
        """Stored (indices, values) of row ``i``."""
        lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
        return self._csr.indices[lo:hi], self._csr.data[lo:hi]


def _median_pairwise_distance(X: np.ndarray) -> float:
    """Median Euclidean distance over a deterministic pair sample."""
    m = len(X)
    n_pairs = m * (m - 1) // 2
    if n_pairs <= MEDIAN_SAMPLE_PAIRS:
        iu = np.triu_indices(m, k=1)
        d = np.linalg.norm(X[iu[0]] - X[iu[1]], axis=1)
    else:
        rng = np.random.default_rng(0)
        i = rng.integers(0, m, size=MEDIAN_SAMPLE_PAIRS)
        off = rng.integers(1, m, size=MEDIAN_SAMPLE_PAIRS)
        j = (i + off) % m
        d = np.linalg.norm(X[i] - X[j], axis=1)
    return float(np.median(d))


def _sq_dist(X: np.ndarray, i, cols: np.ndarray) -> np.ndarray:
    """sum((X[cols] - X[i]) ** 2) over the coordinates, as the tie rule computes d^2."""
    diff = X[cols]
    diff -= X[i]
    diff *= diff
    return diff.sum(-1)


def _smallest(d2: np.ndarray, k: int):
    """Positions and values of each row's k smallest entries, and its (k + 1)-th smallest.

    Self is stored as inf, so with k = m - 1 the (k + 1)-th value is inf.
    """
    part = np.argpartition(d2, k, axis=1)
    nxt = d2[np.arange(len(d2)), part[:, k]]
    pos = part[:, :k]
    return pos.copy(), np.take_along_axis(d2, pos, 1), nxt


def _ranked(X: np.ndarray, rows: np.ndarray, cand: np.ndarray, k: int):
    """(cols, d^2), each (len(rows), k): per row, the k smallest (d^2, j), j != row.

    ``rows`` are points that coincide, so they share one ranking of the
    ascending candidates ``cand``; each row drops itself from it.
    """
    d2 = _sq_dist(X, rows[0], cand)
    order = np.argsort(d2, kind="stable")[:k + 1]
    keep = cand[order] != rows[:, None]
    keep[keep.all(axis=1), -1] = False  # a row outside the first k + 1 drops the last
    take = np.broadcast_to(order, keep.shape)[keep].reshape(len(rows), k)
    return cand[take], d2[take]


def _coinciding(X: np.ndarray, flagged: np.ndarray, reach: np.ndarray, lo: int):
    """Flagged rows of a block from row ``lo``, grouped by point and reach to share a ranking."""
    groups = {}
    for r in np.flatnonzero(flagged):
        groups.setdefault((X[lo + r].tobytes(), reach[r]), []).append(r)
    return map(np.array, groups.values())


def _by_column(cols: np.ndarray, vals: np.ndarray):
    """``cols`` and ``vals`` with each row's entries in ascending column order."""
    order = np.argsort(cols, axis=1)
    return np.take_along_axis(cols, order, 1), np.take_along_axis(vals, order, 1)


def _tree_block(X: np.ndarray, tree, lo: int, hi: int, k: int):
    """(cols, d^2) of rows lo..hi-1 by the tie rule, from the k-d tree ``tree``.

    The tree returns the k + 2 points nearest each row, self usually
    among them; their d^2 is recomputed directly.  When another of them
    agrees with a row's k-th value within the tree's rounding, the row's
    boundary may tie: it is re-ranked over the tree's ball around it,
    which holds every point at least as close as its k-th.  Coinciding
    flagged rows share one ball, which holds all of them.
    """
    p = X.shape[1]
    own = np.arange(lo, hi)[:, None]
    cand = tree.query(X[lo:hi], k=min(k + 2, len(X)))[1]  # its distances are not kept
    d2 = _sq_dist(X, own, cand)
    d2[cand == own] = np.inf  # self goes by index, not by position
    pos, vals, nxt = _smallest(d2, k)
    cols = np.take_along_axis(cand, pos, 1)
    # the tree's distances and direct d^2 differ by rounding alone
    reach = vals.max(axis=1) * (1.0 + 8.0 * (p + 3) * _EPS)
    for rows in _coinciding(X, nxt <= reach, reach, lo):
        ball = tree.query_ball_point(X[lo + rows[0]], np.sqrt(reach[rows[0]]), return_sorted=True)
        cols[rows], vals[rows] = _ranked(X, lo + rows, np.asarray(ball), k)
    return _by_column(cols, vals)


def _tree_knn(X: np.ndarray, k: int):
    """(cols, d^2), each (m, k), by the tie rule, from a k-d tree queried in blocks of rows.

    Each row's neighbours come in ascending column order.
    """
    from scipy.spatial import cKDTree  # lazy: importing it costs ~0.12 s

    m, p = X.shape
    tree = cKDTree(X)
    cols, vals = np.empty((m, k), dtype=np.int32), np.empty((m, k))
    for rows in blocks(m, min(k + 2, m) * p):  # the (rows, k + 2, p) d^2 gather
        cols[rows], vals[rows] = _tree_block(X, tree, rows.start, rows.stop, k)
    return cols, vals


def _dense_block(X: np.ndarray, sq: np.ndarray, err: np.ndarray, lo: int, hi: int, k: int,
                 d2: np.ndarray, g: np.ndarray):
    """(cols, d^2) of rows lo..hi-1 by the tie rule, from one dense block.

    The expansion |x|^2 + |y|^2 - 2 x.y ranks the block, written into the
    (hi - lo, m) buffers ``d2`` and ``g``.  When another value lies within
    twice a row's rounding bound ``err`` of its k-th, the row's boundary
    may tie: it is re-ranked by direct d^2 over every point in that window
    (coinciding rows: over the union of their windows, which holds each of
    them, as their expansion d^2 is within ``err`` of 0).
    """
    np.add(sq[lo:hi, None], sq[None, :], out=d2)
    np.matmul(X[lo:hi], X.T, out=g)
    g *= 2.0
    d2 -= g
    np.maximum(d2, 0.0, out=d2)
    d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
    cols, vals, nxt = _smallest(d2, k)
    reach = vals.max(axis=1) + 2.0 * err[lo:hi]
    for rows in _coinciding(X, nxt <= reach, reach, lo):
        window = (d2[rows] <= reach[rows, None]).any(axis=0)
        cols[rows], vals[rows] = _ranked(X, lo + rows, np.flatnonzero(window), k)
    return _by_column(cols, vals)  # whatever order the rows were found in


def _dense_knn(X: np.ndarray, k: int):
    """(cols, d^2), each (m, k), by the tie rule, from dense blocks of rows.

    Each row's neighbours come in ascending column order, so the columns
    do not depend on the block size.  Every block reuses two (rows, m)
    buffers: fresh ones per block would each be mapped, faulted in and
    returned to the system again.
    """
    m, p = X.shape
    sq = np.einsum("ij,ij->i", X, X)
    # bound on |expansion - direct d^2| for every pair in row i
    err = 6.0 * (p + 2) * _EPS * (sq + sq.max())
    # the outputs exist before the first block, so no array that outlives a
    # block is placed in the space its temporaries free (peak RSS grows if so)
    cols, vals = np.empty((m, k), dtype=np.int32), np.empty((m, k))
    spans = blocks(m, m)
    d2, g = np.empty((spans[0].stop, m)), np.empty((spans[0].stop, m))  # the largest block
    for rows in spans:
        lo, hi = rows.start, rows.stop
        cols[rows], vals[rows] = _dense_block(X, sq, err, lo, hi, k, d2[:hi - lo], g[:hi - lo])
    return cols, vals


def _knn_gaussian(X: np.ndarray, k_nn: int, sigma: float) -> sp.csr_matrix:
    m, p = X.shape
    k = min(k_nn, m - 1)
    cols, d2 = (_tree_knn if p <= TREE_MAX_DIM else _dense_knn)(X, k)
    # every row holds k distinct columns in ascending order: the CSR arrays as they are
    data = d2.reshape(-1)
    np.negative(data, out=data)
    data /= 2.0 * sigma * sigma
    np.exp(data, out=data)
    mat = sp.csr_matrix((data, cols.reshape(-1), np.arange(0, m * k + 1, k)), shape=(m, m))
    return mat.maximum(mat.T)


def _checked_patches(patches, k_nn) -> PatchSet:
    """``patches`` as a ``PatchSet`` of at least 2, once ``k_nn`` is an integer >= 1."""
    if len(patches) < 2:
        raise InvalidInputError(f"need at least 2 patches, got {len(patches)}")
    check_count("k_nn", k_nn)
    return PatchSet.of(patches)


def build_feature_affinity(patches, k_nn=50) -> AffinityGraph:
    """kNN Gaussian affinity over patch feature vectors.

    The bandwidth is the median pairwise distance of a 1000-pair sample.
    """
    X = _checked_patches(patches, k_nn).features
    bw = _median_pairwise_distance(X)
    if bw <= 0.0:
        raise DegenerateInputError(f"kernel bandwidth sigma={bw} is unusable")
    return AffinityGraph(_knn_gaussian(X, k_nn, bw))


def build_spatial_affinity(patches, k_nn=50, sigma=0.25) -> AffinityGraph:
    """kNN Gaussian affinity over normalized patch coordinates."""
    coords = _checked_patches(patches, k_nn).coords
    check_scalar("spatial sigma", sigma, positive=True, error=DegenerateInputError)
    return AffinityGraph(_knn_gaussian(coords, k_nn, float(sigma)))
