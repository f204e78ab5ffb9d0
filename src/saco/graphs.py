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
graph values by at most ~1e-14 from the expansion's.  At M = 7200,
k = 50 on Gaussian points (one thread), the tree takes 0.40 s against
the dense path's 0.54 s at p = 8, 0.62 s against 0.56 s at p = 10 and
3.0 s against 0.56 s at p = 64, hence the threshold.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .data import PatchSet
from .errors import DegenerateInputError, InvalidInputError

MEDIAN_SAMPLE_PAIRS = 1000
# points of at most this many dimensions get their neighbours from a k-d tree
TREE_MAX_DIM = 8
_CHUNK = 512
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

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def check_valid(self) -> None:
        """Assert exact symmetry, non-negativity and zero diagonal."""
        if self._csr.nnz and self._csr.data.min() < 0:
            raise InvalidInputError("negative affinity entry")
        if np.any(self._csr.diagonal() != 0):
            raise InvalidInputError("nonzero diagonal entry")
        if np.any((self._csr - self._csr.T).data):
            raise InvalidInputError("asymmetric affinity matrix")


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
    return ((X[cols] - X[i]) ** 2).sum(-1)


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


def _coinciding(X: np.ndarray, flagged: np.ndarray, reach: np.ndarray, lo: int = 0):
    """Flagged rows of a block from row ``lo``, grouped by point and reach to share a ranking."""
    groups = {}
    for r in np.flatnonzero(flagged):
        groups.setdefault((X[lo + r].tobytes(), reach[r]), []).append(r)
    return map(np.array, groups.values())


def _tree_knn(X: np.ndarray, k: int):
    """(cols, d^2), each (m, k), by the tie rule, from a k-d tree.

    The tree returns the k + 2 points nearest each row, self usually
    among them; their d^2 is recomputed directly.  When another of them
    agrees with a row's k-th value within the tree's rounding, the row's
    boundary may tie: it is re-ranked over the tree's ball around it,
    which holds every point at least as close as its k-th.  Coinciding
    flagged rows share one ball, which holds all of them.
    """
    from scipy.spatial import cKDTree  # lazy: importing it costs ~0.12 s

    m, p = X.shape
    tree = cKDTree(X)
    _, cand = tree.query(X, k=min(k + 2, m))
    d2 = np.concatenate([_sq_dist(X, np.arange(lo, min(lo + _CHUNK, m))[:, None],
                                  cand[lo:lo + _CHUNK]) for lo in range(0, m, _CHUNK)])
    d2[cand == np.arange(m)[:, None]] = np.inf  # self goes by index, not by position
    pos, vals, nxt = _smallest(d2, k)
    cols = np.take_along_axis(cand, pos, 1)
    # the tree's distances and direct d^2 differ by rounding alone
    reach = vals.max(axis=1) * (1.0 + 8.0 * (p + 3) * _EPS)
    for rows in _coinciding(X, nxt <= reach, reach):
        ball = tree.query_ball_point(X[rows[0]], np.sqrt(reach[rows[0]]), return_sorted=True)
        cols[rows], vals[rows] = _ranked(X, rows, np.asarray(ball), k)
    return cols, vals


def _dense_block(X: np.ndarray, sq: np.ndarray, err: np.ndarray, lo: int, hi: int, k: int):
    """(cols, d^2) of rows lo..hi-1 by the tie rule, from one dense block.

    The expansion |x|^2 + |y|^2 - 2 x.y ranks the block.  When another
    value lies within twice a row's rounding bound ``err`` of its k-th,
    the row's boundary may tie: it is re-ranked by direct d^2 over every
    point in that window (coinciding rows: over their windows and selves).
    Each (hi - lo, m) temporary is dropped as soon as it is used, so at
    most two are alive at once.
    """
    d2 = sq[lo:hi, None] + sq[None, :]
    g = X[lo:hi] @ X.T
    g *= 2.0
    d2 -= g
    del g
    np.maximum(d2, 0.0, out=d2)
    d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
    cols, vals, nxt = _smallest(d2, k)
    reach = vals.max(axis=1) + 2.0 * err[lo:hi]
    for rows in _coinciding(X, nxt <= reach, reach, lo):
        window = (d2[rows] <= reach[rows, None]).any(axis=0)
        window[lo + rows] = True
        cols[rows], vals[rows] = _ranked(X, lo + rows, np.flatnonzero(window), k)
    return cols, vals


def _dense_knn(X: np.ndarray, k: int):
    """(cols, d^2), each (m, k), by the tie rule, from dense blocks of rows."""
    m, p = X.shape
    sq = np.einsum("ij,ij->i", X, X)
    # bound on |expansion - direct d^2| for every pair in row i
    err = 6.0 * (p + 2) * _EPS * (sq + sq.max())
    # the outputs exist before the first block, so no array that outlives a
    # block is placed in the space its temporaries free (peak RSS grows if so)
    cols, vals = np.empty((m, k), dtype=np.intp), np.empty((m, k))
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        cols[lo:hi], vals[lo:hi] = _dense_block(X, sq, err, lo, hi, k)
    return cols, vals


def _knn_gaussian(X: np.ndarray, k_nn: int, sigma: float) -> sp.csr_matrix:
    m, p = X.shape
    k = min(k_nn, m - 1)
    cols, d2 = (_tree_knn if p <= TREE_MAX_DIM else _dense_knn)(X, k)
    mat = sp.coo_matrix(
        (np.exp(-d2.ravel() / (2.0 * sigma * sigma)), (np.arange(m).repeat(k), cols.ravel())),
        shape=(m, m),
    ).tocsr()
    return mat.maximum(mat.T)


def build_feature_affinity(patches, k_nn=50) -> AffinityGraph:
    """kNN Gaussian affinity over patch feature vectors.

    The bandwidth is the median pairwise distance of a 1000-pair sample.
    """
    if len(patches) < 2:
        raise InvalidInputError(f"need at least 2 patches, got {len(patches)}")
    if k_nn < 1:
        raise InvalidInputError(f"k_nn must be >= 1, got {k_nn}")
    X = PatchSet.of(patches).features
    bw = _median_pairwise_distance(X)
    if bw <= 0.0:
        raise DegenerateInputError(f"kernel bandwidth sigma={bw} is unusable")
    return AffinityGraph(_knn_gaussian(X, k_nn, bw))


def build_spatial_affinity(patches, k_nn=50, sigma=0.25) -> AffinityGraph:
    """kNN Gaussian affinity over normalized patch coordinates."""
    if len(patches) < 2:
        raise InvalidInputError(f"need at least 2 patches, got {len(patches)}")
    if k_nn < 1:
        raise InvalidInputError(f"k_nn must be >= 1, got {k_nn}")
    if not sigma > 0.0:
        raise DegenerateInputError(f"spatial sigma={sigma} is unusable")
    return AffinityGraph(_knn_gaussian(PatchSet.of(patches).coords, k_nn, float(sigma)))
