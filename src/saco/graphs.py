"""Sparse affinity graphs over candidate patches.

Both graph builders sparsify with k-nearest-neighbor retention, apply a
Gaussian kernel exp(-d^2 / (2 sigma^2)), and symmetrize by elementwise
maximum.  The diagonal is excluded.  The feature graph estimates sigma
by the median pairwise distance over a deterministic sample of up to
1000 pairs; the spatial graph uses a fixed bandwidth (default 0.25 in
normalized coordinates).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .data import PatchSet
from .errors import DegenerateInputError, InvalidInputError

MEDIAN_SAMPLE_PAIRS = 1000
_CHUNK = 512


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

    def rows_dense(self, ids) -> np.ndarray:
        return np.asarray(self._csr[list(ids)].todense())

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def check_valid(self, atol=0.0) -> None:
        """Assert symmetry, non-negativity and zero diagonal."""
        if self._csr.nnz and self._csr.data.min() < 0:
            raise InvalidInputError("negative affinity entry")
        if np.any(self._csr.diagonal() != 0):
            raise InvalidInputError("nonzero diagonal entry")
        diff = self._csr - self._csr.T
        if diff.nnz and np.max(np.abs(diff.data)) > atol:
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


def _knn_gaussian(X: np.ndarray, k_nn: int, sigma: float) -> sp.csr_matrix:
    m = len(X)
    k = min(k_nn, m - 1)
    sq = np.einsum("ij,ij->i", X, X)
    rows_idx = []
    cols_idx = []
    vals = []
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        d2 = sq[lo:hi, None] + sq[None, :] - 2.0 * (X[lo:hi] @ X.T)
        np.maximum(d2, 0.0, out=d2)
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        nn = np.argpartition(d2, k - 1, axis=1)[:, :k]
        block_rows = np.repeat(np.arange(lo, hi), k)
        block_cols = nn.ravel()
        block_d2 = d2[np.arange(hi - lo).repeat(k), block_cols]
        rows_idx.append(block_rows)
        cols_idx.append(block_cols)
        vals.append(np.exp(-block_d2 / (2.0 * sigma * sigma)))
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows_idx), np.concatenate(cols_idx))),
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
