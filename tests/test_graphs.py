import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import saco
import saco.data
import saco.graphs as graphs
from saco.errors import DegenerateInputError, InvalidInputError
from saco.graphs import (
    TREE_MAX_DIM,
    _dense_knn,
    _knn_gaussian,
    _median_pairwise_distance,
    _tree_knn,
    build_feature_affinity,
    build_spatial_affinity,
)

from conftest import make_patches


def dense_knn_gaussian(points, k, sigma):
    """Brute-force oracle: top-k gaussian affinities, max-symmetrized."""
    m = len(points)
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    W = np.zeros((m, m))
    for i in range(m):
        order = np.argsort(d2[i], kind="stable")[:k]
        W[i, order] = np.exp(-d2[i, order] / (2.0 * sigma * sigma))
    W = np.maximum(W, W.T)
    np.fill_diagonal(W, 0.0)
    return W


def median_sigma_oracle(points):
    m = len(points)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    dists = [np.linalg.norm(points[i] - points[j]) for i, j in pairs]
    return float(np.median(dists))


class TestFeatureAffinity:
    def test_matches_dense_oracle(self):
        patches = make_patches(5, m=40, dim=3)
        pts = np.array([p.features for p in patches])
        sigma = median_sigma_oracle(pts)
        got = build_feature_affinity(patches, k_nn=7).csr.toarray()
        want = dense_knn_gaussian(pts, 7, sigma)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_sampled_median_bandwidth(self):
        # 60 patches give 1770 pairs, more than the 1000-pair median sample
        patches = make_patches(6, m=60, dim=3)
        pts = np.array([p.features for p in patches])
        got = build_feature_affinity(patches, k_nn=5).csr.toarray()
        want = dense_knn_gaussian(pts, 5, _median_pairwise_distance(pts))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_k_clipped_to_pool(self):
        patches = make_patches(7, m=5)
        g = build_feature_affinity(patches, k_nn=50)
        dense = g.csr.toarray()
        off_diag = dense[~np.eye(5, dtype=bool)]
        assert (off_diag > 0).all()

    def test_identical_points_degenerate(self):
        import dataclasses

        same = [dataclasses.replace(p, features=np.ones(3)) for p in make_patches(8, m=6)]
        with pytest.raises(DegenerateInputError):
            build_feature_affinity(same, k_nn=3)

    def test_single_patch_rejected(self):
        patches = make_patches(9, m=1)
        with pytest.raises(InvalidInputError):
            build_feature_affinity(patches, k_nn=3)


@pytest.mark.parametrize("build", [build_feature_affinity, build_spatial_affinity],
                         ids=["feature", "spatial"])
@pytest.mark.parametrize("k_nn", [2.5, True, "3"])
def test_k_nn_must_be_an_integer(build, k_nn):
    with pytest.raises(InvalidInputError, match=re.escape(f"k_nn must be an integer, got {k_nn!r}")):
        build(make_patches(9, m=20), k_nn=k_nn)


class TestSpatialAffinity:
    def test_matches_dense_oracle_with_fixed_sigma(self):
        patches = make_patches(10, m=30)
        pts = np.array([p.coord for p in patches])
        got = build_spatial_affinity(patches, k_nn=6).csr.toarray()
        want = dense_knn_gaussian(pts, 6, 0.25)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_sigma_override(self):
        patches = make_patches(11, m=20)
        pts = np.array([p.coord for p in patches])
        got = build_spatial_affinity(patches, k_nn=4, sigma=0.1).csr.toarray()
        want = dense_knn_gaussian(pts, 4, 0.1)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, -0.1, float("nan"), float("inf")])
    def test_unusable_sigma_rejected(self, sigma):
        with pytest.raises(DegenerateInputError, match="sigma"):
            build_spatial_affinity(make_patches(11, m=20), k_nn=4, sigma=sigma)


class TestGraphStructure:
    @pytest.fixture
    def graph(self):
        return build_feature_affinity(make_patches(12, m=35, dim=4), k_nn=6)

    def test_symmetric(self, graph):
        d = graph.csr.toarray()
        np.testing.assert_array_equal(d, d.T)

    def test_zero_diagonal(self, graph):
        assert (np.diag(graph.csr.toarray()) == 0).all()

    def test_nonnegative_bounded(self, graph):
        d = graph.csr.toarray()
        assert (d >= 0).all() and (d <= 1.0).all()

    def test_row_view_matches_dense(self, graph):
        d = graph.csr.toarray()
        for i in range(graph.n):
            idx, val = graph.row(i)
            row = np.zeros(graph.n)
            row[idx] = val
            np.testing.assert_array_equal(row, d[i])

    def test_median_sample_is_deterministic(self):
        patches = make_patches(13, m=60, dim=3)
        a = build_feature_affinity(patches, k_nn=5).csr.toarray()
        b = build_feature_affinity(patches, k_nn=5).csr.toarray()
        np.testing.assert_array_equal(a, b)

    def test_a_non_square_matrix_is_rejected(self):
        rect = build_feature_affinity(make_patches(14, m=6, dim=2), k_nn=2).csr[:, :5]
        with pytest.raises(InvalidInputError, match=re.escape("must be square, got (6, 5)")):
            graphs.AffinityGraph(rect)


def assert_matches_oracle(points, k, sigma=0.3):
    """Same sparsity pattern as the oracle, values within 1e-12."""
    got = _knn_gaussian(points, k, sigma).toarray()
    want = dense_knn_gaussian(points, k, sigma)
    np.testing.assert_array_equal(got != 0, want != 0)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def with_duplicates(rng, n, p):
    """n distinct points; the first ten appear twice and point 3 eleven times."""
    base = rng.normal(size=(n, p))
    return np.concatenate([base, base[:10], np.repeat(base[3:4], 9, axis=0)])


class TestTieRule:
    """Both paths keep the k smallest (d^2, j) with j != i, as the oracle does."""

    @pytest.mark.parametrize("k", [6, 8])
    def test_lattice(self, k):
        lattice = np.stack(np.meshgrid(np.arange(12.0), np.arange(12.0)), -1).reshape(-1, 2)
        assert_matches_oracle(lattice / 11.0, k)

    def test_duplicated_2d_points(self):
        # point 3 appears 11 times, more than k + 2 at k = 6, so its copies
        # may crowd self out of a neighbour query
        points = with_duplicates(np.random.default_rng(1), 30, 2)
        assert_matches_oracle(points, 6)

    @pytest.mark.parametrize("p", [TREE_MAX_DIM, TREE_MAX_DIM + 1])
    def test_duplicated_rows_on_both_paths(self, p):
        assert_matches_oracle(with_duplicates(np.random.default_rng(p), 40, p), 6)

    @pytest.mark.parametrize("p", [TREE_MAX_DIM, TREE_MAX_DIM + 1])
    def test_copies_share_one_ranking(self, p, monkeypatch):
        # 20 distinct points, 12 copies each: every row's k-th neighbour ties
        points = np.repeat(np.random.default_rng(p).normal(size=(20, p)), 12, axis=0)
        ranked, calls = graphs._ranked, []

        def counted(*args):
            calls.append(args[1])
            return ranked(*args)

        monkeypatch.setattr(graphs, "_ranked", counted)
        assert_matches_oracle(points, 6)
        assert len(calls) == 20
        assert sorted(np.concatenate(calls).tolist()) == list(range(len(points)))

    @pytest.mark.parametrize("p", [TREE_MAX_DIM, TREE_MAX_DIM + 1])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 80), k=st.integers(1, 12))
    def test_tree_and_dense_paths_agree(self, p, seed, m, k):
        points = np.random.default_rng(seed).normal(size=(m, p))
        k = min(k, m - 1)
        tree_cols, tree_d2 = _tree_knn(points, k)
        dense_cols, dense_d2 = _dense_knn(points, k)
        np.testing.assert_array_equal(np.sort(tree_cols, axis=1), np.sort(dense_cols, axis=1))
        np.testing.assert_allclose(np.sort(tree_d2, axis=1), np.sort(dense_d2, axis=1),
                                   rtol=1e-12, atol=1e-12)


def clustered_64d(rng):
    """Six tight clusters of 40 points in 64 dimensions, plus exact copies of three points."""
    centers = 4.0 * rng.normal(size=(6, 64))
    points = centers.repeat(40, axis=0) + 0.3 * rng.normal(size=(240, 64))
    return np.concatenate([points, points[[0, 41, 82]]])


BLOCK_INSTANCES = {
    "lattice": lambda: np.stack(np.meshgrid(np.arange(12.0), np.arange(12.0)), -1).reshape(-1, 2) / 11,
    "duplicates": lambda: with_duplicates(np.random.default_rng(4), 40, TREE_MAX_DIM + 1),
    "clustered-64d": lambda: clustered_64d(np.random.default_rng(5)),
}


@pytest.mark.parametrize("name", list(BLOCK_INSTANCES))
def test_block_size_leaves_neighbours_unchanged(name, monkeypatch):
    """One row, a few rows or every row in a block: the same neighbours on both paths.

    The tree path's values are direct d^2, so they are bit-identical too.
    The dense path's come from the block's matrix product, which numpy
    hands to gemv for one row and to syrk for a whole X @ X.T, so they
    may move within the expansion's rounding bound.
    """
    points = BLOCK_INSTANCES[name]()
    m, p = points.shape
    k = 6
    sq = (points ** 2).sum(1)
    err = 6.0 * (p + 2) * np.finfo(float).eps * (sq + sq.max())
    per_row = {_tree_knn: (k + 2) * p, _dense_knn: m}  # doubles per block row
    results = {}
    for knn in (_tree_knn, _dense_knn):
        for rows in (1, 3, m):
            monkeypatch.setattr(saco.data, "BLOCK_DOUBLES", rows * per_row[knn])
            results[knn, rows] = knn(points, k)
    for knn in (_tree_knn, _dense_knn):
        cols, d2 = results[knn, m]
        assert cols.shape == d2.shape == (m, k)
        np.testing.assert_array_equal(np.sort(cols, axis=1), np.sort(results[_tree_knn, m][0], axis=1))
        direct = ((points[cols] - points[:, None]) ** 2).sum(-1)
        for rows in (1, 3, m):
            got_cols, got_d2 = results[knn, rows]
            assert got_cols.tobytes() == cols.tobytes()
            if knn is _tree_knn:
                assert got_d2.tobytes() == d2.tobytes()
            assert np.all(np.abs(got_d2 - direct) <= err[:, None])


def spy_dense_blocks(monkeypatch):
    """The row count of each dense block ``_dense_knn`` ranks, in order."""
    blocks = []
    dense_block = graphs._dense_block

    def spy(X, sq, err, lo, hi, k, *buffers):
        blocks.append(hi - lo)
        return dense_block(X, sq, err, lo, hi, k, *buffers)

    monkeypatch.setattr(graphs, "_dense_block", spy)
    return blocks


def test_dense_blocks_are_counted_in_doubles(monkeypatch):
    """A dense block holds BLOCK_DOUBLES // m rows: 36 at m = 7200 for 2^18 doubles."""
    assert [s.stop - s.start for s in saco.data.blocks(7200, 7200)] == [36] * 200
    blocks = spy_dense_blocks(monkeypatch)
    monkeypatch.setattr(saco.data, "BLOCK_DOUBLES", 10 * 300 + 299)
    _dense_knn(np.random.default_rng(6).normal(size=(300, 16)), 5)
    assert blocks == [10] * 30


def test_dense_blocks_leave_no_narrow_tail(monkeypatch):
    """301 rows at 10 a block are 31 blocks of 9 or 10 rows, not 30 of 10 and
    one of 1, which numpy would hand to gemv instead of GEMM."""
    blocks = spy_dense_blocks(monkeypatch)
    monkeypatch.setattr(saco.data, "BLOCK_DOUBLES", 10 * 301)
    _dense_knn(np.random.default_rng(6).normal(size=(301, 16)), 5)
    assert sum(blocks) == 301 and len(blocks) == 31 and min(blocks) >= 9


def test_import_leaves_scipy_spatial_unloaded():
    """The k-d tree is imported on first use, keeping it out of ``import saco``."""
    src = str(Path(saco.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import saco, saco.align, saco.classify; print('scipy.spatial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_zero_width_features_are_named_by_their_shape():
    # five patches of no features once reached the bandwidth check, which
    # reported "kernel bandwidth sigma=0.0 is unusable"
    patches = [saco.data.Patch(i, np.zeros(0), (0.5, 0.5), 0, 0) for i in range(5)]
    with pytest.raises(InvalidInputError, match=re.escape("got features (5, 0)")):
        build_feature_affinity(patches, k_nn=2)
