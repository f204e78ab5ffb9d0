import numpy as np
import pytest

from saco.errors import DegenerateInputError, InvalidInputError
from saco.graphs import (
    _median_pairwise_distance,
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
        got = build_feature_affinity(patches, k_nn=7).to_dense()
        want = dense_knn_gaussian(pts, 7, sigma)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_sampled_median_bandwidth(self):
        # 60 patches give 1770 pairs, more than the 1000-pair median sample
        patches = make_patches(6, m=60, dim=3)
        pts = np.array([p.features for p in patches])
        got = build_feature_affinity(patches, k_nn=5).to_dense()
        want = dense_knn_gaussian(pts, 5, _median_pairwise_distance(pts))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_k_clipped_to_pool(self):
        patches = make_patches(7, m=5)
        g = build_feature_affinity(patches, k_nn=50)
        dense = g.to_dense()
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


class TestSpatialAffinity:
    def test_matches_dense_oracle_with_fixed_sigma(self):
        patches = make_patches(10, m=30)
        pts = np.array([p.coord for p in patches])
        got = build_spatial_affinity(patches, k_nn=6).to_dense()
        want = dense_knn_gaussian(pts, 6, 0.25)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_sigma_override(self):
        patches = make_patches(11, m=20)
        pts = np.array([p.coord for p in patches])
        got = build_spatial_affinity(patches, k_nn=4, sigma=0.1).to_dense()
        want = dense_knn_gaussian(pts, 4, 0.1)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, -0.1, float("nan")])
    def test_unusable_sigma_rejected(self, sigma):
        with pytest.raises(DegenerateInputError, match="sigma"):
            build_spatial_affinity(make_patches(11, m=20), k_nn=4, sigma=sigma)


class TestGraphStructure:
    @pytest.fixture
    def graph(self):
        return build_feature_affinity(make_patches(12, m=35, dim=4), k_nn=6)

    def test_symmetric(self, graph):
        d = graph.to_dense()
        np.testing.assert_array_equal(d, d.T)

    def test_zero_diagonal(self, graph):
        assert (np.diag(graph.to_dense()) == 0).all()

    def test_nonnegative_bounded(self, graph):
        d = graph.to_dense()
        assert (d >= 0).all() and (d <= 1.0).all()

    def test_row_view_matches_dense(self, graph):
        d = graph.to_dense()
        for i in range(graph.n):
            idx, val = graph.row(i)
            row = np.zeros(graph.n)
            row[idx] = val
            np.testing.assert_array_equal(row, d[i])

    def test_rows_dense_matches(self, graph):
        ids = [3, 9, 1]
        block = graph.rows_dense(ids)
        np.testing.assert_array_equal(block, graph.to_dense()[ids])

    def test_check_valid_passes(self, graph):
        graph.check_valid()

    def test_median_sample_is_deterministic(self):
        patches = make_patches(13, m=60, dim=3)
        a = build_feature_affinity(patches, k_nn=5).to_dense()
        b = build_feature_affinity(patches, k_nn=5).to_dense()
        np.testing.assert_array_equal(a, b)
