"""The three synthetic dataset families."""

import numpy as np
import pytest

import saco.align as al
import saco.synth as sy
from saco.errors import InvalidInputError


@pytest.mark.parametrize("m, message", [
    pytest.param(m, message, id=str(m)) for m, message in [
        (0, "m must be >= 1, got 0"), (-3, "m must be >= 1, got -3"),
        # m = 2.5 once failed inside numpy's integers
        (2.5, "m must be an integer, got 2.5"), (True, "m must be an integer, got True")]
])
def test_clustered_instance_needs_a_candidate(m, message):
    with pytest.raises(InvalidInputError, match=message):
        sy.clustered_instance(0, m)


class TestBlobs2d:
    def test_pools_are_labeled_point_clouds(self):
        pools = sy.make_blobs2d(3, 50, seed=1)
        assert [p.image_id for p in pools] == [0, 1, 2]
        assert [p.label for p in pools] == [0, 1, 2]
        for p in pools:
            assert p.features.shape == (50, 2)
            # points double as their own spatial coordinates
            np.testing.assert_array_equal(p.features, p.coords)
            assert p.coords.min() >= 0.0 and p.coords.max() <= 1.0

    def test_deterministic(self):
        a = sy.make_blobs2d(2, 30, seed=7)
        b = sy.make_blobs2d(2, 30, seed=7)
        np.testing.assert_array_equal(a[0].features, b[0].features)

    def test_classes_are_distinguishable(self):
        pools = sy.make_blobs2d(3, 80, spread=0.03, seed=2)
        means = np.stack([p.features.mean(axis=0) for p in pools])
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(means[i] - means[j]) > 0.1

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            sy.make_blobs2d(1, 10)
        with pytest.raises(InvalidInputError):
            sy.make_blobs2d(3, 0)


@pytest.fixture(scope="module")
def dataset():
    return sy.make_spatial_texture(
        n_classes=3, train_per_class=4, test_per_class=2,
        pool_size=40, feature_dim=16, noise=0.05, seed=3,
    )


class TestSpatialTexture:
    def test_split_sizes_and_ids(self, dataset):
        train, test, meta = dataset
        assert len(train) == 12 and len(test) == 6
        ids = [img.image_id for img in train + test]
        assert ids == list(range(18))
        assert sorted({img.label for img in train}) == [0, 1, 2]
        assert meta["prototypes"].shape == (4, 16)
        # prototypes are orthonormal rows
        np.testing.assert_allclose(
            meta["prototypes"] @ meta["prototypes"].T, np.eye(4), atol=1e-12
        )

    def test_pool_geometry(self, dataset):
        train, _, _ = dataset
        for img in train:
            assert img.features.shape == (40, 16)
            assert img.coords.min() >= 0.0 and img.coords.max() <= 1.0
            # exactly a quarter of the pool in each quadrant zone
            zone = (img.coords[:, 0] >= 0.5).astype(int) + 2 * (
                img.coords[:, 1] >= 0.5
            ).astype(int)
            np.testing.assert_array_equal(np.bincount(zone, minlength=4), [10, 10, 10, 10])

    def test_marginal_texture_histogram_is_class_blind(self, dataset):
        # every class uses every texture equally often; only the
        # texture-location pairing differs
        train, test, meta = dataset
        P = meta["prototypes"]
        for img in train + test:
            tex = np.argmax(img.features @ P.T, axis=1)
            np.testing.assert_array_equal(np.bincount(tex, minlength=4), [10, 10, 10, 10])

    def test_zone_texture_pairing_carries_the_class(self, dataset):
        train, _, meta = dataset
        P = meta["prototypes"]
        for img in train:
            tex = np.argmax(img.features @ P.T, axis=1)
            zone = (img.coords[:, 0] >= 0.5).astype(int) + 2 * (
                img.coords[:, 1] >= 0.5
            ).astype(int)
            for z in range(4):
                want = (z + img.label) % 4
                assert set(tex[zone == z]) == {want}

    def test_deterministic(self):
        a = sy.make_spatial_texture(2, 2, 1, pool_size=8, feature_dim=8, seed=9)
        b = sy.make_spatial_texture(2, 2, 1, pool_size=8, feature_dim=8, seed=9)
        np.testing.assert_array_equal(a[0][0].features, b[0][0].features)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            sy.make_spatial_texture(pool_size=30)  # not divisible by 4
        with pytest.raises(InvalidInputError):
            sy.make_spatial_texture(feature_dim=2)

    @pytest.mark.parametrize("name, value, low", [
        ("pool_size", 0, 1), ("pool_size", -4, 1), ("train_per_class", 0, 1),
        ("test_per_class", -1, 1), ("n_classes", 0, 2), ("n_classes", 1, 2),
    ])
    def test_sizes_are_counts(self, name, value, low):
        with pytest.raises(InvalidInputError, match=f"{name} must be >= {low}, got {value}"):
            sy.make_spatial_texture(**{"pool_size": 8, "feature_dim": 8, name: value})


class TestViewpoints:
    def test_counts_and_ranges(self):
        images, labels, rotations = sy.make_viewpoints(per_view=5, size=32, seed=0)
        assert len(images) == 10
        np.testing.assert_array_equal(labels, [0] * 5 + [1] * 5)
        assert rotations.shape == (10,)
        assert np.all((rotations >= 0.0) & (rotations < 360.0))
        for img in images:
            assert img.pixels.shape == (32, 32)
            assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0
        assert [img.image_id for img in images] == list(range(10))

    def test_deterministic(self):
        a, _, ra = sy.make_viewpoints(per_view=3, size=24, seed=5)
        b, _, rb = sy.make_viewpoints(per_view=3, size=24, seed=5)
        np.testing.assert_array_equal(ra, rb)
        np.testing.assert_array_equal(a[0].pixels, b[0].pixels)

    def test_planted_rotations_match_image_rotation(self):
        # rotating one instance by the planted-angle difference reproduces
        # the other instance of the same view, up to interpolation blur
        images, labels, rotations = sy.make_viewpoints(per_view=4, size=48, seed=6)
        for view in (0, 1):
            ids = np.flatnonzero(labels == view)[:2]
            i, j = int(ids[0]), int(ids[1])
            remade = al.rotate_image(images[j].pixels, rotations[i] - rotations[j])
            assert np.abs(remade - images[i].pixels).mean() < 0.02

    def test_views_differ(self):
        images, labels, _ = sy.make_viewpoints(per_view=2, size=32, seed=7)
        assert np.abs(images[0].pixels - images[2].pixels).mean() > 0.05

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            sy.make_viewpoints(per_view=0)
        with pytest.raises(InvalidInputError):
            sy.make_viewpoints(size=4)
