import numpy as np
import pytest

from rotinv.dataset import (SHAPE_FAMILIES, DatasetSpec, SyntheticDataset,
                            generate_dataset, sample_shape)
from rotinv.geometry import PointCloud


def handcrafted_descriptor(cloud: PointCloud) -> np.ndarray:
    """Rotation-invariant summary: radial-distance quantiles, covariance
    eigenvalues, and nearest-neighbor spacing statistics."""
    pts = cloud.points
    radii = np.linalg.norm(pts, axis=1)
    quantiles = np.quantile(radii, np.linspace(0.05, 0.95, 10))
    cov = np.cov(pts.T)
    eigs = np.sort(np.linalg.eigvalsh(cov))
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    nn = np.sqrt(d2.min(axis=1))
    return np.concatenate([quantiles, eigs, [radii.std(), nn.mean(), nn.std()]])


def nearest_neighbor_accuracy(dataset: SyntheticDataset) -> float:
    """1-NN test accuracy on handcrafted descriptors; the separability bar
    a learned model has to clear."""
    train = np.stack([handcrafted_descriptor(c) for c in dataset.train])
    test = np.stack([handcrafted_descriptor(c) for c in dataset.test])
    scale = train.std(axis=0) + 1e-9
    train = train / scale
    test = test / scale
    d2 = ((test[:, None, :] - train[None, :, :]) ** 2).sum(-1)
    pred = dataset.train_labels[np.argmin(d2, axis=1)]
    return float((pred == dataset.test_labels).mean())


class TestSpecValidation:
    def test_minimum_points(self):
        with pytest.raises(ValueError):
            DatasetSpec(n_points=16)

    def test_split_sizes(self):
        with pytest.raises(ValueError):
            DatasetSpec(train_per_class=0)

    def test_jitter_range(self):
        with pytest.raises(ValueError):
            DatasetSpec(aspect_jitter=1.5)


class TestShapeSampling:
    def test_sphere_points_unit_radius_before_jitter(self):
        from rotinv.dataset import _sample_sphere
        pts = _sample_sphere(512, np.random.default_rng(0))
        radii = np.linalg.norm(pts, axis=1)
        assert np.abs(radii - 1.0).max() <= 1e-12

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            sample_shape("cone", 64, np.random.default_rng(0))

    @pytest.mark.parametrize("family", SHAPE_FAMILIES)
    def test_every_family_normalized(self, family):
        rng = np.random.default_rng(1)
        cloud = sample_shape(family, 48, rng)
        assert cloud.label == SHAPE_FAMILIES.index(family)
        assert np.linalg.norm(cloud.points.mean(axis=0)) <= 1e-9
        assert abs(np.linalg.norm(cloud.points, axis=1).max() - 1.0) <= 1e-9


class TestGeneration:
    def test_deterministic_from_seed(self):
        spec = DatasetSpec(n_points=32, train_per_class=2, test_per_class=1,
                           seed=5)
        a = generate_dataset(spec)
        b = generate_dataset(spec)
        assert all(np.array_equal(x.points, y.points)
                   for x, y in zip(a.train + a.test, b.train + b.test))

    def test_seed_changes_data(self):
        base = DatasetSpec(n_points=32, train_per_class=2, test_per_class=1)
        a = generate_dataset(DatasetSpec(**{**base.__dict__, "seed": 0}))
        b = generate_dataset(DatasetSpec(**{**base.__dict__, "seed": 1}))
        assert not np.array_equal(a.train[0].points, b.train[0].points)

    def test_class_balance(self):
        ds = generate_dataset(DatasetSpec(n_points=32, train_per_class=3,
                                          test_per_class=2, seed=0))
        assert np.bincount(ds.train_labels).tolist() == [3, 3, 3, 3]
        assert np.bincount(ds.test_labels).tolist() == [2, 2, 2, 2]

    def test_train_test_disjoint(self):
        ds = generate_dataset(DatasetSpec(n_points=32, train_per_class=4,
                                          test_per_class=4, seed=0))
        train_bytes = {c.points.tobytes() for c in ds.train}
        assert all(c.points.tobytes() not in train_bytes for c in ds.test)


class TestCalibration:
    def test_descriptor_rotation_invariant(self):
        from rotinv.geometry import apply_rotation, sample_rotation_so3
        rng = np.random.default_rng(2)
        cloud = sample_shape("torus", 64, rng)
        rot = sample_rotation_so3(3)
        a = handcrafted_descriptor(cloud)
        b = handcrafted_descriptor(apply_rotation(cloud, rot))
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_separability_bar(self):
        # the dataset must be classifiable by plain geometry before any
        # learned model is asked to do better
        ds = generate_dataset(DatasetSpec(n_points=64, train_per_class=25,
                                          test_per_class=10, seed=0))
        assert nearest_neighbor_accuracy(ds) > 0.8

    def test_separability_bar_on_acceptance_profile(self):
        from rotinv.checks import ACCEPTANCE_DATA
        assert nearest_neighbor_accuracy(generate_dataset(ACCEPTANCE_DATA)) > 0.8
