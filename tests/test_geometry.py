import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotinv.geometry import (DegenerateInputError, PointCloud, Rotation,
                             add_gaussian_noise, apply_rotation,
                             center_and_scale, drop_points, knn_graph,
                             nearest_k, pairwise_sq_dists,
                             quaternion_to_matrix,
                             rotation_z, sample_rotation_so3,
                             sample_rotation_z)
from rotinv.network import FusionModel, ModelConfig


def random_cloud(seed, n=24):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.standard_normal((n, 3)))


class TestPointCloud:
    def test_requires_n3(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 2)))

    def test_requires_finite(self):
        pts = np.zeros((2, 3))
        pts[0, 0] = np.inf
        with pytest.raises(ValueError):
            PointCloud(pts)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((0, 3)))


class TestCenterAndScale:
    def test_single_point_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            center_and_scale(PointCloud(np.array([[5.0, 5.0, 5.0]])))

    def test_already_normalized_fixed_point(self):
        cloud = PointCloud(np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
        out = center_and_scale(cloud)
        np.testing.assert_allclose(out.points, cloud.points, atol=1e-15)

    def test_hand_evaluated_example(self):
        # centroid (1,0,0); residuals (+-1,0,0); max norm already 1
        cloud = PointCloud(np.array([[2.0, 0, 0], [0.0, 0, 0]]))
        out = center_and_scale(cloud)
        np.testing.assert_allclose(out.points,
                                   [[1.0, 0, 0], [-1.0, 0, 0]], atol=1e-15)

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_postconditions(self, seed):
        out = center_and_scale(random_cloud(seed))
        assert np.linalg.norm(out.points.mean(axis=0)) <= 1e-9
        assert abs(np.linalg.norm(out.points, axis=1).max() - 1.0) <= 1e-9

    def test_labels_preserved(self):
        cloud = PointCloud(np.array([[2.0, 0, 0], [0.0, 0, 0]]), label=3,
                           point_labels=np.array([1, 2]))
        out = center_and_scale(cloud)
        assert out.label == 3
        assert list(out.point_labels) == [1, 2]


class TestRotationType:
    def test_validates_orthonormality(self):
        with pytest.raises(ValueError):
            Rotation(np.eye(3) * 2.0)

    def test_rejects_reflection(self):
        m = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Rotation(m)

    def test_inverse_is_transpose(self):
        r = sample_rotation_so3(3)
        np.testing.assert_allclose(r.inverse().matrix @ r.matrix, np.eye(3),
                                   atol=1e-14)


def subgroup_algorithm_rotation(rng):
    """Independent uniform-rotation oracle: uniform planar rotation nested
    through a Householder reflection (Arvo's construction)."""
    x1, x2, x3 = rng.uniform(size=3)
    theta = 2 * np.pi * x1
    phi = 2 * np.pi * x2
    c, s = np.cos(theta), np.sin(theta)
    rz = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    v = np.array([np.cos(phi) * np.sqrt(x3),
                  np.sin(phi) * np.sqrt(x3),
                  np.sqrt(1.0 - x3)])
    return -(np.eye(3) - 2.0 * np.outer(v, v)) @ rz


class TestHaarSampling:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_type_invariants(self, seed):
        r = sample_rotation_so3(seed).matrix
        assert np.abs(r @ r.T - np.eye(3)).max() <= 1e-12
        assert abs(np.linalg.det(r) - 1.0) <= 1e-12

    def test_deterministic(self):
        a = sample_rotation_so3(42).matrix
        b = sample_rotation_so3(42).matrix
        assert np.array_equal(a, b)

    def test_trace_moments_match_oracle(self):
        # Under the uniform measure the rotation-angle density is
        # (1 - cos w)/pi, giving E[tr] = 0 and E[tr^2] = 1.  The quaternion
        # sampler must agree with both the closed form and an independent
        # subgroup-algorithm oracle within Monte-Carlo error.
        n = 10_000
        rng = np.random.default_rng(7)
        traces = np.array([np.trace(sample_rotation_so3(rng).matrix)
                           for _ in range(n)])
        oracle_rng = np.random.default_rng(8)
        oracle = np.array([np.trace(subgroup_algorithm_rotation(oracle_rng))
                           for _ in range(n)])
        # Var[tr] = 1, so the standard error of each mean is 1/sqrt(n)
        se = 1.0 / np.sqrt(n)
        assert abs(traces.mean() - 0.0) <= 3 * se
        assert abs(oracle.mean() - 0.0) <= 3 * se
        assert abs(traces.mean() - oracle.mean()) <= 3 * np.sqrt(2) * se
        assert abs((traces**2).mean() - 1.0) <= 5 * se
        assert abs((oracle**2).mean() - 1.0) <= 5 * se


class TestZRotation:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(rotation_z(0.0).matrix, np.eye(3), atol=0)

    def test_quarter_turn(self):
        # z-rotation by pi/2 sends e1 to e2
        out = rotation_z(np.pi / 2).matrix @ np.array([1.0, 0, 0])
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-15)

    @given(st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_vertical_axis_fixed(self, seed):
        m = sample_rotation_z(seed).matrix
        np.testing.assert_allclose(m[2], [0, 0, 1], atol=0)
        np.testing.assert_allclose(m[:, 2], [0, 0, 1], atol=0)

    def test_deterministic(self):
        assert np.array_equal(sample_rotation_z(5).matrix,
                              sample_rotation_z(5).matrix)


class TestApplyRotation:
    def test_identity(self):
        cloud = random_cloud(0)
        out = apply_rotation(cloud, Rotation.identity())
        np.testing.assert_array_equal(out.points, cloud.points)

    def test_inverse_roundtrip(self):
        cloud = random_cloud(1)
        r = sample_rotation_so3(2)
        back = apply_rotation(apply_rotation(cloud, r), r.inverse())
        np.testing.assert_allclose(back.points, cloud.points, atol=1e-12)

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_isometry(self, seed):
        cloud = random_cloud(seed)
        r = sample_rotation_so3(seed + 1)
        before = pairwise_sq_dists(cloud.points)
        after = pairwise_sq_dists(apply_rotation(cloud, r).points)
        assert np.abs(np.sqrt(after) - np.sqrt(before)).max() <= 1e-9

    def test_labels_unchanged(self):
        cloud = PointCloud(np.eye(3), label=2)
        assert apply_rotation(cloud, sample_rotation_so3(0)).label == 2


def brute_force_knn(points, k):
    """Per-row oracle with (distance, index) sorting."""
    n = len(points)
    rows = []
    for i in range(n):
        dists = []
        for j in range(n):
            if j == i:
                continue
            diff = points[i] - points[j]
            dists.append((float(np.dot(diff, diff)), j))
        dists.sort()
        rows.append([j for _, j in dists[:k]])
    return np.array(rows)


def stable_knn(d2, k):
    """The selection rule's oracle: the first k of a stable sort per row."""
    return np.argsort(d2, axis=-1, kind="stable")[..., :k]


def gram_sq_dists(features):
    """The squared distances of a (B, N, C) batch in the Gram form the
    feature graph uses, self excluded."""
    r2 = (features * features).sum(axis=-1)
    d2 = (r2[:, :, None] + r2[:, None, :]
          - 2.0 * (features @ np.swapaxes(features, -1, -2)))
    n = features.shape[1]
    d2[:, np.arange(n), np.arange(n)] = np.inf
    return d2


def feature_graph(features, k):
    """`FusionModel._feature_graph` of a (B, N, C) batch at this k."""
    return FusionModel(ModelConfig(k=k))._feature_graph(features)


class TestKnnGraph:
    def test_collinear_hand_example(self):
        # points at x = 0,1,2,3; ties break toward the lower index
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
        graph = knn_graph(pts, 1)
        assert graph.ravel().tolist() == [1, 0, 1, 2]

    def test_k_equals_n_minus_one(self):
        pts = np.random.default_rng(0).standard_normal((7, 3))
        graph = knn_graph(pts, 6)
        for i, row in enumerate(graph):
            assert sorted(row) == sorted(set(range(7)) - {i})
        assert np.array_equal(graph, brute_force_knn(pts, 6))
        assert np.array_equal(feature_graph(pts[None], 6),
                              stable_knn(gram_sq_dists(pts[None]), 6))

    def test_rotation_leaves_graph_unchanged(self):
        pts = np.random.default_rng(1).standard_normal((30, 3))
        r = sample_rotation_so3(2).matrix
        a = knn_graph(pts, 5)
        b = knn_graph(pts @ r.T, 5)
        assert np.array_equal(a, b)

    def test_k_out_of_range(self):
        pts = np.zeros((3, 3))
        with pytest.raises(ValueError):
            knn_graph(pts, 3)
        with pytest.raises(ValueError):
            knn_graph(pts, 0)

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_matches_bruteforce_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        k = int(rng.integers(1, n))
        pts = rng.standard_normal((n, 3))
        assert np.array_equal(knn_graph(pts, k), brute_force_knn(pts, k))
        feats = rng.standard_normal((2, n, 8))
        assert np.array_equal(feature_graph(feats, k),
                              stable_knn(gram_sq_dists(feats), k))

    def test_matches_bruteforce_with_ties(self):
        # integer lattice: exact repeated distances exercise the tie-break,
        # and the Gram form of integer features is exact too
        rng = np.random.default_rng(3)
        pts = rng.integers(0, 3, size=(40, 3)).astype(float)
        feats = rng.integers(0, 3, size=(3, 40, 5)).astype(float)
        for k in (1, 3, 7, 39):
            assert np.array_equal(knn_graph(pts, k),
                                  brute_force_knn(pts, k))
            assert np.array_equal(feature_graph(feats, k),
                                  np.stack([brute_force_knn(f, k) for f in feats]))

    def test_tie_at_the_kth_distance(self):
        # the six axis neighbours of point 0 all lie at distance 1, so for
        # k = 2 and 4 the k-th distance ties with neighbours that are not
        # kept; the lower indices win, listed after the nearer point 5
        axes = np.concatenate([np.eye(3), -np.eye(3)])[::-1]
        pts = np.concatenate([[[0.0, 0, 0]], axes[:4], [[0.5, 0, 0]], axes[4:]])
        for k in (2, 4):
            graph = knn_graph(pts, k)
            assert graph[0].tolist() == [5, 1, 2, 3][:k]
            assert np.array_equal(graph, brute_force_knn(pts, k))
            assert np.array_equal(feature_graph(pts[None], k)[0], graph)

    def test_duplicated_points(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((6, 3))
        pts = base[rng.integers(0, 6, size=20)]
        for k in (1, 3, 5, 19):
            assert np.array_equal(knn_graph(pts, k), brute_force_knn(pts, k))
            assert np.array_equal(feature_graph(pts[None], k),
                                  stable_knn(gram_sq_dists(pts[None]), k))

    def test_non_finite_rows(self):
        # infinite coordinates make inf and NaN distances, and in the Gram
        # form some rows' k-th distance is NaN, which sorts last
        pts = np.random.default_rng(5).standard_normal((12, 3))
        pts[3, 0] = np.inf
        pts[7] = [np.inf, -np.inf, 0.0]
        with np.errstate(invalid="ignore"):
            d2 = pairwise_sq_dists(pts)
            np.fill_diagonal(d2, np.inf)
            gram = gram_sq_dists(pts[None])
            for k in (1, 4, 11):
                assert np.array_equal(knn_graph(pts, k), stable_knn(d2, k))
                assert np.array_equal(feature_graph(pts[None], k),
                                      stable_knn(gram, k))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_selection_matches_stable_sort(self, seed):
        # rows drawn from a few values, so most rows tie at the k-th value,
        # with signed zeros, infinities and NaNs among them
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 30))
        k = int(rng.integers(1, m + 1))
        values = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, 2.0])
        d2 = rng.choice(values[:int(rng.integers(2, 8))], size=(3, 4, m))
        assert np.array_equal(nearest_k(d2, k), stable_knn(d2, k))

    def test_feature_space_query(self):
        # any query width works; the result is a plain (N, K) int64 array
        pts = np.random.default_rng(0).standard_normal((10, 8))
        graph = knn_graph(pts, 2)
        assert graph.shape == (10, 2)
        assert graph.dtype == np.int64
        assert np.array_equal(graph, brute_force_knn(pts, 2))


class TestPerturbations:
    def test_zero_noise_is_identity(self):
        cloud = random_cloud(0)
        out = add_gaussian_noise(cloud, 0.0, seed=1)
        np.testing.assert_array_equal(out.points, cloud.points)

    def test_noise_std(self):
        cloud = PointCloud(np.zeros((100_000, 3)) + 1.0)
        out = add_gaussian_noise(cloud, 0.01, seed=2)
        std = (out.points - cloud.points).std()
        assert 0.0095 <= std <= 0.0105

    def test_noise_deterministic(self):
        cloud = random_cloud(1)
        a = add_gaussian_noise(cloud, 0.05, seed=3).points
        b = add_gaussian_noise(cloud, 0.05, seed=3).points
        assert np.array_equal(a, b)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            add_gaussian_noise(random_cloud(0), -0.1, seed=0)

    def test_drop_zero_is_identity(self):
        cloud = random_cloud(2)
        out = drop_points(cloud, 0, seed=0)
        np.testing.assert_array_equal(out.points, cloud.points)

    def test_drop_to_single_point(self):
        cloud = random_cloud(3, n=10)
        out = drop_points(cloud, 9, seed=4)
        assert out.n == 1
        assert any(np.array_equal(out.points[0], p) for p in cloud.points)

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_drop_subset_property(self, seed):
        cloud = random_cloud(seed, n=15)
        rng = np.random.default_rng(seed)
        n_drop = int(rng.integers(0, 15))
        out = drop_points(cloud, n_drop, seed=seed)
        assert out.n == 15 - n_drop
        original = {tuple(p) for p in cloud.points}
        assert all(tuple(p) in original for p in out.points)

    def test_drop_all_rejected(self):
        with pytest.raises(ValueError):
            drop_points(random_cloud(0, n=5), 5, seed=0)

    def test_drop_keeps_point_labels_aligned(self):
        cloud = PointCloud(np.arange(15, dtype=float).reshape(5, 3),
                           point_labels=np.arange(5))
        out = drop_points(cloud, 2, seed=9)
        for p, lbl in zip(out.points, out.point_labels):
            assert p[0] == lbl * 3


def test_quaternion_identity():
    np.testing.assert_allclose(quaternion_to_matrix(np.array([1.0, 0, 0, 0])),
                               np.eye(3), atol=0)
