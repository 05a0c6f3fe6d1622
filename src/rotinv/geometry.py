"""Point-cloud containers, SO(3) sampling, neighbor graphs, perturbations.

Everything here is non-learnable and a pure function of its inputs; every
sampling operation is deterministic given its seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


class DegenerateInputError(ValueError):
    """Input geometry collapses the requested operation (e.g. zero scale)."""


def as_rng(seed) -> np.random.Generator:
    """Coerce an int / SeedSequence / Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass
class PointCloud:
    """N points in 3D with an optional class label and per-point labels."""

    points: np.ndarray
    label: Optional[int] = None
    point_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {self.points.shape}")
        if self.points.shape[0] < 1:
            raise ValueError("a point cloud needs at least one point")
        if not np.isfinite(self.points).all():
            raise ValueError("point coordinates must be finite")
        if self.point_labels is not None:
            self.point_labels = np.asarray(self.point_labels, dtype=np.int64)
            if self.point_labels.shape != (self.points.shape[0],):
                raise ValueError("point_labels must be one integer per point")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def with_points(self, points: np.ndarray,
                    point_labels: Optional[np.ndarray] = None) -> "PointCloud":
        labels = self.point_labels if point_labels is None else point_labels
        return PointCloud(points, label=self.label, point_labels=labels)


ROTATION_TOL = 1e-12


@dataclass(frozen=True)
class Rotation:
    """An element of SO(3), validated on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", m)
        if m.shape != (3, 3):
            raise ValueError("rotation matrix must be 3x3")
        if np.abs(m @ m.T - np.eye(3)).max() > ROTATION_TOL:
            raise ValueError("matrix is not orthonormal")
        if abs(np.linalg.det(m) - 1.0) > ROTATION_TOL:
            raise ValueError("matrix determinant must be +1")

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.eye(3))

    def inverse(self) -> "Rotation":
        return Rotation(self.matrix.T)

    def compose(self, other: "Rotation") -> "Rotation":
        return Rotation(self.matrix @ other.matrix)


def quaternion_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def sample_rotation_so3(seed) -> Rotation:
    """Haar-uniform rotation: normalized 4D Gaussian quaternion."""
    rng = as_rng(seed)
    while True:
        q = rng.normal(size=4)
        norm = np.linalg.norm(q)
        if norm > 1e-8:
            break
    return Rotation(quaternion_to_matrix(q / norm))


def rotation_z(angle: float) -> Rotation:
    """Rotation about the third coordinate axis by `angle` radians."""
    c, s = np.cos(angle), np.sin(angle)
    return Rotation(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]))


def sample_rotation_z(seed) -> Rotation:
    """Rotation about the vertical (third) axis, angle uniform in [0, 2pi)."""
    rng = as_rng(seed)
    return rotation_z(rng.uniform(0.0, 2.0 * np.pi))


def apply_rotation(cloud: PointCloud, rotation: Rotation) -> PointCloud:
    """Rotate every point; labels are untouched."""
    return cloud.with_points(cloud.points @ rotation.matrix.T)


def center_and_scale(cloud: PointCloud) -> PointCloud:
    """Move the centroid to the origin and scale the furthest point to 1."""
    centered = cloud.points - cloud.points.mean(axis=0)
    scale = np.linalg.norm(centered, axis=1).max()
    if scale < 1e-12:
        raise DegenerateInputError("all points coincide; cannot normalize scale")
    return cloud.with_points(centered / scale)


def pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distance matrix, (N, N)."""
    diff = x[:, None, :] - x[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def knn_graph(query: np.ndarray, k: int) -> np.ndarray:
    """Exact K nearest neighbors under Euclidean distance, excluding self:
    the (N, K) int64 index array of one cloud.

    Ties are broken toward the lower index (stable sort on distances).
    """
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 2 or query.shape[1] < 1:
        raise ValueError("query must be (N, D) with D >= 1")
    n = query.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    d2 = pairwise_sq_dists(query)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")
    return order[:, :k]


def add_gaussian_noise(cloud: PointCloud, sigma: float, seed) -> PointCloud:
    """Add i.i.d. zero-mean Gaussian noise per coordinate."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    rng = as_rng(seed)
    noise = sigma * rng.standard_normal(cloud.points.shape)
    return cloud.with_points(cloud.points + noise)


def drop_points(cloud: PointCloud, n_drop: int, seed) -> PointCloud:
    """Remove `n_drop` uniformly chosen points, preserving original order."""
    if not 0 <= n_drop < cloud.n:
        raise ValueError(f"need 0 <= n_drop < {cloud.n}, got {n_drop}")
    if n_drop == 0:
        return cloud.with_points(cloud.points.copy())
    rng = as_rng(seed)
    dropped = rng.choice(cloud.n, size=n_drop, replace=False)
    keep = np.setdiff1d(np.arange(cloud.n), dropped)
    labels = cloud.point_labels[keep] if cloud.point_labels is not None else None
    return PointCloud(cloud.points[keep], label=cloud.label, point_labels=labels)
