"""Synthetic four-class shape clouds: sphere, box, cylinder, torus.

Deterministic from a seed, class-balanced, with disjoint train/test seed
streams.  Every cloud is centered and scaled to the unit sphere; shapes are
generated in a canonical orientation (cylinder axis and torus normal along
the third axis) so the rotation protocols are the only pose variation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud, center_and_scale

SHAPE_FAMILIES = ("sphere", "box", "cylinder", "torus")


@dataclass(frozen=True)
class DatasetSpec:
    n_points: int = 128
    train_per_class: int = 200
    test_per_class: int = 50
    aspect_jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_points < 32:
            raise ValueError("need at least 32 points per cloud")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise ValueError("split sizes must be positive")
        if not 0 <= self.aspect_jitter < 1:
            raise ValueError("aspect_jitter must be in [0, 1)")


@dataclass
class SyntheticDataset:
    spec: DatasetSpec
    train: list[PointCloud]
    test: list[PointCloud]

    @property
    def train_labels(self) -> np.ndarray:
        return np.array([c.label for c in self.train])

    @property
    def test_labels(self) -> np.ndarray:
        return np.array([c.label for c in self.test])


def _sample_sphere(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _sample_box(n: int, rng: np.random.Generator) -> np.ndarray:
    half = np.array([1.0, rng.uniform(0.6, 1.0), rng.uniform(0.6, 1.0)])
    areas = np.array([half[1] * half[2], half[0] * half[2], half[0] * half[1]])
    probs = np.repeat(areas, 2)
    probs = probs / probs.sum()
    faces = rng.choice(6, size=n, p=probs)
    pts = rng.uniform(-1.0, 1.0, size=(n, 3)) * half
    axis = faces // 2
    sign = np.where(faces % 2 == 0, 1.0, -1.0)
    pts[np.arange(n), axis] = sign * half[axis]
    return pts


def _sample_cylinder(n: int, rng: np.random.Generator) -> np.ndarray:
    radius = rng.uniform(0.5, 0.7)
    half_h = rng.uniform(0.8, 1.2)
    lateral = 2 * np.pi * radius * 2 * half_h
    cap = np.pi * radius**2
    probs = np.array([lateral, cap, cap])
    probs = probs / probs.sum()
    part = rng.choice(3, size=n, p=probs)
    theta = rng.uniform(0, 2 * np.pi, size=n)
    pts = np.empty((n, 3))
    on_side = part == 0
    pts[on_side, 0] = radius * np.cos(theta[on_side])
    pts[on_side, 1] = radius * np.sin(theta[on_side])
    pts[on_side, 2] = rng.uniform(-half_h, half_h, size=on_side.sum())
    on_cap = ~on_side
    r = radius * np.sqrt(rng.uniform(0, 1, size=on_cap.sum()))
    pts[on_cap, 0] = r * np.cos(theta[on_cap])
    pts[on_cap, 1] = r * np.sin(theta[on_cap])
    pts[on_cap, 2] = np.where(part[on_cap] == 1, half_h, -half_h)
    return pts


def _sample_torus(n: int, rng: np.random.Generator) -> np.ndarray:
    minor = rng.uniform(0.28, 0.4)
    u = rng.uniform(0, 2 * np.pi, size=n)
    # rejection on the tube angle keeps the surface density uniform
    v = np.empty(n)
    filled = 0
    while filled < n:
        cand = rng.uniform(0, 2 * np.pi, size=2 * (n - filled))
        accept = rng.uniform(0, 1, size=cand.size) < (1 + minor * np.cos(cand)) / (1 + minor)
        good = cand[accept][: n - filled]
        v[filled:filled + good.size] = good
        filled += good.size
    ring = 1.0 + minor * np.cos(v)
    return np.stack([ring * np.cos(u), ring * np.sin(u), minor * np.sin(v)], axis=1)


_SAMPLERS = {
    "sphere": _sample_sphere,
    "box": _sample_box,
    "cylinder": _sample_cylinder,
    "torus": _sample_torus,
}


def sample_shape(family: str, n_points: int, rng: np.random.Generator,
                 aspect_jitter: float = 0.1) -> PointCloud:
    if family not in _SAMPLERS:
        raise ValueError(f"unknown shape family {family!r}")
    pts = _SAMPLERS[family](n_points, rng)
    if aspect_jitter:
        pts = pts * rng.uniform(1 - aspect_jitter, 1 + aspect_jitter, size=3)
    cloud = PointCloud(pts, label=SHAPE_FAMILIES.index(family))
    return center_and_scale(cloud)


def generate_dataset(spec: DatasetSpec) -> SyntheticDataset:
    root = np.random.SeedSequence(spec.seed)
    train_seq, test_seq = root.spawn(2)

    def build(seq, per_class):
        rngs = {f: np.random.default_rng(s)
                for f, s in zip(SHAPE_FAMILIES, seq.spawn(len(SHAPE_FAMILIES)))}
        clouds = []
        for i in range(per_class):
            for family in SHAPE_FAMILIES:
                clouds.append(sample_shape(family, spec.n_points, rngs[family],
                                           spec.aspect_jitter))
        return clouds

    return SyntheticDataset(spec, build(train_seq, spec.train_per_class),
                            build(test_seq, spec.test_per_class))

