"""Per-point reference frames and the losses that shape them.

Three constructions are provided: the asymmetric Gram-Schmidt frame, the
bisector-symmetric frame (``lcrf``) whose first two axes are orthogonal by
construction for any valid input pair, and a handcrafted frame from the
global center and local barycenter.  Vector arguments are Tensors shaped
(..., 3); all constructions are differentiable within the guard band.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .vecneuron import gather_neighbors, vn_linear

EPS_PARALLEL = 1e-6


class DegenerateFrameError(ValueError):
    """The input pair is too close to parallel for a stable frame."""

    def __init__(self, dot: float, context: str = ""):
        self.dot = float(dot)
        msg = f"degenerate frame input: |v1.v2| = {abs(self.dot):.9f}"
        super().__init__(f"{msg} ({context})" if context else msg)


@dataclass
class ProjectedPair:
    """Two unit 3-vectors per point, the raw material for a frame."""

    v1: Tensor
    v2: Tensor

    def __post_init__(self):
        if self.v1.shape != self.v2.shape or self.v1.shape[-1] != 3:
            raise ValueError("pair vectors must share a (..., 3) shape")

    @classmethod
    def from_arrays(cls, v1, v2) -> "ProjectedPair":
        v1 = np.asarray(v1, dtype=np.float64)
        v2 = np.asarray(v2, dtype=np.float64)
        for v in (v1, v2):
            norms = np.linalg.norm(v, axis=-1)
            if np.abs(norms - 1.0).max() > 1e-12:
                raise ValueError("pair vectors must be unit length")
        return cls(Tensor(v1), Tensor(v2))

    def dot(self) -> np.ndarray:
        return (self.v1.data * self.v2.data).sum(axis=-1)

    def swapped(self) -> "ProjectedPair":
        return ProjectedPair(self.v2, self.v1)

    def rotated(self, matrix: np.ndarray) -> "ProjectedPair":
        rt = Tensor(np.asarray(matrix).T)
        return ProjectedPair(ad.matmul(self.v1, rt), ad.matmul(self.v2, rt))


def project_pair(v: Tensor, weight: Tensor) -> ProjectedPair:
    """Project equivariant features (..., 3, C) to two unit vectors."""
    q = vn_linear(v, weight)  # (..., 3, 2)
    return ProjectedPair(ad.normalize(q[..., 0], axis=-1),
                         ad.normalize(q[..., 1], axis=-1))


@dataclass
class Frame:
    """A (..., 3, 3) tensor whose columns u1, u2, u3 form a right-handed basis."""

    matrix: Tensor
    kind: str

    def column(self, i: int) -> np.ndarray:
        if i not in (1, 2, 3):
            raise ValueError("column index is 1, 2 or 3")
        return self.matrix.data[..., :, i - 1]

    @property
    def data(self) -> np.ndarray:
        return self.matrix.data


def identity_frames(shape_prefix: tuple[int, ...] = ()) -> Frame:
    eye = np.broadcast_to(np.eye(3), tuple(shape_prefix) + (3, 3)).copy()
    return Frame(Tensor(eye), kind="identity")


def _check_guard_band(pair: ProjectedPair, fallback: Frame | None, context: str):
    """Return the bad-pair mask, raising when no fallback is available."""
    dot = pair.dot()
    bad = np.abs(dot) >= 1.0 - EPS_PARALLEL
    if bad.any() and fallback is None:
        worst = dot[bad].ravel()[np.argmax(np.abs(dot[bad]).ravel())]
        raise DegenerateFrameError(worst, context)
    return bad


def _patch_pair(pair: ProjectedPair, bad: np.ndarray) -> ProjectedPair:
    """Swap in a safe second vector on degenerate rows so the construction
    stays finite; those rows are overwritten with the fallback afterwards."""
    if not bad.any():
        return pair
    v1 = pair.v1.data
    # least-aligned basis vector per row, guaranteed non-parallel to v1
    pick = np.argmin(np.abs(v1), axis=-1)
    axis = np.eye(3)[pick]
    safe = np.cross(v1, axis)
    safe /= np.linalg.norm(safe, axis=-1, keepdims=True)
    mask = bad[..., None]
    return ProjectedPair(pair.v1, ad.where(mask, Tensor(safe), pair.v2))


def _splice_fallback(computed: Tensor, bad: np.ndarray, fallback: Frame) -> Tensor:
    if not bad.any():
        return computed
    return ad.where(bad[..., None, None], fallback.matrix, computed)


def gram_schmidt_frame(pair: ProjectedPair, fallback: Frame | None = None) -> Frame:
    """u1 = v1; u2 = v2 orthogonalized against u1; u3 = u1 x u2.

    Asymmetric in its inputs: swapping v1 and v2 changes the frame.
    """
    bad = _check_guard_band(pair, fallback, "gram-schmidt")
    safe = _patch_pair(pair, bad)
    u1 = safe.v1
    proj = ad.tsum(safe.v2 * u1, axis=-1, keepdims=True)
    u2 = ad.normalize(safe.v2 - proj * u1, axis=-1)
    u3 = ad.cross(u1, u2)
    matrix = ad.stack([u1, u2, u3], axis=-1)
    if fallback is not None:
        matrix = _splice_fallback(matrix, bad, fallback)
    return Frame(matrix, kind="gram-schmidt")


@dataclass
class BisectorIntermediates:
    """sin/cos of the half angle and the scaled bisector, kept for tests."""

    sin_theta: Tensor
    cos_theta: Tensor
    vbar: Tensor


def lcrf_frame(pair: ProjectedPair,
               fallback: Frame | None = None) -> tuple[Frame, BisectorIntermediates]:
    """Symmetric frame from the angular bisector of the pair.

    With d = v1.v2 and theta half the angle between them:
        sin t = sqrt((1-d)/2),  cos t = sqrt((1+d)/2)
        vbar  = normalize(v1 + v2) * (sin t + cos t)
        u1    = normalize(vbar - v1),  u2 = normalize(vbar - v2)
    u1 and u2 come out exactly orthogonal in exact arithmetic, and swapping
    v1 and v2 swaps u1 and u2.
    """
    bad = _check_guard_band(pair, fallback, "lcrf")
    safe = _patch_pair(pair, bad)
    d = ad.tsum(safe.v1 * safe.v2, axis=-1, keepdims=True)
    sin_t = ad.sqrt((1.0 - d) * 0.5)
    cos_t = ad.sqrt((1.0 + d) * 0.5)
    vbar = ad.normalize(safe.v1 + safe.v2, axis=-1) * (sin_t + cos_t)
    u1 = ad.normalize(vbar - safe.v1, axis=-1)
    u2 = ad.normalize(vbar - safe.v2, axis=-1)
    worst = np.abs((u1.data * u2.data).sum(axis=-1)).max()
    if worst > 1e-9:
        raise DegenerateFrameError(float(worst),
                                   "bisector axes failed orthogonality")
    u3 = ad.cross(u1, u2)
    matrix = ad.stack([u1, u2, u3], axis=-1)
    if fallback is not None:
        matrix = _splice_fallback(matrix, bad, fallback)
    frame = Frame(matrix, kind="lcrf")
    inter = BisectorIntermediates(ad.reshape(sin_t, sin_t.shape[:-1]),
                                  ad.reshape(cos_t, cos_t.shape[:-1]), vbar)
    return frame, inter


def handcrafted_frame(points: np.ndarray, knn: np.ndarray,
                      fallback: Frame | None = None) -> Frame:
    """Non-learnable frames for a (B, N, 3) batch over its (B, N, K) graph:
    radial axis from each cloud's centroid, second axis toward the local
    barycenter, orthogonalized."""
    centroid = points.mean(axis=1, keepdims=True)
    radial = points - centroid
    r_norm = np.linalg.norm(radial, axis=-1, keepdims=True)
    bary = gather_neighbors(Tensor(points), knn).data.mean(axis=2)
    toward = bary - points
    bad_radial = (r_norm[..., 0] < 1e-9)
    a = radial / np.maximum(r_norm, 1e-300)
    resid = toward - (toward * a).sum(axis=-1, keepdims=True) * a
    resid_norm = np.linalg.norm(resid, axis=-1, keepdims=True)
    bad = bad_radial | (resid_norm[..., 0] < 1e-9)
    if bad.any():
        if fallback is None:
            raise DegenerateFrameError(1.0, "handcrafted: radial axis or "
                                            "barycenter direction degenerate")
        resid = np.where(bad[..., None], np.ones(3), resid)
        resid_norm = np.linalg.norm(resid, axis=-1, keepdims=True)
    b = resid / resid_norm
    c = np.cross(a, b)
    matrix = np.stack([a, b, c], axis=-1)
    if bad.any():
        matrix = np.where(bad[..., None, None], fallback.matrix.data, matrix)
    return Frame(Tensor(matrix), kind="handcrafted")


def consistency(frame_a: Frame, frame_b: Frame, axis: int) -> np.ndarray:
    """Cosine between matching frame axes of two points (axis 1, 2 or 3)."""
    return (frame_a.column(axis) * frame_b.column(axis)).sum(axis=-1)


def orthogonality_loss(pair: ProjectedPair, squared: bool = False) -> Tensor:
    """Mean of v1.v2 over points; `squared` switches to the (v1.v2)^2 variant
    whose minimum is orthogonality rather than anti-parallelism."""
    d = ad.tsum(pair.v1 * pair.v2, axis=-1)
    if squared:
        d = d * d
    return ad.mean(d)


def consistency_loss(pair: ProjectedPair, knn: np.ndarray) -> Tensor:
    """Mean over graph edges (r, j) of (v_r1.v_j1 - v_r2.v_j2)^2, for a
    (B, N, 3) pair over its (B, N, K) graph.

    Driving this to zero lets the two projected directions learn from each
    other across each local neighborhood.
    """
    n1 = gather_neighbors(pair.v1, knn)  # (B, N, K, 3)
    n2 = gather_neighbors(pair.v2, knn)
    d1 = ad.tsum(ad.reshape(pair.v1, pair.v1.shape[:2] + (1, 3)) * n1, axis=-1)
    d2 = ad.tsum(ad.reshape(pair.v2, pair.v2.shape[:2] + (1, 3)) * n2, axis=-1)
    gap = d1 - d2
    return ad.mean(gap * gap)


def bisector_identity_residuals(pair: ProjectedPair) -> dict[str, np.ndarray]:
    """Numerical residuals of the algebraic identities that make the
    bisector frame orthogonal, evaluated line by line:

        vbar.vbar = (sin t + cos t)^2
        vbar.v2   = cos t (sin t + cos t)
        v1.vbar   = cos t (sin t + cos t)
        (vbar - v1).(vbar - v2) = 0
    """
    v1 = pair.v1.data
    v2 = pair.v2.data
    d = (v1 * v2).sum(axis=-1)
    if (np.abs(d) >= 1.0 - EPS_PARALLEL).any():
        raise DegenerateFrameError(d.ravel()[np.argmax(np.abs(d))], "identity check")
    sin_t = np.sqrt((1.0 - d) / 2.0)
    cos_t = np.sqrt((1.0 + d) / 2.0)
    s = v1 + v2
    vbar = s / np.linalg.norm(s, axis=-1, keepdims=True) * (sin_t + cos_t)[..., None]
    sc = sin_t + cos_t
    return {
        "vbar_norm": (vbar * vbar).sum(axis=-1) - sc * sc,
        "vbar_dot_v2": (vbar * v2).sum(axis=-1) - cos_t * sc,
        "v1_dot_vbar": (v1 * vbar).sum(axis=-1) - cos_t * sc,
        "numerator": ((vbar - v1) * (vbar - v2)).sum(axis=-1),
    }


def max_bisector_residual(pair: ProjectedPair) -> float:
    residuals = bisector_identity_residuals(pair)
    return float(max(np.abs(r).max() for r in residuals.values()))


# ---------------------------------------------------------------------------
# frame-field export


def export_frames_csv(path, points: np.ndarray, frame: Frame) -> None:
    """One row per point: position and the three frame axes."""
    matrix = frame.data.reshape(-1, 3, 3)
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if matrix.shape[0] != pts.shape[0]:
        raise ValueError("need one frame per point")
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z",
                         "u1x", "u1y", "u1z",
                         "u2x", "u2y", "u2z",
                         "u3x", "u3y", "u3z"])
        for p, m in zip(pts, matrix):
            writer.writerow([f"{v:.17g}" for v in
                             np.concatenate([p, m[:, 0], m[:, 1], m[:, 2]])])


AXIS_COLORS = ((255, 0, 0), (0, 255, 0), (0, 0, 255))


def export_frames_ply(path, points: np.ndarray, frame: Frame,
                      scale: float = 0.05) -> None:
    """ASCII PLY with three colored line segments per point (u1 red, u2
    green, u3 blue) for external viewers."""
    matrix = frame.data.reshape(-1, 3, 3)
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if matrix.shape[0] != pts.shape[0]:
        raise ValueError("need one frame per point")
    n = pts.shape[0]
    vertices = []
    edges = []
    for i, (p, m) in enumerate(zip(pts, matrix)):
        base = len(vertices)
        vertices.append(p)
        for axis in range(3):
            vertices.append(p + scale * m[:, axis])
            edges.append((base, base + 1 + axis, AXIS_COLORS[axis]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {4 * n}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write(f"element edge {3 * n}\n")
        fh.write("property int vertex1\nproperty int vertex2\n")
        fh.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        fh.write("end_header\n")
        for v in vertices:
            fh.write(f"{v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for a, b, (r, g, bl) in edges:
            fh.write(f"{a} {b} {r} {g} {bl}\n")
