"""Per-point reference frames and the losses that shape them.

Three constructions are provided: the asymmetric Gram-Schmidt frame, the
bisector-symmetric frame (``lcrf``) and a handcrafted frame from the global
center and local barycenter.  The paper builds ``lcrf`` from the bisector
vbar of the pair (v1, v2); it is built here in the identical closed form
u1 = normalize(s - w), u2 = normalize(s + w) with s = normalize(v1 + v2)
and w = normalize(v1 - v2), whose first two axes are orthogonal for any
valid input pair.  Vector arguments are Tensors shaped (..., 3).  Rows in
the guard band (|v1.v2| >= 1 - EPS_PARALLEL, or a zero v1 or v2) are
computed unpatched, stay finite through normalize's eps and are replaced
by the fallback frame.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .vecneuron import cloud_rows, gather_neighbors, vn_linear

EPS_PARALLEL = 1e-6


class DegenerateFrameError(ValueError):
    """The input pair is too close to parallel, or zero, for a stable frame."""

    def __init__(self, dot: float, context: str = "", zero_length: bool = False):
        self.dot = float(dot)
        msg = "degenerate frame input: " + ("zero-length pair vector" if zero_length
                                            else f"|v1.v2| = {abs(self.dot):.9f}")
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
    """A (..., 3, 3) tensor whose columns u1, u2, u3 form a right-handed basis.

    `degenerate` is the (...) mask of points whose construction input was
    degenerate and that hold the fallback frame instead.
    """

    matrix: Tensor
    kind: str
    degenerate: np.ndarray | None = None

    def column(self, i: int) -> np.ndarray:
        if i not in (1, 2, 3):
            raise ValueError("column index is 1, 2 or 3")
        return self.matrix.data[..., :, i - 1]

    @property
    def data(self) -> np.ndarray:
        return self.matrix.data


def identity_frames(shape_prefix: tuple[int, ...] = ()) -> Frame:
    eye = np.broadcast_to(np.eye(3), tuple(shape_prefix) + (3, 3)).copy()
    return Frame(Tensor(eye), kind="identity",
                 degenerate=np.zeros(shape_prefix, dtype=bool))


def parallel_pairs(pair: ProjectedPair) -> np.ndarray:
    """The (...) mask where the learned frames take their fallback: the guard
    band |v1.v2| >= 1 - EPS_PARALLEL, and a v1 or v2 of squared norm below
    1 - EPS_PARALLEL (normalize makes a zero projection a zero vector)."""
    short = np.minimum((pair.v1.data ** 2).sum(axis=-1), (pair.v2.data ** 2).sum(axis=-1))
    return (np.abs(pair.dot()) >= 1.0 - EPS_PARALLEL) | (short < 1.0 - EPS_PARALLEL)


def _check_guard_band(pair: ProjectedPair, fallback: Frame | None, context: str):
    """Return the bad-pair mask, raising when no fallback is available."""
    bad = parallel_pairs(pair)
    if bad.any() and fallback is None:
        dot = pair.dot()
        if (np.abs(dot[bad]) < 1.0 - EPS_PARALLEL).any():
            raise DegenerateFrameError(0.0, context, zero_length=True)
        worst = dot[bad].ravel()[np.argmax(np.abs(dot[bad]).ravel())]
        raise DegenerateFrameError(worst, context)
    return bad


def _right_handed(u1: Tensor, u2: Tensor, bad: np.ndarray,
                  fallback: Frame | None, kind: str) -> Frame:
    """The frame [u1, u2, u1 x u2], with the fallback's in the `bad` rows."""
    matrix = ad.stack([u1, u2, ad.cross(u1, u2)], axis=-1)
    if fallback is not None and bad.any():
        matrix = ad.where(bad[..., None, None], fallback.matrix, matrix)
    return Frame(matrix, kind=kind, degenerate=bad)


def gram_schmidt_frame(pair: ProjectedPair, fallback: Frame | None = None) -> Frame:
    """u1 = v1; u2 = v2 orthogonalized against u1; u3 = u1 x u2.

    Asymmetric in its inputs: swapping v1 and v2 changes the frame.
    """
    bad = _check_guard_band(pair, fallback, "gram-schmidt")
    u1 = pair.v1
    proj = ad.tsum(pair.v2 * u1, axis=-1, keepdims=True)
    u2 = ad.normalize(pair.v2 - proj * u1, axis=-1)
    return _right_handed(u1, u2, bad, fallback, "gram-schmidt")


def lcrf_frame(pair: ProjectedPair, fallback: Frame | None = None) -> Frame:
    """Symmetric frame from the angular bisector of the pair.

    The paper's construction, with d = v1.v2 and theta half the angle
    between them:
        sin t = sqrt((1-d)/2),  cos t = sqrt((1+d)/2)
        vbar  = normalize(v1 + v2) * (sin t + cos t)
        u1    = normalize(vbar - v1),  u2 = normalize(vbar - v2)
    With s = normalize(v1 + v2) and w = normalize(v1 - v2), v1 = cos t s +
    sin t w and v2 = cos t s - sin t w, so vbar - v1 = sin t (s - w) and
    vbar - v2 = sin t (s + w).  The frame is built in that closed form,
    u1 = normalize(s - w), u2 = normalize(s + w), u3 = u1 x u2, with no
    cancellation in 1 -+ d.  u1.u2 = (|s|^2 - |w|^2) / |s - w||s + w| = 0,
    and swapping v1 and v2 negates w, which swaps u1 and u2 exactly.
    Guard-band rows are computed as they are and replaced by the fallback.
    """
    bad = _check_guard_band(pair, fallback, "lcrf")
    s = ad.normalize(pair.v1 + pair.v2, axis=-1)
    w = ad.normalize(pair.v1 - pair.v2, axis=-1)
    u1 = ad.normalize(s - w, axis=-1)
    u2 = ad.normalize(s + w, axis=-1)
    dots = np.where(bad, 0.0, (u1.data * u2.data).sum(axis=-1))
    worst = np.abs(dots).max(initial=0.0)
    if worst > 1e-9:
        raise DegenerateFrameError(float(worst),
                                   "bisector axes failed orthogonality")
    return _right_handed(u1, u2, bad, fallback, "lcrf")


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
    return Frame(Tensor(matrix), kind="handcrafted", degenerate=bad)


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
    other across each local neighborhood.  One tape node that gathers the
    neighbours inside; v1 and v2 are listed for their centre term and again
    for their neighbour term, to get the op-by-op graph's bits."""
    v1, v2 = pair.v1.data, pair.v2.data
    b, n = v1.shape[:2]
    rows = cloud_rows(knn, n) + (np.arange(b) * n)[:, None, None]
    nbrs = [v.reshape(b * n, 3)[rows] for v in (v1, v2)]     # (B, N, K, 3)
    gap = ((v1[:, :, None] * nbrs[0]).sum(axis=-1)
           - (v2[:, :, None] * nbrs[1]).sum(axis=-1))
    scale = 1.0 / gap.size

    def grads(g):
        g_gap = (g * scale) * gap
        g_gap += g_gap                                       # d gap^2 = gap + gap
        for t, nbr, g_dot in zip((pair.v1, pair.v2), nbrs, (g_gap, -g_gap)):
            if t.requires_grad:
                g_edge = np.broadcast_to(g_dot[..., None], nbr.shape)
                yield (g_edge * nbr).sum(axis=2)
                yield ad.scatter_rows(g_edge * t.data[:, :, None], rows,
                                      b * n).reshape(t.shape)

    return ad._from_grads(np.asarray((gap * gap).sum() * scale), "consistency_loss",
                          (pair.v1, pair.v1, pair.v2, pair.v2), grads)


def bisector_identity_residuals(pair: ProjectedPair) -> dict[str, np.ndarray]:
    """Numerical residuals of the algebraic identities that make the
    bisector frame orthogonal, evaluated line by line:

        vbar.vbar = (sin t + cos t)^2
        vbar.v2   = cos t (sin t + cos t)
        v1.vbar   = cos t (sin t + cos t)
        (vbar - v1).(vbar - v2) = 0
    """
    _check_guard_band(pair, None, "identity check")
    v1 = pair.v1.data
    v2 = pair.v2.data
    d = (v1 * v2).sum(axis=-1)
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
