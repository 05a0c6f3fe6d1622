"""The fusion model: an invariant branch conditioned on per-point frames,
a relative-pose gate on later edge convolutions, attention fusion with the
equivariant branch, and the combined training loss."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import frames as fr
from .autodiff import Parameter, Tensor
from .geometry import knn_graph, nearest_k, sample_rotation_so3
from .vecneuron import (EquivariantEncoder, cloud_rows, gather_neighbors,
                        over_clouds, seeded_normal, vn_invariant_pool)

FRAME_KINDS = ("identity", "handcrafted", "gram-schmidt", "lcrf")
RPR_SOURCES = ("off", "coordinate", "handcrafted-ppf", "equivariant", "invariant")
FUSION_MODES = ("off", "attention")
GRAPH_METRICS = ("feature", "coordinate")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and loss switches; every ablation row is one of these."""

    frame_kind: str = "lcrf"
    rpr_source: str = "equivariant"
    fusion: str = "attention"
    lambda_orth: float = 0.1
    lambda_consist: float = 0.1
    orth_squared: bool = False
    vn_widths: tuple[int, ...] = (16, 32, 64)
    inv_widths: tuple[int, ...] = (64, 64, 128)
    head_channels: int = 8
    rpr_channels: int = 8
    rpr_hidden: int = 32
    classifier_hidden: int = 128
    fusion_width: int = 128
    n_classes: int = 4
    k: int = 16
    graph_metric: str = "feature"
    seed: int = 0

    def __post_init__(self):
        for name in ("lambda_orth", "lambda_consist"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.frame_kind not in FRAME_KINDS:
            raise ValueError(f"frame_kind must be one of {FRAME_KINDS}")
        if self.rpr_source not in RPR_SOURCES:
            raise ValueError(f"rpr_source must be one of {RPR_SOURCES}")
        if self.fusion not in FUSION_MODES:
            raise ValueError(f"fusion must be one of {FUSION_MODES}")
        if self.graph_metric not in GRAPH_METRICS:
            raise ValueError(f"graph_metric must be one of {GRAPH_METRICS}")
        if len(self.inv_widths) != 3:
            raise ValueError(f"inv_widths must hold exactly 3 widths, one per "
                             f"invariant edge convolution, got {self.inv_widths}")
        if not self.vn_widths or self.vn_widths[-1] < 2:
            # the frame pair is two projections of the last encoder layer's
            # channels; one channel makes them parallel at every point
            raise ValueError(f"vn_widths must be non-empty and end in a width "
                             f">= 2, got {self.vn_widths}")
        for w in (*self.vn_widths, *self.inv_widths, self.head_channels,
                  self.rpr_channels, self.rpr_hidden, self.classifier_hidden,
                  self.fusion_width):
            if w < 1:
                raise ValueError("all widths must be >= 1")
        if self.n_classes < 2 or self.k < 1:
            raise ValueError("need n_classes >= 2 and k >= 1")

    @property
    def uses_equivariant_branch(self) -> bool:
        return (self.frame_kind in ("gram-schmidt", "lcrf")
                or self.rpr_source == "equivariant"
                or self.fusion == "attention")


# Ablation rows, named by what they switch on.  The component axis walks from
# the invariant branch alone up to the full model; the frames and pose axes
# vary one ingredient of the full model at a time.
NAMED_CONFIGS: dict[str, dict] = {
    "baseline": dict(frame_kind="gram-schmidt", rpr_source="off", fusion="off"),
    "fusion": dict(frame_kind="gram-schmidt", rpr_source="off", fusion="attention"),
    "fusion-lcrf": dict(frame_kind="lcrf", rpr_source="off", fusion="attention"),
    "fusion-rpr-coordinate": dict(frame_kind="gram-schmidt",
                                  rpr_source="coordinate", fusion="attention"),
    "fusion-rpr-equivariant": dict(frame_kind="gram-schmidt",
                                   rpr_source="equivariant", fusion="attention"),
    "full": dict(frame_kind="lcrf", rpr_source="equivariant", fusion="attention"),
    "frames-handcrafted": dict(frame_kind="handcrafted",
                               rpr_source="equivariant", fusion="attention"),
    "frames-gram-schmidt": dict(frame_kind="gram-schmidt",
                                rpr_source="equivariant", fusion="attention"),
    "frames-lcrf": dict(frame_kind="lcrf", rpr_source="equivariant",
                        fusion="attention"),
    "pose-coordinate": dict(frame_kind="lcrf", rpr_source="coordinate",
                            fusion="attention"),
    "pose-handcrafted-ppf": dict(frame_kind="lcrf", rpr_source="handcrafted-ppf",
                                 fusion="attention"),
    "pose-equivariant": dict(frame_kind="lcrf", rpr_source="equivariant",
                             fusion="attention"),
    "pose-invariant": dict(frame_kind="lcrf", rpr_source="invariant",
                           fusion="attention"),
    "identity-frames": dict(frame_kind="identity", rpr_source="off", fusion="off"),
}

COMPONENT_ABLATION_ROWS = ("baseline", "fusion", "fusion-lcrf",
                           "fusion-rpr-coordinate", "fusion-rpr-equivariant", "full")
FRAME_ABLATION_ROWS = ("frames-handcrafted", "frames-gram-schmidt", "frames-lcrf")
POSE_ABLATION_ROWS = ("pose-coordinate", "pose-handcrafted-ppf",
                      "pose-equivariant", "pose-invariant")
# the invariant model against the rotation-sensitive reference, run once
# per train/test rotation protocol
PROTOCOL_ROWS = ("full", "identity-frames")


def named_config(name: str, **overrides) -> ModelConfig:
    if name not in NAMED_CONFIGS:
        raise ValueError(f"unknown configuration {name!r}; "
                         f"known: {sorted(NAMED_CONFIGS)}")
    return ModelConfig(**{**NAMED_CONFIGS[name], **overrides})


class Linear:
    def __init__(self, name: str, n_in: int, n_out: int, seed: int,
                 zero_weight: bool = False, bias_value: float = 0.0):
        w = (np.zeros((n_in, n_out)) if zero_weight
             else seeded_normal(f"{name}.weight", (n_in, n_out), seed))
        self.weight = Parameter(f"{name}.weight", w)
        self.bias = Parameter(f"{name}.bias", np.full(n_out, bias_value))

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def __call__(self, x: Tensor) -> Tensor:
        return ad.addmm(self.bias, x, self.weight)


class Mlp:
    """Linear - relu - Linear."""

    def __init__(self, name: str, n_in: int, hidden: int, n_out: int, seed: int,
                 zero_last: bool = False, last_bias: float = 0.0):
        self.fc1 = Linear(f"{name}.fc1", n_in, hidden, seed)
        self.fc2 = Linear(f"{name}.fc2", hidden, n_out, seed,
                          zero_weight=zero_last, bias_value=last_bias)

    def parameters(self) -> list[Parameter]:
        return self.fc1.parameters() + self.fc2.parameters()

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(ad.relu(self.fc1(x)))


def inv_edge_conv(x: Tensor, knn: np.ndarray, fc1: Linear, fc2: Linear,
                  gate: Optional[Mlp] = None, code=None,
                  frame: Optional[Tensor] = None) -> Tensor:
    """One invariant edge convolution as one tape node:
    max_k relu(concat[x_i, x_j - x_i] W1 + b1) W2 + b2.

    `x` is (B, N, C) per point and `knn` the (B, N, K) index of each point's
    neighbours among them, gathered inside the node (an index outside
    [0, N) raises ValueError, as in `gather_neighbors`).  `fc1`, `fc2` are
    the MLP's two layers, whose weights and biases are parents too; returns
    (B, N, Cout).  With W_a, W_b the first and last C rows of W1,

        concat[x_i, x_j - x_i] W1 + b1 = (x_i (W_a - W_b) + b1) + x_j W_b,

    so the centre term and the bias are per point, one (N, C) @ (C, H)
    product per cloud added in place onto the per-edge product (DGCNN's
    split), and the relu runs in place too.  The fc2 bias is added after
    the max: rounding is monotone, so max_k(y_k + b) and max_k(y_k) + b are
    the same float.  The difference channel cancels any constant offset
    added to all points.

    With a `gate` (the relative-pose gate, an `Mlp`), each x_j is replaced
    by gate(code_ij) * x_j before the edge linear, where code_ij, flattened
    per edge to the gate's input width, is the edge's row of `code`, a
    (B, N, K, D) per-edge constant array (the handcrafted point-pair code),
    or x_j - x_i when `code` is None (the `invariant` pose source).  The
    gate's product runs in place on its freshly allocated output.

    With a `frame`, the (B, N, 3, 3) per-point frames U, the node reads
    per-point 3-vectors v in each centre's frame as U_i^T (v_j - c_i):
      - without a gate, v is x, the (B, N, 3) points, and c_i = 0, so the
        edge input is concat[U_i^T x_i, U_i^T x_j - U_i^T x_i] (psi, the
        first layer);
      - with a gate, v is `code`, (B, N, 3, C) per point, and c_i = v_i:
        the gate reads the relative pose code U_i^T (v_j - v_i), which the
        frame makes invariant while it still carries inter-patch pose.
    The projection's backward is its transposed products: the frame gets
    g (v_j - c_i)^T summed over K, and v gets U_i g scattered back to rows.

    When the graph is recorded the node keeps, besides its parents, only the
    argmax over K of the fc2 product (the first on ties, as in `ad.tmax`),
    in the narrowest unsigned type that holds K - 1: uint8 up to K = 256,
    uint16 above; under `no_grad` only the max is taken.  Backward builds
    the gathered neighbours, the projection, the gate and the hidden layer
    again with the same arithmetic, so the same bits (activation
    recomputation, Chen et al. 2016), for the active points only: those
    whose output gradient has a nonzero entry, each with all K edges.
    Under a max over points (PointNet's critical set, Qi et al. 2017) most
    points are inactive, and their edges send only zeros.  Each per-point
    product keeps its call shape, so its bits, and every sum across points
    or edges (weight products, bias sums, the centre product) still runs
    over all N or N·K rows, the inactive ones zero: BLAS's bits depend on
    the row count.  Backward routes the gradient to the argmax rows, and
    sums the per-edge hidden gradient over K for the per-point centre
    product; the gradient of gathered neighbours is scattered back to rows
    (`ad.scatter_rows`).  Each per-edge array is dropped as soon as it is
    dead, and the node's one gradient callback yields every parent's
    gradient from this one pass, in parent order, so none outlives its use.

    Forward and backward run one cloud at a time (`over_clouds`), so each
    per-edge array stays in cache: the forward writes each cloud's
    neighbours, projection, max and K-argmax to buffers and rows allocated
    once, and backward adds the weight and bias gradients over the clouds
    in cloud order.
    """
    b, n, c = x.shape
    rows = cloud_rows(knn, n)
    w1, b1 = fc1.weight.data, fc1.bias.data
    w2, b2 = fc2.weight.data, fc2.bias.data
    w_b = w1[c:]
    w_ab = w1[:c] - w_b
    x_i = x.data.reshape(b, n, 1, c)
    # the per-point vectors read in each centre's frame: psi's points, or
    # the pose features a gate reads
    vectors = None if frame is None else x if gate is None else code
    in_frame = vectors is x

    parents = {}
    if vectors is not None:
        # backward's depth-first walk must reach x's subgraph before the
        # frame's and the pose features', as it does through the op-by-op
        # form, so that tensors shared by both (frames, encoder features)
        # sum their gradients in the same order
        parents["frame"] = frame
        if not in_frame:
            parents["code"] = code
        v = vectors.data.reshape(b, n, 3, -1)
        ut = np.swapaxes(frame.data, -1, -2)[:, :, None]    # (B, N, 1, 3, 3)
    parents.update(x=x, w1=fc1.weight, b1=fc1.bias, w2=fc2.weight, b2=fc2.bias)
    if gate is not None:
        parents.update(gw1=gate.fc1.weight, gb1=gate.fc1.bias,
                       gw2=gate.fc2.weight, gb2=gate.fc2.bias)
    edge = (1, n, knn.shape[2])             # one cloud's per-edge arrays

    # each helper takes the cloud `blk`, the per-cloud buffers the forward
    # writes to, and the points `at` it runs on: in backward, the active M
    def project(blk, out, at=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """U_i^T (v_j - c_i) and v_j - c_i, (1, M, K, 3, C)."""
        # cloud_rows has checked every index
        d = np.take(v[blk.start], rows[blk, at], axis=0, out=out.get("d"), mode="clip")
        if not in_frame:                    # the pose code's c_i = v_i
            d -= v[blk, at, None]
        return np.matmul(ut[blk, at], d, out=out.get("proj")), d

    def centre(blk) -> np.ndarray:
        """The cloud's (N, C) x_i, psi's read in their own frames."""
        if not in_frame:
            return x.data[blk.start]
        return (ut[blk, :, 0] @ v[blk]).reshape(n, c)

    def neighbor_features(blk, out, at=slice(None)):
        """The (1, M, K, C) x_j and, for psi, the points p_j it projects."""
        if in_frame:
            proj, d = project(blk, out, at)
            return proj.reshape(proj.shape[:3] + (c,)), d
        return np.take(x.data[blk.start], rows[blk, at], axis=0,
                       out=out.get("xj"), mode="clip"), None

    def gate_terms(xj: np.ndarray, blk, out, at=slice(None)):
        """The gate's per-edge input, hidden layer and output, and for the
        pose code, v_j - v_i."""
        d = None
        width = xj.shape[:3] + gate.fc1.weight.shape[:1]   # not -1: M may be 0
        if vectors is not None:
            proj, d = project(blk, out, at)
            inp = proj.reshape(width)
        elif code is None:
            inp = np.subtract(xj, x_i[blk, at], out=out.get("inp"))
        else:
            inp = code[blk, at].reshape(width)
        hid = np.matmul(inp, gate.fc1.weight.data, out=out.get("hid"))
        hid += gate.fc1.bias.data
        np.maximum(hid, 0.0, out=hid)
        gated = np.matmul(hid, gate.fc2.weight.data, out=out.get("gate"))
        gated += gate.fc2.bias.data
        return inp, hid, gated, d

    def hidden(edges: np.ndarray, center: np.ndarray, out=None,
               at=slice(None)) -> np.ndarray:
        center = center @ w_ab              # all N rows: BLAS's bits vary with M
        center += b1
        h = np.matmul(edges, w_b, out=out)
        h += center[at, None]
        return np.maximum(h, 0.0, out=h)

    # the K-argmax of every output, written cloud by cloud
    idx = (np.zeros((b, n, 1) + w2.shape[1:], np.min_scalar_type(edge[2] - 1))
           if ad.recording(parents.values()) else None)

    def forward(blk, out):
        edges = neighbor_features(blk, out)[0]
        if gate is not None:
            # only the gate's output outlives gate_terms, and it takes the
            # product in place
            gated = gate_terms(edges, blk, out)[2]
            gated *= edges
            edges = gated
            del gated
        h = hidden(edges, centre(blk), out.get("h"))
        del edges
        y = np.matmul(h, w2, out=out.get("y"))
        del h
        top = y.max(axis=2)
        if idx is not None:
            # the first neighbour that reaches the max, as np.argmax picks
            # it: one compare per neighbour costs about half of an argmax
            # over a middle axis, which copies the array (a NaN max matches
            # none, so its gradient goes to neighbour 0)
            first = idx[blk, :, 0]
            for k in reversed(range(y.shape[2])):
                first[y[:, :, k] == top] = k
        top += b2
        return top

    buffers = dict(h=edge + w_b.shape[1:], y=edge + w2.shape[1:])
    if vectors is not None:
        buffers.update(d=edge + v.shape[2:], proj=edge + v.shape[2:])
    if not in_frame:
        buffers["xj"] = edge + (c,)
    if gate is not None:
        buffers.update(hid=edge + gate.fc1.weight.shape[1:], gate=edge + (c,))
        if vectors is None and code is None:
            buffers["inp"] = edge + (c,)

    def spread(a: np.ndarray, at) -> np.ndarray:
        """The (1, M, ...) rows `a` of the points `at` among N zero rows."""
        if isinstance(at, slice):
            return a
        out = np.zeros(a.shape[:1] + (n,) + a.shape[2:])
        out[:, at] = a
        return out

    def project_gradients(g_proj: np.ndarray, d: np.ndarray, blk, at,
                          g_centre=None) -> dict[str, np.ndarray]:
        """The frame's and the vectors' gradients from the cloud's gradient
        `g_proj` of U_i^T (v_j - c_i) and, for psi, `g_centre` of U_i^T x_i."""
        grads = {}
        if frame.requires_grad:
            g_ut = spread((g_proj @ np.swapaxes(d, -1, -2)).sum(axis=2), at)
            if in_frame:
                g_ut += g_centre @ np.swapaxes(v[blk], -1, -2)
            grads["frame"] = np.swapaxes(g_ut, -1, -2)
        if vectors.requires_grad:
            g_d = np.swapaxes(ut[blk, at], -1, -2) @ g_proj
            grad = ad.scatter_rows(g_d, rows[blk, at], n).reshape(v[blk].shape)
            if in_frame:
                grad += np.swapaxes(ut[blk, :, 0], -1, -2) @ g_centre
            else:
                grad[:, at] += np.negative(g_d, out=g_d).sum(axis=2)
            grads["x" if in_frame else "code"] = grad.reshape(
                (1,) + vectors.shape[1:])
        return grads

    def gradients(g: np.ndarray, blk: slice) -> dict[str, np.ndarray]:
        """Every parent's gradient that backward will ask for, from the
        cloud `blk`."""
        g = g[blk]
        active = g[0].any(axis=-1)
        at = slice(None) if active.all() else np.flatnonzero(active)
        xj, d = neighbor_features(blk, {}, at)
        if gate is None:
            edges = xj
        else:
            inp, hid, gate_out, d = gate_terms(xj, blk, {}, at)
            edges = gate_out * xj
        center = centre(blk)
        h = hidden(edges, center, at=at)
        gy = np.zeros(h.shape[:3] + w2.shape[1:])
        np.put_along_axis(gy, idx[blk, at], g[:, at, None], axis=2)
        grads = {"w2": (spread(h, at).reshape(-1, h.shape[-1]).T
                        @ spread(gy, at).reshape(-1, gy.shape[-1])),
                 "b2": g.sum(axis=(0, 1))}
        live = h > 0
        del h
        gh = gy @ w2.T
        del gy
        gh *= live
        del live
        g_wb = (spread(edges, at).reshape(-1, c).T
                @ spread(gh, at).reshape(-1, gh.shape[-1]))
        del edges
        g_center = spread(gh.sum(axis=2, keepdims=True), at)
        # psi's frame takes its gradient through the projected x
        through_x = x.requires_grad or (in_frame and frame.requires_grad)
        g_edge = None
        if gate is not None or through_x:
            g_edge = gh @ w_b.T
        del gh
        if through_x:
            g_x = (g_center.reshape(n, -1) @ w_ab.T).reshape(g.shape[:2] + (c,))
        g_ab = center.T @ g_center.reshape(-1, g_center.shape[-1])
        grads["w1"] = np.concatenate([g_ab, g_wb - g_ab])
        grads["b1"] = g_center.sum(axis=(0, 1, 2))
        if gate is not None:
            # the product gate * x_j, then the gate's two layers
            g_gate = g_edge * xj
            del xj
            g_edge *= gate_out
            del gate_out
            every = spread(g_gate, at)
            grads["gb2"] = every.sum(axis=(0, 1, 2))
            grads["gw2"] = (spread(hid, at).reshape(-1, hid.shape[-1]).T
                            @ every.reshape(-1, every.shape[-1]))
            g_hid = g_gate @ gate.fc2.weight.data.T
            del g_gate
            g_hid *= hid > 0
            del hid
            every = spread(g_hid, at)
            grads["gb1"] = every.sum(axis=(0, 1, 2))
            grads["gw1"] = (spread(inp, at).reshape(-1, inp.shape[-1]).T
                            @ every.reshape(-1, every.shape[-1]))
            del inp, every
            if vectors is not None:
                grads.update(project_gradients(
                    (g_hid @ gate.fc1.weight.data.T).reshape(d.shape), d, blk, at))
            elif code is None:
                # x_j - x_i: the x_j term joins the gating term before the
                # scatter and the x_i term is summed over K, in the order
                # the op-by-op form adds them
                g_code = g_hid @ gate.fc1.weight.data.T
                g_edge += g_code
                if x.requires_grad:
                    g_x[:, at] += np.negative(g_code, out=g_code).sum(axis=2)
                del g_code
            del g_hid
        if in_frame and through_x:
            grads.update(project_gradients(g_edge.reshape(d.shape), d, blk, at,
                                           g_x.reshape(edge[:2] + (c, 1))))
        elif x.requires_grad:
            g_x += ad.scatter_rows(g_edge, rows[blk, at], n).reshape(g_x.shape)
            grads["x"] = g_x
        return grads

    return over_clouds("inv_edge_conv", parents, forward, gradients,
                       ("x", "code", "frame"), **buffers)


# ---------------------------------------------------------------------------
# relative pose codes


def handcrafted_ppf_code(points: np.ndarray, knn: np.ndarray) -> np.ndarray:
    """Distance/angle 4-vector per edge, rotation-invariant by construction:
    (|d|, angle(d, p_r - c), angle(d, p_j - c), angle(p_r - c, p_j - c))
    with d = p_j - p_r and c the cloud centroid.  A stand-in for richer
    point-pair features from the literature; a (B, N, K, 4) constant,
    computed outside the graph."""
    pts = np.asarray(points, dtype=np.float64)
    centroid = pts.mean(axis=1, keepdims=True)
    rel = pts - centroid                                   # (B,N,3)
    pj = gather_neighbors(Tensor(pts), knn).data           # (B,N,K,3)
    d = pj - pts[:, :, None, :]
    rel_j = pj - centroid[:, :, None, :]

    def angle(u, v):
        nu = np.linalg.norm(u, axis=-1)
        nv = np.linalg.norm(v, axis=-1)
        denom = np.maximum(nu * nv, 1e-12)
        return np.arccos(np.clip((u * v).sum(-1) / denom, -1.0, 1.0))

    rel_r = np.broadcast_to(rel[:, :, None, :], d.shape)
    return np.stack([np.linalg.norm(d, axis=-1),
                     angle(d, rel_r), angle(d, rel_j),
                     angle(rel_r, rel_j)], axis=-1)


# ---------------------------------------------------------------------------
# losses


def fuse_attention(pooled_inv: Tensor, pooled_eqv: Tensor, scores: Tensor) -> Tensor:
    """Channelwise softmax gate over the two branches.

    `scores` is a learned (2, width) array; equal scores average the two
    projections, and sending one branch's scores to -inf hands the output
    to the other branch.
    """
    gates = ad.softmax(scores, axis=0)
    return gates[0] * pooled_inv + gates[1] * pooled_eqv


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of (B, C) logits against integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = logits.shape[-1]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("label out of range")
    onehot = np.eye(n_classes)[labels]
    logp = ad.log_softmax(logits, axis=-1)
    return -ad.mean(ad.tsum(logp * onehot, axis=-1))


def total_loss(logits_inv: Tensor, logits_eqv: Optional[Tensor],
               logits_fused: Optional[Tensor], labels: np.ndarray,
               lambda_orth: float, lambda_consist: float,
               pair: Optional[fr.ProjectedPair] = None,
               knn: Optional[np.ndarray] = None,
               orth_squared: bool = False) -> tuple[Tensor, dict[str, float]]:
    """Sum of per-head cross-entropies plus the weighted frame losses."""
    loss = cross_entropy(logits_inv, labels)
    parts = {"ce_inv": loss.item()}
    if logits_eqv is not None:
        ce = cross_entropy(logits_eqv, labels)
        parts["ce_eqv"] = ce.item()
        loss = loss + ce
    if logits_fused is not None:
        ce = cross_entropy(logits_fused, labels)
        parts["ce_fused"] = ce.item()
        loss = loss + ce
    if pair is not None and lambda_orth > 0:
        orth = fr.orthogonality_loss(pair, squared=orth_squared)
        parts["orth"] = orth.item()
        loss = loss + lambda_orth * orth
    if pair is not None and knn is not None and lambda_consist > 0:
        consist = fr.consistency_loss(pair, knn)
        parts["consist"] = consist.item()
        loss = loss + lambda_consist * consist
    parts["total"] = loss.item()
    return loss, parts


# ---------------------------------------------------------------------------
# the model


@dataclass
class ForwardOutput:
    logits_inv: Tensor
    logits_eqv: Optional[Tensor]
    logits_fused: Optional[Tensor]
    pair: Optional[fr.ProjectedPair]
    frames: fr.Frame
    knn_coord: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def prediction_logits(self) -> Tensor:
        return self.logits_fused if self.logits_fused is not None else self.logits_inv

    def predicted_classes(self) -> np.ndarray:
        return np.argmax(self.prediction_logits.data, axis=-1)


class FusionModel:
    """Two-branch network over batches of equally sized clouds (B, N, 3)."""

    def __init__(self, config: ModelConfig):
        self.config = config
        seed = config.seed
        w1, w2, w3 = config.inv_widths

        self.encoder = EquivariantEncoder(config.vn_widths, seed)
        c_eqv = self.encoder.out_channels
        self.pair_proj = Parameter("frames.proj",
                                   seeded_normal("frames.proj", (c_eqv, 2), seed))

        self.psi = Mlp("inv.conv0", 6, w1, w1, seed)
        self.phi1 = Mlp("inv.conv1", 2 * w1, w2, w2, seed)
        self.phi2 = Mlp("inv.conv2", 2 * w2, w3, w3, seed)

        self.rpr_proj: Optional[Parameter] = None
        self.gates: list[Optional[Mlp]] = [None, None]
        if config.rpr_source != "off":
            code_dims = {"coordinate": 3,
                         "handcrafted-ppf": 4,
                         "equivariant": 3 * config.rpr_channels,
                         "invariant": None}[config.rpr_source]
            if config.rpr_source == "equivariant":
                self.rpr_proj = Parameter(
                    "rpr.proj", seeded_normal("rpr.proj",
                                              (c_eqv, config.rpr_channels), seed))
            for i, width in enumerate((w1, w2)):
                dim = width if config.rpr_source == "invariant" else code_dims
                # zero final weight and unit bias: the gate starts as identity
                self.gates[i] = Mlp(f"rpr.gate{i + 1}", dim, config.rpr_hidden,
                                    width, seed, zero_last=True, last_bias=1.0)

        self.cls_inv = Mlp("cls.inv", w3, config.classifier_hidden,
                           config.n_classes, seed)

        self.head: Optional[Parameter] = None
        self.cls_eqv: Optional[Mlp] = None
        self.fuse_proj_inv: Optional[Linear] = None
        self.fuse_proj_eqv: Optional[Linear] = None
        self.fuse_scores: Optional[Parameter] = None
        self.cls_fused: Optional[Mlp] = None
        if config.uses_equivariant_branch:
            self.head = Parameter("eqv.head",
                                  seeded_normal("eqv.head",
                                                (c_eqv, config.head_channels), seed))
            self.cls_eqv = Mlp("cls.eqv", c_eqv * config.head_channels,
                               config.classifier_hidden, config.n_classes, seed)
        if config.fusion == "attention":
            self.fuse_proj_inv = Linear("fuse.proj_inv", w3,
                                        config.fusion_width, seed)
            self.fuse_proj_eqv = Linear("fuse.proj_eqv",
                                        c_eqv * config.head_channels,
                                        config.fusion_width, seed)
            # zeros give both branches an equal softmax share at init
            self.fuse_scores = Parameter("fuse.scores",
                                         np.zeros((2, config.fusion_width)))
            self.cls_fused = Mlp("cls.fused", config.fusion_width,
                                 config.classifier_hidden, config.n_classes, seed)

        names = [p.name for p in self.parameters()]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")

    def parameters(self) -> list[Parameter]:
        params = []
        if self.config.uses_equivariant_branch:
            # pair_proj feeds the frame losses even when the frames
            # themselves are not learned
            params += self.encoder.parameters()
            params.append(self.pair_proj)
        params += self.psi.parameters() + self.phi1.parameters() + self.phi2.parameters()
        if self.rpr_proj is not None:
            params.append(self.rpr_proj)
        for gate in self.gates:
            if gate is not None:
                params += gate.parameters()
        params += self.cls_inv.parameters()
        if self.head is not None:
            params.append(self.head)
            params += self.cls_eqv.parameters()
        if self.fuse_scores is not None:
            params += self.fuse_proj_inv.parameters()
            params += self.fuse_proj_eqv.parameters()
            params.append(self.fuse_scores)
            params += self.cls_fused.parameters()
        return params

    # -- persistence --------------------------------------------------------

    def save(self, path) -> None:
        ad.save_checkpoint(path, self.parameters())

    def load(self, path) -> None:
        """Set every parameter from the checkpoint at `path`.  The file must
        hold exactly this model's parameter names, each with its shape; a
        missing, extra or misshapen parameter raises ValueError naming the
        path and leaves every parameter as it was."""
        state = ad.load_checkpoint(path)
        params = self.parameters()
        missing = [p.name for p in params if p.name not in state]
        if missing:
            raise ValueError(f"{path}: checkpoint is missing parameters {missing}")
        extra = sorted(state.keys() - {p.name for p in params})
        if extra:
            raise ValueError(f"{path}: checkpoint has parameters this model "
                             f"does not: {extra}")
        for p in params:
            if state[p.name].shape != p.shape:
                raise ValueError(f"{path}: shape mismatch for {p.name!r}: "
                                 f"{state[p.name].shape} in the checkpoint, "
                                 f"{p.shape} in the model")
        for p in params:
            p.data = state[p.name]

    # -- graph building ------------------------------------------------------

    def _coordinate_graph(self, points: np.ndarray) -> np.ndarray:
        return np.stack([knn_graph(cloud, self.config.k) for cloud in points])

    def _feature_graph(self, features: np.ndarray) -> np.ndarray:
        # Gram-expansion form of the squared distances; much cheaper than the
        # coordinate-difference form at feature widths, same tie-break.
        b, n = features.shape[0], features.shape[1]
        d2 = np.empty((b, n, n))
        for x, out in zip(features, d2):
            r2 = (x * x).sum(axis=1)
            np.subtract(r2[:, None] + r2[None, :], 2.0 * (x @ x.T), out=out)
        d2[:, np.arange(n), np.arange(n)] = np.inf
        return nearest_k(d2, self.config.k)

    # -- branches ------------------------------------------------------------

    def _build_frames(self, points: Tensor, knn: np.ndarray,
                      pair: Optional[fr.ProjectedPair]) -> fr.Frame:
        b, n = points.shape[0], points.shape[1]
        kind = self.config.frame_kind
        fallback = fr.identity_frames((b, n))
        if kind == "identity":
            return fallback
        if kind == "handcrafted" or fr.parallel_pairs(pair).any():
            # the handcrafted frame rotates with the input, so it is the
            # learned frames' fallback; the identity, which does not, is
            # left only where the handcrafted frame degenerates too
            fallback = fr.handcrafted_frame(points.data, knn, fallback=fallback)
        if kind == "handcrafted":
            return fallback
        if kind == "gram-schmidt":
            return fr.gram_schmidt_frame(pair, fallback=fallback)
        return fr.lcrf_frame(pair, fallback=fallback)

    def forward(self, points: np.ndarray) -> ForwardOutput:
        """Run both branches on a (B, N, 3) batch."""
        if np.ndim(points) != 3 or np.shape(points)[-1] != 3:
            raise ValueError(f"points must be (B, N, 3), got {np.shape(points)}")
        points = np.asarray(points, dtype=np.float64)
        b, n, _ = points.shape
        cfg = self.config
        if cfg.k >= n:
            raise ValueError(f"k={cfg.k} needs clouds with more than k points")

        knn_coord = self._coordinate_graph(points)
        pts = Tensor(points)

        veq = None
        pair = None
        logits_eqv = None
        if cfg.uses_equivariant_branch:
            veq = self.encoder(pts, knn_coord)              # (B,N,3,C)
            pair = fr.project_pair(veq, self.pair_proj)
        frame = self._build_frames(pts, knn_coord, pair)

        # first invariant convolution on frame-projected geometry: point i
        # and its neighbours, all seen in frame i, U_i^T p_i and U_i^T p_j
        x = inv_edge_conv(pts, knn_coord, self.psi.fc1, self.psi.fc2,
                          frame=frame.matrix)

        # later layers on a dynamic graph with optional pose gating; the
        # gate reads the pose features in each centre's frame, U_i^T (v_j -
        # v_i): the points as one vector channel for the `coordinate`
        # source, the projected equivariant features for `equivariant`
        source = cfg.rpr_source
        code, code_frame = None, None
        if source == "coordinate":
            code, code_frame = ad.reshape(pts, (b, n, 3, 1)), frame.matrix
        elif source == "equivariant":
            code, code_frame = ad.matmul(veq, self.rpr_proj), frame.matrix
        for phi, gate in zip((self.phi1, self.phi2), self.gates):
            if cfg.graph_metric == "feature":
                idx = self._feature_graph(x.data)
            else:
                idx = knn_coord
            if source == "handcrafted-ppf":
                code = handcrafted_ppf_code(points, idx)
            x = inv_edge_conv(x, idx, phi.fc1, phi.fc2, gate, code, code_frame)

        pooled_inv = ad.tmax(x, axis=1)
        logits_inv = self.cls_inv(pooled_inv)

        pooled_eqv = None
        if cfg.uses_equivariant_branch:
            pooled_eqv = vn_invariant_pool(veq, self.head)  # (B, C C')
            logits_eqv = self.cls_eqv(pooled_eqv)

        logits_fused = None
        if cfg.fusion == "attention":
            fused = fuse_attention(self.fuse_proj_inv(pooled_inv),
                                   self.fuse_proj_eqv(pooled_eqv),
                                   self.fuse_scores)
            logits_fused = self.cls_fused(ad.relu(fused))

        diagnostics = {
            "degenerate_fraction": float(frame.degenerate.mean()),
            "orthogonality_residual": (float(np.abs(pair.dot()).mean())
                                       if pair is not None else None),
            "consistency_axis1": mean_knn_consistency(frame, knn_coord, 1),
            "consistency_axis2": mean_knn_consistency(frame, knn_coord, 2),
        }
        return ForwardOutput(logits_inv, logits_eqv, logits_fused, pair, frame,
                             knn_coord, diagnostics)

    __call__ = forward

    def _invariance_defect(self, points: np.ndarray, n_rotations: int,
                           rng: np.random.Generator,
                           reference: Optional[np.ndarray] = None) -> tuple[float, bool]:
        """The max over `n_rotations` SO(3) rotations from `rng` of
        max |logits - reference| / max |reference| (`reference` defaults to
        the unrotated batch's logits; a NaN logit makes it NaN), and whether
        every logit is finite and no predicted class changes."""
        with ad.no_grad():
            if reference is None:
                reference = self.forward(points).prediction_logits.data
            scale = np.maximum(np.abs(reference).max(), 1e-12)
            classes = reference.argmax(axis=-1)
            # argmax of an all-NaN row is 0: classes are stable only if finite
            stable = bool(np.isfinite(reference).all())
            worst = 0.0
            for _ in range(n_rotations):
                rot = sample_rotation_so3(rng).matrix
                logits = self.forward(points @ rot.T).prediction_logits.data
                worst = np.maximum(worst, np.abs(logits - reference).max() / scale)
                stable = (stable and bool(np.isfinite(logits).all())
                          and bool((logits.argmax(axis=-1) == classes).all()))
        return float(worst), stable


def mean_knn_consistency(frame: fr.Frame, knn: np.ndarray, axis: int) -> float:
    """Mean cosine between a frame axis and the same axis at each neighbor."""
    u = frame.data[..., :, axis - 1]                      # (B, N, 3)
    neighbors = gather_neighbors(Tensor(u), knn).data
    return float((u[:, :, None, :] * neighbors).sum(-1).mean())
