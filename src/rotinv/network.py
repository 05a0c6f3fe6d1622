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
                        over_clouds, seeded_normal, vn_invariant_head)

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


def inv_edge_conv(x: Tensor, neighbors, fc1: Linear, fc2: Linear,
                  gate: Optional[Mlp] = None,
                  code: Optional[Tensor] = None) -> Tensor:
    """One invariant edge convolution as one tape node:
    max_k relu(concat[x_i, x_j - x_i] W1 + b1) W2 + b2.

    `x` is (B, N, C) per point.  `neighbors` is either the (B, N, K) index
    of each point's neighbours among the points of `x`, gathered inside the
    node (an index outside [0, N) raises ValueError, as in
    `gather_neighbors`), or a (B, N, K, C) Tensor of per-edge neighbour
    features (psi's frame-projected neighbours, which are no gather of x).
    `fc1`, `fc2` are the MLP's two layers, whose weights and biases are
    parents too; returns (B, N, Cout).  With W_a, W_b the first and last C
    rows of W1,

        concat[x_i, x_j - x_i] W1 + b1 = (x_i (W_a - W_b) + b1) + x_j W_b,

    so the centre term and the bias are per point, one (N, C) @ (C, H)
    product per cloud added in place onto the per-edge product (DGCNN's
    split), and the relu runs in place too.  The fc2 bias is added after
    the max: rounding is monotone, so max_k(y_k + b) and max_k(y_k) + b are
    the same float.  The difference channel cancels any constant offset
    added to all points.

    With a `gate` (the relative-pose gate, an `Mlp`), each x_j is replaced
    by gate(code) * x_j before the edge linear.  `code` is the (B, N, K, ...)
    per-edge pose code, flattened per edge to the gate's input width, or
    None for the gate to read the edge's own feature difference x_j - x_i
    (the `invariant` pose source).  The gate's product runs in place on its
    freshly allocated output.

    When the graph is recorded the node keeps, besides its parents, only the
    argmax over K of the fc2 product (the first on ties, as in `ad.tmax`);
    under `no_grad` only the max is taken.  Backward builds the gathered
    neighbours, the gate and the hidden layer again with the same
    arithmetic, so the same bits (activation recomputation, Chen et al.
    2016), routes the gradient to the argmax rows, and sums the per-edge
    hidden gradient over K for the per-point centre product; the gradient
    of gathered neighbours is scattered back to rows (`ad.scatter_rows`).
    Each per-edge array is dropped as soon as it is dead.  This one pass
    gives every parent's gradient, and the node's one gradient callback
    yields each in parent order, so none outlives its use in backward.

    Forward and backward run one cloud at a time (`over_clouds`), so each
    per-edge array stays in cache: the forward writes each cloud's max and
    K-argmax to its rows, and backward adds the weight and bias gradients
    over the clouds in cloud order.
    """
    b, n, c = x.shape
    w1, b1 = fc1.weight.data, fc1.bias.data
    w2, b2 = fc2.weight.data, fc2.bias.data
    w_b = w1[c:]
    w_ab = w1[:c] - w_b
    x_i = x.data.reshape(b, n, 1, c)
    gathered = not isinstance(neighbors, Tensor)
    if gathered:
        rows = cloud_rows(neighbors, n)

    parents = {"x": x}
    if not gathered:
        parents["xj"] = neighbors
    parents.update(w1=fc1.weight, b1=fc1.bias, w2=fc2.weight, b2=fc2.bias)
    if gate is not None:
        parents.update(gw1=gate.fc1.weight, gb1=gate.fc1.bias,
                       gw2=gate.fc2.weight, gb2=gate.fc2.bias)
    if code is not None:
        # backward's depth-first walk must reach x's subgraph before the
        # code's, as it does through the op-by-op form's gather, so that
        # tensors shared by both (frames, encoder features) sum their
        # gradients in the same order
        parents = {"code": code, **parents}

    # each helper takes the cloud `blk` and, in the forward, the per-cloud
    # buffers its per-edge results are written to
    def neighbor_features(blk, out=None) -> np.ndarray:
        if not gathered:
            return neighbors.data[blk]
        # cloud_rows has checked every index
        return np.take(x.data[blk.start], rows[blk], axis=0, out=out, mode="clip")

    def gate_terms(xj: np.ndarray, blk, out=None):
        """The gate's per-edge input, hidden layer and output."""
        out = out or {}
        if code is None:
            inp = np.subtract(xj, x_i[blk], out=out.get("inp"))
        else:
            inp = code.data[blk].reshape(xj.shape[:3] + (-1,))
        hid = np.matmul(inp, gate.fc1.weight.data, out=out.get("hid"))
        hid += gate.fc1.bias.data
        np.maximum(hid, 0.0, out=hid)
        gated = np.matmul(hid, gate.fc2.weight.data, out=out.get("gate"))
        gated += gate.fc2.bias.data
        return inp, hid, gated

    def hidden(edges: np.ndarray, blk, out=None) -> np.ndarray:
        center = x.data[blk.start] @ w_ab
        center += b1
        h = np.matmul(edges, w_b, out=out)
        h += center[:, None]
        return np.maximum(h, 0.0, out=h)

    # the K-argmax of every output, written cloud by cloud
    idx = (np.zeros((b, n, 1) + w2.shape[1:], dtype=np.int64)
           if ad.recording(parents.values()) else None)

    def forward(blk, out):
        edges = neighbor_features(blk, out.get("xj"))
        if gate is not None:
            # only the gate's output outlives gate_terms, and it takes the
            # product in place
            gated = gate_terms(edges, blk, out)[2]
            gated *= edges
            edges = gated
            del gated
        h = hidden(edges, blk, out.get("h"))
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

    edge = (1, n, neighbors.shape[2])        # one cloud's per-edge arrays
    buffers = dict(h=edge + w_b.shape[1:], y=edge + w2.shape[1:])
    if gathered:
        buffers["xj"] = edge + (c,)
    if gate is not None:
        buffers.update(hid=edge + gate.fc1.weight.shape[1:], gate=edge + (c,))
        if code is None:
            buffers["inp"] = edge + (c,)

    def gradients(g: np.ndarray, blk: slice) -> dict[str, np.ndarray]:
        """Every parent's gradient that backward will ask for, from the
        cloud `blk`."""
        g = g[blk]
        xj = neighbor_features(blk)
        if gate is None:
            edges = xj
        else:
            inp, hid, gate_out = gate_terms(xj, blk)
            edges = gate_out * xj
        h = hidden(edges, blk)
        gy = np.zeros(h.shape[:3] + w2.shape[1:])
        np.put_along_axis(gy, idx[blk], g[:, :, None], axis=2)
        grads = {"w2": h.reshape(-1, h.shape[-1]).T @ gy.reshape(-1, gy.shape[-1]),
                 "b2": g.sum(axis=(0, 1))}
        live = h > 0
        del h
        gh = gy @ w2.T
        del gy
        gh *= live
        del live
        g_wb = edges.reshape(-1, c).T @ gh.reshape(-1, gh.shape[-1])
        del edges
        g_center = gh.sum(axis=2, keepdims=True)
        g_edge = None
        if gate is not None or (x if gathered else neighbors).requires_grad:
            g_edge = gh @ w_b.T
        del gh
        if x.requires_grad:
            grads["x"] = (g_center.reshape(n, -1) @ w_ab.T).reshape(
                g.shape[:2] + (c,))
        g_ab = x_i[blk].reshape(-1, c).T @ g_center.reshape(-1, g_center.shape[-1])
        grads["w1"] = np.concatenate([g_ab, g_wb - g_ab])
        grads["b1"] = g_center.sum(axis=(0, 1, 2))
        if gate is not None:
            # the product gate * x_j, then the gate's two layers
            g_gate = g_edge * xj
            del xj
            g_edge *= gate_out
            del gate_out
            grads["gb2"] = g_gate.sum(axis=(0, 1, 2))
            grads["gw2"] = (hid.reshape(-1, hid.shape[-1]).T
                            @ g_gate.reshape(-1, g_gate.shape[-1]))
            g_hid = g_gate @ gate.fc2.weight.data.T
            del g_gate
            g_hid *= hid > 0
            del hid
            grads["gb1"] = g_hid.sum(axis=(0, 1, 2))
            grads["gw1"] = (inp.reshape(-1, inp.shape[-1]).T
                            @ g_hid.reshape(-1, g_hid.shape[-1]))
            del inp
            if code is None:
                # x_j - x_i: the x_j term joins the gating term before the
                # scatter and the x_i term is summed over K, in the order
                # the op-by-op form adds them
                g_code = g_hid @ gate.fc1.weight.data.T
                g_edge += g_code
                if x.requires_grad:
                    grads["x"] += np.negative(g_code, out=g_code).sum(axis=2)
                del g_code
            elif code.requires_grad:
                grads["code"] = (g_hid @ gate.fc1.weight.data.T).reshape(
                    g.shape[:2] + code.shape[2:])
            del g_hid
        if not gathered:
            if neighbors.requires_grad:
                grads["xj"] = g_edge
        elif x.requires_grad:
            grads["x"] += ad.scatter_rows(g_edge, rows[blk], n).reshape(
                g.shape[:2] + (c,))
        return grads

    return over_clouds("inv_edge_conv", parents, forward, gradients,
                       ("x", "xj", "code"), **buffers)


# ---------------------------------------------------------------------------
# relative pose codes


def rpr_code(frame: fr.Frame, equivariant: Tensor, knn: np.ndarray) -> Tensor:
    """Per-edge code U_r^T (v_j - v_r): the frame cancels any input rotation,
    so the code is invariant while still carrying inter-patch pose.

    `equivariant` is (B, N, 3, C) per point and `knn` the (B, N, K) index;
    returns (B, N, K, 3, C).  The `coordinate` pose source is this code of
    the points as one vector channel, (B, N, 3, 1).  One tape node that
    keeps only its per-point parents; its one gradient callback forms the
    differences again with the same arithmetic for the frame's gradient,
    then scatters the features' gradient back to rows.  Forward and backward
    run one cloud at a time (`over_clouds`).
    """
    b, n = equivariant.shape[0], equivariant.shape[1]
    rows = cloud_rows(knn, n)
    v = equivariant.data
    ut = np.swapaxes(frame.matrix.data, -1, -2).reshape(b, n, 1, 3, 3)

    def diff(blk) -> np.ndarray:
        d = v[blk.start][rows[blk]]
        d -= v[blk, :, None]
        return d

    def gradients(g, blk):
        g = g[blk]
        grads = {}
        if frame.matrix.requires_grad:
            g_ut = (g @ np.swapaxes(diff(blk), -1, -2)).sum(axis=2)
            grads["frame"] = np.swapaxes(g_ut, -1, -2)
        if equivariant.requires_grad:
            g_diff = np.swapaxes(ut[blk], -1, -2) @ g
            grad = ad.scatter_rows(g_diff, rows[blk], n).reshape(v[blk].shape)
            grad += np.negative(g_diff, out=g_diff).sum(axis=2)
            grads["v"] = grad
        return grads

    # frame first: backward's depth-first walk then reaches the features'
    # subgraph before the frame's, as through the op-by-op form
    parents = {"frame": frame.matrix, "v": equivariant}
    return over_clouds("rpr_code", parents, lambda blk, _: ut[blk] @ diff(blk),
                       gradients, ("frame", "v"))


def handcrafted_ppf_code(points: np.ndarray, knn: np.ndarray) -> Tensor:
    """Distance/angle 4-vector per edge, rotation-invariant by construction:
    (|d|, angle(d, p_r - c), angle(d, p_j - c), angle(p_r - c, p_j - c))
    with d = p_j - p_r and c the cloud centroid.  A stand-in for richer
    point-pair features from the literature; computed outside the graph."""
    pts = np.asarray(points, dtype=np.float64)
    centroid = pts.mean(axis=1, keepdims=True)
    rel = pts - centroid                                   # (B,N,3)
    pj = gather_neighbors(Tensor(pts), knn).data           # (B,N,K,3)
    d = pj - pts[:, :, None, :]
    rel_j = gather_neighbors(Tensor(rel), knn).data

    def angle(u, v):
        nu = np.linalg.norm(u, axis=-1)
        nv = np.linalg.norm(v, axis=-1)
        denom = np.maximum(nu * nv, 1e-12)
        return np.arccos(np.clip((u * v).sum(-1) / denom, -1.0, 1.0))

    rel_r = np.broadcast_to(rel[:, :, None, :], d.shape)
    code = np.stack([np.linalg.norm(d, axis=-1),
                     angle(d, rel_r), angle(d, rel_j),
                     angle(rel_r, rel_j)], axis=-1)
    return Tensor(code)


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

    def _pose_features(self, points: Tensor,
                       veq: Optional[Tensor]) -> Optional[Tensor]:
        """The per-point (B,N,3,C) features whose `rpr_code` is the pose
        code: the points as one vector channel for the `coordinate` source,
        the projected equivariant features for `equivariant`; else None."""
        source = self.config.rpr_source
        if source == "coordinate":
            b, n = points.shape[0], points.shape[1]
            return ad.reshape(points, (b, n, 3, 1))
        if source == "equivariant":
            return ad.matmul(veq, self.rpr_proj)
        return None

    def _pose_code(self, frame: fr.Frame, points: Tensor,
                   features: Optional[Tensor], knn: np.ndarray) -> Optional[Tensor]:
        """Per-edge relative-pose code, (B,N,K,D) or (B,N,K,3,C), from the
        `_pose_features`; None for the `invariant` source, whose gate reads
        the edge convolution's own feature difference x_j - x_i."""
        if self.config.rpr_source == "handcrafted-ppf":
            return handcrafted_ppf_code(points.data, knn)
        return None if features is None else rpr_code(frame, features, knn)

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
        # and its neighbors, all seen in frame i, U_i^T p_i and U_i^T p_j
        ut = ad.swap_last_axes(frame.matrix)
        p_local = ad.reshape(ad.matmul(ut, ad.reshape(pts, (b, n, 3, 1))),
                             (b, n, 3))
        pj = ad.reshape(gather_neighbors(pts, knn_coord), (b, n, cfg.k, 3, 1))
        pj_local = ad.reshape(ad.matmul(ad.reshape(ut, (b, n, 1, 3, 3)), pj),
                              (b, n, cfg.k, 3))
        x = inv_edge_conv(p_local, pj_local, self.psi.fc1, self.psi.fc2)

        # later layers on a dynamic graph with optional pose gating; the
        # pose features are built once, and on the coordinate graph both
        # gated layers share one code
        features = self._pose_features(pts, veq)
        code = None
        for phi, gate in zip((self.phi1, self.phi2), self.gates):
            if cfg.graph_metric == "feature":
                idx = self._feature_graph(x.data)
            else:
                idx = knn_coord
            if gate is not None and (code is None or cfg.graph_metric == "feature"):
                code = self._pose_code(frame, pts, features, idx)
            x = inv_edge_conv(x, idx, phi.fc1, phi.fc2, gate, code)

        pooled_inv = ad.tmax(x, axis=1)
        logits_inv = self.cls_inv(pooled_inv)

        pooled_eqv = None
        if cfg.uses_equivariant_branch:
            gram = vn_invariant_head(veq, self.head)        # (B,N,C,C')
            flat = ad.reshape(gram, (b, n, -1))
            pooled_eqv = ad.tmax(flat, axis=1)
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
