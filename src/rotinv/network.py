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
from .geometry import knn_graph, sample_rotation_so3
from .vecneuron import (EquivariantEncoder, edge_linear, gather_neighbors,
                        seeded_normal, vn_invariant_head)

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
        if self.frame_kind not in FRAME_KINDS:
            raise ValueError(f"frame_kind must be one of {FRAME_KINDS}")
        if self.rpr_source not in RPR_SOURCES:
            raise ValueError(f"rpr_source must be one of {RPR_SOURCES}")
        if self.fusion not in FUSION_MODES:
            raise ValueError(f"fusion must be one of {FUSION_MODES}")
        if self.graph_metric not in GRAPH_METRICS:
            raise ValueError(f"graph_metric must be one of {GRAPH_METRICS}")
        if self.lambda_orth < 0 or self.lambda_consist < 0:
            raise ValueError("loss weights must be >= 0")
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


# ---------------------------------------------------------------------------
# relative pose codes


def rpr_code(frame: fr.Frame, equivariant: Tensor, knn: np.ndarray) -> Tensor:
    """Per-edge code U_r^T (v_j - v_r): the frame cancels any input rotation,
    so the code is invariant while still carrying inter-patch pose."""
    b, n = equivariant.shape[0], equivariant.shape[1]
    vj = gather_neighbors(equivariant, knn)               # (B,N,K,3,C)
    diff = vj - ad.reshape(equivariant, (b, n, 1) + equivariant.shape[2:])
    ut = ad.swap_last_axes(frame.matrix)                  # (B,N,3,3)
    return ad.matmul(ad.reshape(ut, (b, n, 1, 3, 3)), diff)


def coordinate_pose_code(frame: fr.Frame, points: Tensor, knn: np.ndarray) -> Tensor:
    """U_r^T (p_j - p_r) lifted to a single vector channel, (B,N,K,3,1)."""
    b, n = points.shape[0], points.shape[1]
    pj = gather_neighbors(points, knn)                    # (B,N,K,3)
    diff = pj - ad.reshape(points, (b, n, 1, 3))
    ut = ad.swap_last_axes(frame.matrix)
    local = ad.matmul(ad.reshape(ut, (b, n, 1, 3, 3)),
                      ad.reshape(diff, (b, n, knn.shape[-1], 3, 1)))
    return local


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
        state = ad.load_checkpoint(path)
        for p in self.parameters():
            if p.name not in state:
                raise ValueError(f"checkpoint is missing parameter {p.name!r}")
            if state[p.name].shape != p.shape:
                raise ValueError(f"shape mismatch for {p.name!r}")
            p.data = state[p.name].copy()

    # -- graph building ------------------------------------------------------

    def _coordinate_graph(self, points: np.ndarray) -> np.ndarray:
        return np.stack([knn_graph(cloud, self.config.k) for cloud in points])

    def _feature_graph(self, features: np.ndarray) -> np.ndarray:
        # Gram-expansion form of the squared distances; much cheaper than the
        # coordinate-difference form at feature widths, same tie-break.
        b = features.shape[0]
        out = []
        for i in range(b):
            x = features[i]
            r2 = (x * x).sum(axis=1)
            d2 = r2[:, None] + r2[None, :] - 2.0 * (x @ x.T)
            np.fill_diagonal(d2, np.inf)
            out.append(np.argsort(d2, axis=1, kind="stable")[:, :self.config.k])
        return np.stack(out)

    # -- branches ------------------------------------------------------------

    def _build_frames(self, points: Tensor, knn: np.ndarray,
                      pair: Optional[fr.ProjectedPair]) -> tuple[fr.Frame, float]:
        b, n = points.shape[0], points.shape[1]
        kind = self.config.frame_kind
        if kind == "identity":
            return fr.identity_frames((b, n)), 0.0
        fallback = fr.identity_frames((b, n))
        if kind == "handcrafted":
            return fr.handcrafted_frame(points.data, knn, fallback=fallback), 0.0
        bad_fraction = float((np.abs(pair.dot()) >= 1.0 - fr.EPS_PARALLEL).mean())
        if kind == "gram-schmidt":
            return fr.gram_schmidt_frame(pair, fallback=fallback), bad_fraction
        frame, _ = fr.lcrf_frame(pair, fallback=fallback)
        return frame, bad_fraction

    @staticmethod
    def _edge_conv(x: Tensor, xj: Tensor, phi: Mlp) -> Tensor:
        """phi(concat[x_i, x_j - x_i]) max-pooled over the K neighbors.

        The fc2 bias is added after the pool: rounding is monotone, so
        max_k(h_k + b) and max_k(h_k) + b are the same float.
        """
        hidden = ad.relu(edge_linear(x, xj, phi.fc1.weight, phi.fc1.bias))
        return ad.tmax(ad.matmul(hidden, phi.fc2.weight), axis=2) + phi.fc2.bias

    def _pose_code(self, frame: fr.Frame, points: Tensor,
                   veq: Optional[Tensor], x: Tensor, xj: Tensor,
                   knn: np.ndarray) -> Tensor:
        """Per-edge relative-pose code, (B,N,K,D) or (B,N,K,3,C)."""
        source = self.config.rpr_source
        if source == "coordinate":
            return coordinate_pose_code(frame, points, knn)
        if source == "handcrafted-ppf":
            return handcrafted_ppf_code(points.data, knn)
        if source == "equivariant":
            projected = ad.matmul(veq, self.rpr_proj)
            return rpr_code(frame, projected, knn)
        b, n = x.shape[0], x.shape[1]
        return xj - ad.reshape(x, (b, n, 1, x.shape[-1]))

    def forward(self, points: np.ndarray,
                measure_invariance: bool = False) -> ForwardOutput:
        """Run both branches on a (B, N, 3) batch; `measure_invariance`
        re-runs the model on one rotated copy of the batch and records the
        relative logits defect."""
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
        frame, bad_fraction = self._build_frames(pts, knn_coord, pair)

        # first invariant convolution on frame-projected geometry: point i
        # and its neighbors, all seen in frame i, U_i^T p_i and U_i^T p_j
        ut = ad.swap_last_axes(frame.matrix)
        p_local = ad.reshape(ad.matmul(ut, ad.reshape(pts, (b, n, 3, 1))),
                             (b, n, 3))
        pj = ad.reshape(gather_neighbors(pts, knn_coord), (b, n, cfg.k, 3, 1))
        pj_local = ad.reshape(ad.matmul(ad.reshape(ut, (b, n, 1, 3, 3)), pj),
                              (b, n, cfg.k, 3))
        x = self._edge_conv(p_local, pj_local, self.psi)

        # later layers on a dynamic graph with optional pose gating
        for phi, gate in zip((self.phi1, self.phi2), self.gates):
            if cfg.graph_metric == "feature":
                idx = self._feature_graph(x.data)
            else:
                idx = knn_coord
            xj = gather_neighbors(x, idx)                   # (B,N,K,C)
            if gate is not None:
                code = self._pose_code(frame, pts, veq, x, xj, idx)
                xj = gate(ad.reshape(code, code.shape[:3] + (-1,))) * xj
            x = self._edge_conv(x, xj, phi)

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
            "degenerate_fraction": bad_fraction,
            "orthogonality_residual": (float(np.abs(pair.dot()).mean())
                                       if pair is not None else None),
            "consistency_axis1": mean_knn_consistency(frame, knn_coord, 1),
            "consistency_axis2": mean_knn_consistency(frame, knn_coord, 2),
        }
        out = ForwardOutput(logits_inv, logits_eqv, logits_fused, pair, frame,
                            knn_coord, diagnostics)
        if measure_invariance:
            diagnostics["invariance_defect"] = self._invariance_defect(points, out)
        return out

    def _invariance_defect(self, points: np.ndarray, reference: ForwardOutput) -> float:
        rot = sample_rotation_so3(np.random.default_rng(0))
        with ad.no_grad():
            rotated = self.forward(points @ rot.matrix.T)
        return relative_defect(rotated.prediction_logits.data,
                               reference.prediction_logits.data)

    __call__ = forward


def relative_defect(logits: np.ndarray, reference: np.ndarray) -> float:
    """max |logits - reference| / max |reference|; a NaN in either gives NaN."""
    scale = np.maximum(np.abs(reference).max(), 1e-12)
    return float(np.abs(logits - reference).max() / scale)


def mean_knn_consistency(frame: fr.Frame, knn: np.ndarray, axis: int) -> float:
    """Mean cosine between a frame axis and the same axis at each neighbor."""
    u = frame.data[..., :, axis - 1]                      # (B, N, 3)
    neighbors = gather_neighbors(Tensor(u), knn).data
    return float((u[:, :, None, :] * neighbors).sum(-1).mean())
