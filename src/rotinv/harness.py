"""Training/evaluation protocols, ablation grids, perturbation sweeps.

A protocol names the rotation augmentation used for training and testing
(``z`` spins about the vertical axis, ``so3`` is an arbitrary rotation).
Runs are deterministic: a (config, seed) pair replays to identical numbers
on a single thread.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .dataset import SyntheticDataset
from .frames import export_frames_csv, export_frames_ply
from .geometry import (PointCloud, add_gaussian_noise, as_rng, drop_points,
                       sample_rotation_so3, sample_rotation_z)
from .network import (FusionModel, ForwardOutput, ModelConfig, named_config,
                      total_loss)

PROTOCOL_NAMES = {"zz": ("z", "z"), "zso3": ("z", "so3"), "so3so3": ("so3", "so3")}


@dataclass(frozen=True)
class Protocol:
    train_rotation: str = "z"      # z | so3 | none
    test_rotation: str = "so3"     # z | so3
    repeats: int = 3

    def __post_init__(self):
        if self.train_rotation not in ("z", "so3", "none"):
            raise ValueError("train_rotation must be z, so3 or none")
        if self.test_rotation not in ("z", "so3"):
            raise ValueError("test_rotation must be z or so3")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")

    @classmethod
    def from_name(cls, name: str, repeats: int = 3) -> "Protocol":
        if name not in PROTOCOL_NAMES:
            raise ValueError(f"unknown protocol {name!r}; use zz, zso3 or so3so3")
        train, test = PROTOCOL_NAMES[name]
        return cls(train, test, repeats)

    @property
    def name(self) -> str:
        for name, pair in PROTOCOL_NAMES.items():
            if pair == (self.train_rotation, self.test_rotation):
                return name
        return f"{self.train_rotation}/{self.test_rotation}"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 16
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    clip_norm: float = 5.0  # global gradient-norm clip; 0 disables

    def __post_init__(self):
        for name in ("lr", "momentum", "weight_decay", "clip_norm"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.epochs < 1 or self.batch_size < 1 or self.lr <= 0:
            raise ValueError("epochs and batch_size must be >= 1, lr > 0")
        if self.clip_norm < 0:
            raise ValueError("clip_norm must be >= 0")


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; carries the partial report."""

    def __init__(self, report: "RunReport"):
        self.report = report
        super().__init__("training diverged (non-finite loss)")


@dataclass
class RunReport:
    model_config: dict
    protocol: str
    train_config: dict
    seed: int
    epochs: list = field(default_factory=list)
    accuracy: float = 0.0
    per_repeat_accuracy: list = field(default_factory=list)
    final_diagnostics: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0
    status: str = "ok"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls(**json.loads(text))

    def replay_digest(self) -> str:
        """Serialized content minus wall-clock, for replay comparisons."""
        payload = asdict(self)
        payload.pop("wall_clock_s")
        return json.dumps(payload, sort_keys=True)


def _clip_gradients(params, max_norm: float) -> tuple[float, bool]:
    """Scale the gradients down to a global norm of `max_norm`; returns the
    norm before clipping and whether clipping fired."""
    total = np.sqrt(sum(float((p.grad * p.grad).sum())
                        for p in params if p.grad is not None))
    clipped = bool(total > max_norm)
    if clipped:
        scale = max_norm / total
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return float(total), clipped


def _rotation(kind: str, rng: np.random.Generator) -> np.ndarray:
    if kind == "z":
        return sample_rotation_z(rng).matrix
    if kind == "so3":
        return sample_rotation_so3(rng).matrix
    return np.eye(3)


def _rotate_batch(points: np.ndarray, kind: str, rng: np.random.Generator) -> np.ndarray:
    if kind == "none":
        return points
    out = np.empty_like(points)
    for i in range(points.shape[0]):
        out[i] = points[i] @ _rotation(kind, rng).T
    return out


def _probed_forward(model: FusionModel, points: np.ndarray) -> ForwardOutput:
    """The forward pass plus the invariance probe: the relative logit
    defect of one fixed rotation, the first of `default_rng(0)`."""
    out = model.forward(points)
    out.diagnostics["invariance_defect"] = model._invariance_defect(
        points, 1, np.random.default_rng(0), out.prediction_logits.data)[0]
    return out


def _train_step(model: FusionModel, optimizer: ad.SGD, points: np.ndarray,
                labels: np.ndarray, clip_norm: float,
                probe: bool) -> tuple[dict, dict, Optional[float], bool]:
    """One SGD step: forward, loss, backward, clip, update.

    Returns only plain numbers -- the loss parts, the forward's diagnostics,
    the pre-clip gradient norm (None when clipping is off) and whether
    clipping fired -- so the step's graph is unreachable once this returns,
    before the next batch's forward builds its own.
    """
    cfg = model.config
    out = _probed_forward(model, points) if probe else model.forward(points)
    loss, parts = total_loss(out.logits_inv, out.logits_eqv, out.logits_fused,
                             labels, cfg.lambda_orth, cfg.lambda_consist,
                             pair=out.pair, knn=out.knn_coord,
                             orth_squared=cfg.orth_squared)
    if not np.isfinite(loss.data):
        raise ad.NumericError("total_loss", "training loss went non-finite")
    optimizer.zero_grad()
    ad.backward(loss, model.parameters())
    grad_norm, clipped = None, False
    if clip_norm:
        grad_norm, clipped = _clip_gradients(model.parameters(), clip_norm)
    optimizer.step()
    return parts, out.diagnostics, grad_norm, clipped


def train_model(model: FusionModel, dataset: SyntheticDataset,
                protocol: Protocol, train_cfg: TrainConfig, seed: int,
                jsonl_sink: Optional[Callable[[dict], None]] = None) -> list[dict]:
    """SGD with cosine annealing over the train split; returns epoch records.

    With `jsonl_sink`, each step also passes one record to it: losses, lr,
    wall time, pre-clip gradient norm, whether clipping fired, and the
    forward's frame diagnostics (the invariance probe on each epoch's first
    step).  Raises DivergenceError via the caller when the loss goes
    non-finite.
    """
    root = np.random.SeedSequence([seed, 0x7261696e])
    shuffle_rng, rot_rng = (np.random.default_rng(s) for s in root.spawn(2))
    points = np.stack([c.points for c in dataset.train])
    labels = dataset.train_labels
    optimizer = ad.SGD(model.parameters(), lr=train_cfg.lr,
                       momentum=train_cfg.momentum,
                       weight_decay=train_cfg.weight_decay)
    records = []
    step = 0
    for epoch in range(train_cfg.epochs):
        optimizer.lr = ad.cosine_lr(epoch, train_cfg.epochs, train_cfg.lr)
        order = shuffle_rng.permutation(len(labels))
        epoch_losses = []
        epoch_diag = {}
        for start in range(0, len(order), train_cfg.batch_size):
            started = time.perf_counter()
            batch = order[start:start + train_cfg.batch_size]
            batch_pts = _rotate_batch(points[batch], protocol.train_rotation, rot_rng)
            parts, diag, grad_norm, clipped = _train_step(
                model, optimizer, batch_pts, labels[batch],
                train_cfg.clip_norm, probe=jsonl_sink is not None and start == 0)
            step_s = time.perf_counter() - started
            epoch_losses.append(parts["total"])
            if start == 0:
                epoch_diag = diag
            if jsonl_sink is not None:
                record = {"step": step, "epoch": epoch, "lr": optimizer.lr,
                          "losses": parts,
                          "consistency_axis1": diag["consistency_axis1"],
                          "consistency_axis2": diag["consistency_axis2"],
                          "invariance_defect": diag.get("invariance_defect"),
                          "degenerate_fraction": diag["degenerate_fraction"],
                          "orthogonality_residual": diag["orthogonality_residual"],
                          "grad_norm": grad_norm, "clipped": clipped,
                          "step_s": step_s}
                jsonl_sink(record)
            step += 1
        records.append({"epoch": epoch, "lr": optimizer.lr,
                        "mean_loss": float(np.mean(epoch_losses)),
                        **{k: v for k, v in epoch_diag.items() if v is not None}})
    return records


def evaluate(model: FusionModel, clouds: list[PointCloud], labels: np.ndarray,
             rotation_kind: str, seed: int, batch_size: int = 32) -> float:
    """Accuracy under one fresh rotation per sample."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6576616c]))
    points = np.stack([c.points for c in clouds])
    rotated = _rotate_batch(points, rotation_kind, rng)
    correct = 0
    with ad.no_grad():
        for start in range(0, len(labels), batch_size):
            out = model.forward(rotated[start:start + batch_size])
            correct += int((out.predicted_classes() == labels[start:start + batch_size]).sum())
    return correct / len(labels)


def evaluate_protocol(model: FusionModel, dataset: SyntheticDataset,
                      protocol: Protocol, seed: int) -> list[float]:
    """Test accuracy under each of the protocol's repeats of fresh rotations."""
    return [evaluate(model, dataset.test, dataset.test_labels,
                     protocol.test_rotation, seed=seed * 1000 + rep)
            for rep in range(protocol.repeats)]


def run_experiment(model_cfg: ModelConfig, protocol: Protocol,
                   dataset: SyntheticDataset, train_cfg: TrainConfig,
                   seed: int, jsonl_sink: Optional[Callable[[dict], None]] = None,
                   model_out: Optional[list] = None) -> RunReport:
    """Train one model under the protocol and evaluate over its repeats."""
    started = time.time()
    model = FusionModel(replace(model_cfg, seed=seed))
    report = RunReport(model_config=asdict(model_cfg), protocol=protocol.name,
                       train_config=asdict(train_cfg), seed=seed)
    try:
        report.epochs = train_model(model, dataset, protocol, train_cfg, seed,
                                    jsonl_sink=jsonl_sink)
    except ad.NumericError:
        report.status = "diverged"
        report.wall_clock_s = time.time() - started
        raise DivergenceError(report)
    report.per_repeat_accuracy = evaluate_protocol(model, dataset, protocol, seed)
    report.accuracy = float(np.mean(report.per_repeat_accuracy))
    with ad.no_grad():
        probe = _probed_forward(model, np.stack([c.points for c in dataset.test[:4]]))
    report.final_diagnostics = {k: v for k, v in probe.diagnostics.items()
                                if v is not None}
    report.wall_clock_s = time.time() - started
    if model_out is not None:
        model_out.append(model)
    return report


def run_ablation_grid(row_names: list[str], protocol: Protocol,
                      dataset: SyntheticDataset, train_cfg: TrainConfig,
                      seed: int, **config_overrides) -> list[RunReport]:
    """One report per named row, identical dataset and seed across rows."""
    reports = []
    for name in row_names:
        cfg = named_config(name, **config_overrides)
        report = run_experiment(cfg, protocol, dataset, train_cfg, seed)
        report.model_config["row"] = name
        reports.append(report)
    return reports


DEFAULT_NOISE_SIGMAS = (0.0, 0.01, 0.02, 0.03)
DEFAULT_DROP_COUNTS = (0, 100, 200, 300)
REFERENCE_CLOUD_SIZE = 1024  # dropout counts are quoted for this size


def run_perturbation_sweep(model: FusionModel, dataset: SyntheticDataset,
                           seed: int, sigmas=DEFAULT_NOISE_SIGMAS,
                           drops=DEFAULT_DROP_COUNTS,
                           rotation_kind: str = "so3") -> list[dict]:
    """Evaluate a trained model under added noise and point dropout.

    Dropout counts are rescaled from the reference 1024-point convention to
    the dataset's cloud size.
    """
    n_points = dataset.spec.n_points
    rows = []
    for sigma in sigmas:
        noisy = [add_gaussian_noise(c, sigma, np.random.default_rng([seed, i]))
                 for i, c in enumerate(dataset.test)]
        acc = evaluate(model, noisy, dataset.test_labels, rotation_kind, seed)
        rows.append({"kind": "noise", "sigma": sigma, "n_drop": 0, "accuracy": acc})
    for drop in drops:
        scaled = int(round(drop * n_points / REFERENCE_CLOUD_SIZE))
        if scaled >= n_points:
            raise ValueError(f"drop count {drop} leaves no points")
        dropped = [drop_points(c, scaled, np.random.default_rng([seed, i]))
                   for i, c in enumerate(dataset.test)]
        acc = evaluate(model, dropped, dataset.test_labels, rotation_kind, seed)
        rows.append({"kind": "dropout", "sigma": 0.0, "n_drop": scaled,
                     "accuracy": acc})
    return rows


def export_frame_field(model: FusionModel, cloud: PointCloud, out_prefix) -> tuple[str, str]:
    """Write the model's frames for one cloud as CSV and PLY files."""
    with ad.no_grad():
        out = model.forward(cloud.points[None])
    csv_path = f"{out_prefix}.csv"
    ply_path = f"{out_prefix}.ply"
    export_frames_csv(csv_path, cloud.points, out.frames)
    export_frames_ply(ply_path, cloud.points, out.frames)
    return csv_path, ply_path


def invariance_defect(model: FusionModel, clouds: list[PointCloud],
                      n_rotations: int, seed: int) -> float:
    """Max relative change of prediction logits over random rotations;
    a NaN logit makes it NaN, never 0."""
    points = np.stack([c.points for c in clouds])
    return model._invariance_defect(points, n_rotations, as_rng(seed))[0]
