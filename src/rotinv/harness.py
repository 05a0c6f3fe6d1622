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
from .network import (FusionModel, ModelConfig, named_config, relative_defect,
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


def _clip_gradients(params, max_norm: float) -> None:
    total = np.sqrt(sum(float((p.grad * p.grad).sum())
                        for p in params if p.grad is not None))
    if total > max_norm:
        scale = max_norm / total
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale


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


def train_model(model: FusionModel, dataset: SyntheticDataset,
                protocol: Protocol, train_cfg: TrainConfig, seed: int,
                jsonl_sink: Optional[Callable[[dict], None]] = None) -> list[dict]:
    """SGD with cosine annealing over the train split; returns epoch records.

    Raises DivergenceError via the caller when the loss goes non-finite.
    """
    root = np.random.SeedSequence([seed, 0x7261696e])
    shuffle_rng, rot_rng = (np.random.default_rng(s) for s in root.spawn(2))
    points = np.stack([c.points for c in dataset.train])
    labels = dataset.train_labels
    optimizer = ad.SGD(model.parameters(), lr=train_cfg.lr,
                       momentum=train_cfg.momentum,
                       weight_decay=train_cfg.weight_decay)
    cfg = model.config
    records = []
    step = 0
    for epoch in range(train_cfg.epochs):
        optimizer.lr = ad.cosine_lr(epoch, train_cfg.epochs, train_cfg.lr)
        order = shuffle_rng.permutation(len(labels))
        epoch_losses = []
        epoch_diag = {}
        for start in range(0, len(order), train_cfg.batch_size):
            batch = order[start:start + train_cfg.batch_size]
            batch_pts = _rotate_batch(points[batch], protocol.train_rotation, rot_rng)
            measure = jsonl_sink is not None and start == 0
            out = model.forward(batch_pts, measure_invariance=measure)
            loss, parts = total_loss(out.logits_inv, out.logits_eqv,
                                     out.logits_fused, labels[batch],
                                     cfg.lambda_orth, cfg.lambda_consist,
                                     pair=out.pair, knn=out.knn_coord,
                                     orth_squared=cfg.orth_squared)
            if not np.isfinite(loss.data):
                raise ad.NumericError("total_loss", "training loss went non-finite")
            optimizer.zero_grad()
            ad.backward(loss, model.parameters())
            if train_cfg.clip_norm:
                _clip_gradients(model.parameters(), train_cfg.clip_norm)
            optimizer.step()
            epoch_losses.append(parts["total"])
            if start == 0:
                epoch_diag = dict(out.diagnostics)
            if jsonl_sink is not None:
                record = {"step": step, "epoch": epoch, "lr": optimizer.lr,
                          "losses": parts,
                          "consistency_axis1": out.diagnostics["consistency_axis1"],
                          "consistency_axis2": out.diagnostics["consistency_axis2"],
                          "invariance_defect": out.diagnostics.get("invariance_defect")}
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
    accs = [evaluate(model, dataset.test, dataset.test_labels,
                     protocol.test_rotation, seed=seed * 1000 + rep)
            for rep in range(protocol.repeats)]
    report.per_repeat_accuracy = [float(a) for a in accs]
    report.accuracy = float(np.mean(accs))
    with ad.no_grad():
        probe = model.forward(np.stack([c.points for c in dataset.test[:4]]),
                              measure_invariance=True)
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


def accuracy_gap(report_a: RunReport, report_b: RunReport) -> float:
    """|accuracy difference| between two runs; requires paired seeds."""
    if report_a.seed != report_b.seed:
        raise ValueError("accuracy gaps must be computed on paired seeds")
    return abs(report_a.accuracy - report_b.accuracy)


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
    rng = as_rng(seed)
    points = np.stack([c.points for c in clouds])
    with ad.no_grad():
        reference = model.forward(points).prediction_logits.data
        defects = []
        for _ in range(n_rotations):
            rot = sample_rotation_so3(rng).matrix
            logits = model.forward(points @ rot.T).prediction_logits.data
            defects.append(relative_defect(logits, reference))
    return float(np.max(defects, initial=0.0))
