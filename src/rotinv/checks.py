"""The executable property suite behind the ``check`` CLI command.

Each check returns a CheckResult; the suite passes only if every check
does.  Training-based checks run on a reduced desk profile chosen so the
whole suite finishes on one core well inside its runtime budget; a model
config and seed shared by several checks is trained once per process.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from . import frames as fr
from .dataset import DatasetSpec, SyntheticDataset, generate_dataset
from .geometry import knn_graph, sample_rotation_so3
from .gradcheck import check_tensor_gradient, directional_derivative_error
from .harness import Protocol, RunReport, TrainConfig, evaluate, run_experiment
from .network import (PROTOCOL_ROWS, FusionModel, ModelConfig, inv_edge_conv,
                      named_config, total_loss)
from .vecneuron import EquivariantEncoder, gather_neighbors, vn_edge_conv


@dataclass
class CheckResult:
    passed: bool
    statistic: float
    threshold: float
    detail: str = ""
    seconds: float = 0.0
    extra: dict = field(default_factory=dict)
    name: str = ""            # set by `_check` from the check's one name

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: stat={self.statistic:.3g} "
                f"threshold={self.threshold:.3g} ({self.seconds:.1f}s) {self.detail}")


# Reduced geometry for the trained checks: small clouds and widths keep a
# full 3-seed comparison inside the runtime budget while preserving every
# qualitative pattern being tested.  The deliberately small training split
# is where frame consistency has to carry generalization weight; the
# geometric 1-NN calibration still clears 0.8 on this spec.
ACCEPTANCE_MODEL = dict(vn_widths=(8, 16, 32), inv_widths=(32, 32, 64),
                        head_channels=4, rpr_channels=4, rpr_hidden=16,
                        classifier_hidden=64, fusion_width=64, k=10,
                        orth_squared=True)
ACCEPTANCE_DATA = DatasetSpec(n_points=48, train_per_class=16,
                              test_per_class=40, aspect_jitter=0.1, seed=7)
ACCEPTANCE_TRAIN = TrainConfig(epochs=20, batch_size=8, lr=0.01)
ACCEPTANCE_SEEDS = (0, 1, 2)


# The property suite in run order, keyed by the one name each check prints
# and `rotinv check --only` selects it by.
ALL_CHECKS: dict[str, Callable[..., CheckResult]] = {}


def _check(name: str):
    """Register a check under `name` and stamp its results with it."""
    def register(fn: Callable[..., CheckResult]) -> Callable[..., CheckResult]:
        @functools.wraps(fn)
        def named(*args, **kwargs) -> CheckResult:
            return replace(fn(*args, **kwargs), name=name)
        ALL_CHECKS[name] = named
        return named
    return register


def _random_valid_pairs(n: int, rng: np.random.Generator) -> fr.ProjectedPair:
    v = rng.standard_normal((2, n, 3))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    dot = (v[0] * v[1]).sum(-1)
    good = np.abs(dot) < 1.0 - 10 * fr.EPS_PARALLEL
    return fr.ProjectedPair.from_arrays(v[0][good], v[1][good])


@_check("frame-orthogonality")
def check_frame_orthogonality(n: int = 100_000, seed: int = 0) -> CheckResult:
    """Bisector frames have |u1 . u2| at machine-precision zero."""
    started = time.time()
    pair = _random_valid_pairs(n, np.random.default_rng(seed))
    frame = fr.lcrf_frame(pair)
    dots = (frame.data[..., :, 0] * frame.data[..., :, 1]).sum(-1)
    worst = float(np.abs(dots).max())
    return CheckResult(worst <= 1e-9, worst, 1e-9,
                       f"{pair.v1.shape[0]} pairs", time.time() - started)


@_check("equivariance")
def check_equivariance(n_pairs: int = 100, seed: int = 0) -> CheckResult:
    """The encoder co-rotates with its input and frames rotate column-wise."""
    started = time.time()
    rng = np.random.default_rng(seed)
    encoder = EquivariantEncoder(ACCEPTANCE_MODEL["vn_widths"], seed=seed)
    worst = 0.0
    for _ in range(n_pairs):
        pts = rng.standard_normal((1, 24, 3))
        rot = sample_rotation_so3(rng).matrix
        knn = knn_graph(pts[0], 6)[None]
        with ad.no_grad():
            v = encoder(ad.Tensor(pts), knn).data
            v_rot = encoder(ad.Tensor(pts @ rot.T), knn).data
        expect = np.einsum("ij,bnjc->bnic", rot, v)
        defect = np.abs(v_rot - expect).max() / max(np.abs(v).max(), 1e-12)
        worst = np.maximum(worst, defect)

        pair = _random_valid_pairs(64, rng)
        frame = fr.lcrf_frame(pair)
        frame_rot = fr.lcrf_frame(pair.rotated(rot))
        expect_frame = np.einsum("ij,njk->nik", rot, frame.data)
        defect = np.abs(frame_rot.data - expect_frame).max()
        worst = np.maximum(worst, defect)
    worst = float(worst)
    return CheckResult(worst <= 1e-9, worst, 1e-9,
                       f"{n_pairs} cloud/rotation pairs", time.time() - started)


@_check("end-to-end-invariance")
def check_end_to_end_invariance(n_rotations: int = 50, seed: int = 0) -> CheckResult:
    """Full-model logits move <= 1e-6 relative under rotation and the
    predicted class never changes."""
    started = time.time()
    dataset = generate_dataset(DatasetSpec(n_points=64, train_per_class=1,
                                           test_per_class=1, seed=seed))
    points = np.stack([c.points for c in dataset.train])
    model = FusionModel(named_config("full", **ACCEPTANCE_MODEL))
    worst, stable = model._invariance_defect(points, n_rotations,
                                             np.random.default_rng(seed))
    passed = worst <= 1e-6 and stable
    return CheckResult(passed, worst, 1e-6,
                       f"{n_rotations} rotations, classes stable={stable}",
                       time.time() - started)


@_check("consistency-identity")
def check_consistency_identity(n: int = 10_000, seed: int = 0) -> CheckResult:
    """After orthogonalizing each pair, the axis-1 frame consistency equals
    the cross inner product of the second projected vectors."""
    started = time.time()
    rng = np.random.default_rng(seed)
    pair_a = _random_valid_pairs(n, rng)
    pair_b = _random_valid_pairs(n, rng)
    m = min(pair_a.v1.shape[0], pair_b.v1.shape[0])

    def orthogonalize(p: fr.ProjectedPair) -> fr.ProjectedPair:
        v1 = p.v1.data[:m]
        v2 = p.v2.data[:m]
        v2 = v2 - (v1 * v2).sum(-1, keepdims=True) * v1
        v2 /= np.linalg.norm(v2, axis=-1, keepdims=True)
        return fr.ProjectedPair.from_arrays(v1, v2)

    a = orthogonalize(pair_a)
    b = orthogonalize(pair_b)
    frame_a = fr.lcrf_frame(a)
    frame_b = fr.lcrf_frame(b)
    lhs = fr.consistency(frame_a, frame_b, 1)
    rhs = (a.v2.data * b.v2.data).sum(-1)
    worst = float(np.abs(lhs - rhs).max())
    return CheckResult(worst <= 1e-9, worst, 1e-9,
                       f"{m} orthogonalized pairs", time.time() - started)


@_check("bisector-identities")
def check_bisector_identities(n: int = 10_000, seed: int = 0) -> CheckResult:
    """Line-by-line residuals of the orthogonality derivation are ~0."""
    started = time.time()
    pair = _random_valid_pairs(n, np.random.default_rng(seed))
    worst = fr.max_bisector_residual(pair)
    return CheckResult(worst <= 1e-9, worst, 1e-9,
                       f"{pair.v1.shape[0]} pairs", time.time() - started)


@_check("gradient-suite")
def check_gradient_suite(seed: int = 0) -> CheckResult:
    """Frame losses, layer ops, and the full training loss all match central
    finite differences."""
    started = time.time()
    rng = np.random.default_rng(seed)
    tol = 1e-4
    worst = 0.0
    details = []

    knn = knn_graph(rng.standard_normal((10, 3)), 4)[None]

    def orth(t: ad.Tensor) -> ad.Tensor:
        p = fr.ProjectedPair(ad.normalize(t[0], axis=-1), ad.normalize(t[1], axis=-1))
        return fr.orthogonality_loss(p)

    def orth_sq(t: ad.Tensor) -> ad.Tensor:
        p = fr.ProjectedPair(ad.normalize(t[0], axis=-1), ad.normalize(t[1], axis=-1))
        return fr.orthogonality_loss(p, squared=True)

    def consist(t: ad.Tensor) -> ad.Tensor:
        p = fr.ProjectedPair(ad.normalize(t[0:1], axis=-1),
                             ad.normalize(t[1:2], axis=-1))
        return fr.consistency_loss(p, knn)

    raw = rng.standard_normal((2, 10, 3))
    for name, f in [("orthogonality", orth), ("orthogonality-squared", orth_sq),
                    ("consistency", consist)]:
        err = check_tensor_gradient(f, raw)
        worst = np.maximum(worst, err)
        details.append(f"{name}={err:.2g}")

    def gs_loss(t: ad.Tensor) -> ad.Tensor:
        p = fr.ProjectedPair(ad.normalize(t[0], axis=-1), ad.normalize(t[1], axis=-1))
        frame = fr.gram_schmidt_frame(p)
        return ad.tsum(frame.matrix * frame.matrix * ad.Tensor(weights_gs))

    def bisector_loss(t: ad.Tensor) -> ad.Tensor:
        p = fr.ProjectedPair(ad.normalize(t[0], axis=-1), ad.normalize(t[1], axis=-1))
        frame = fr.lcrf_frame(p)
        return ad.tsum(frame.matrix * ad.Tensor(weights_gs))

    def addmm_loss(t: ad.Tensor) -> ad.Tensor:
        # per-point c broadcast over the neighbours, per-edge a, 2-D b
        out = ad.addmm(ad.reshape(t[0], (10, 1, 3)),
                       gather_neighbors(ad.reshape(t[1], (1, 10, 3)), knn)[0],
                       t[0, :3])
        return ad.tsum(out * ad.Tensor(weights_edge))

    def vn_edge_loss(t: ad.Tensor) -> ad.Tensor:
        # points, edge weight and direction all depend on t
        v = ad.reshape(ad.transpose(t, (1, 2, 0)), (1, 10, 3, 2))
        out = vn_edge_conv(v, knn, t[0, :4, :2], ad.reshape(t[1, 0, :2], (2, 1)))
        return ad.tsum(out * ad.Tensor(weights_vn.reshape(out.shape)))

    def frame_matrix(t: ad.Tensor) -> ad.Tensor:
        # an unconstrained 3x3 frame matrix per point
        return ad.reshape(ad.concat([t[0], t[1], t[0] * t[1]], axis=-1),
                          (1, 10, 3, 3))

    def layers(t: ad.Tensor, gate_weight: Optional[ad.Tensor] = None):
        # both layers of a 3-channel convolution, and a gate on
        # `gate_weight`, all functions of t
        fc1 = SimpleNamespace(weight=ad.reshape(t[:, 2:5], (6, 3)), bias=t[0, 5])
        fc2 = SimpleNamespace(weight=ad.transpose(t[1, 7:9], (1, 0)),
                              bias=t[0, 9, :2])
        gate = SimpleNamespace(
            fc1=SimpleNamespace(weight=gate_weight, bias=t[1, 9, :2]),
            fc2=SimpleNamespace(weight=t[0, 7:9], bias=t[0, 6] + 1.0))
        return fc1, fc2, gate

    def inv_edge_loss(t: ad.Tensor) -> ad.Tensor:
        # psi's form: the points, read in each centre's frame, the frame,
        # both weights and both biases all depend on t
        fc1, fc2, _ = layers(t)
        out = inv_edge_conv(ad.reshape(t[1] * t[1], (1, 10, 3)), knn, fc1, fc2,
                            frame=frame_matrix(t))
        return ad.tsum(out * ad.Tensor(weights_inv.reshape(out.shape)))

    def gated_edge_loss(t: ad.Tensor) -> ad.Tensor:
        # points, both layers' and the gate's weights and biases all depend
        # on t; the gate reads the edge's feature difference x_j - x_i
        fc1, fc2, gate = layers(t, ad.reshape(t[1, 5:7], (3, 2)))
        out = inv_edge_conv(ad.reshape(t[0], (1, 10, 3)), knn, fc1, fc2, gate)
        return ad.tsum(out * ad.Tensor(weights_gated.reshape(out.shape)))

    def rpr_code_loss(t: ad.Tensor) -> ad.Tensor:
        # the pose code U_i^T (v_j - v_i) inside the gated convolution: the
        # frame, two feature channels per point, the points, both layers'
        # and the gate's weights and biases all depend on t
        v = ad.reshape(ad.transpose(t, (1, 2, 0)), (1, 10, 3, 2))
        fc1, fc2, gate = layers(t, ad.reshape(t[:, 5:7], (6, 2)))
        out = inv_edge_conv(ad.reshape(t[0], (1, 10, 3)), knn, fc1, fc2, gate, v,
                            frame_matrix(t))
        return ad.tsum(out * ad.Tensor(weights_rpr.reshape(-1)[:20].reshape(out.shape)))

    weights_gs = rng.standard_normal((10, 3, 3))
    weights_edge = rng.standard_normal((10, 4, 3))
    weights_vn = rng.standard_normal((10, 3, 2))
    weights_inv = rng.standard_normal((10, 2))
    # drawn after every earlier draw, so no earlier case's inputs move
    weights_gated = rng.standard_normal((10, 2))
    weights_rpr = rng.standard_normal((10, 4, 3, 2))
    for name, f in [("gram-schmidt-frame", gs_loss), ("bisector-frame", bisector_loss),
                    ("addmm", addmm_loss), ("vn-edge-conv", vn_edge_loss),
                    ("inv-edge-conv", inv_edge_loss),
                    ("gated-inv-edge-conv", gated_edge_loss),
                    ("rpr-code", rpr_code_loss)]:
        err = check_tensor_gradient(f, raw)
        worst = np.maximum(worst, err)
        details.append(f"{name}={err:.2g}")

    # Whole-model directional derivative of the total loss, all heads active.
    # The later-layer graph is pinned to the coordinate metric here: a
    # feature-space graph re-selects neighbors under the finite-difference
    # nudge, which makes the loss discontinuous without touching any
    # gradient code this check is after.
    dataset = generate_dataset(DatasetSpec(n_points=32, train_per_class=2,
                                           test_per_class=1, seed=seed))
    points = np.stack([c.points for c in dataset.train[:4]])
    labels = dataset.train_labels[:4]
    for row in ("full", "fusion", "pose-coordinate", "pose-invariant",
                "pose-handcrafted-ppf", "frames-handcrafted", "identity-frames"):
        cfg = named_config(row, vn_widths=(4, 8), inv_widths=(8, 8, 16),
                           head_channels=2, rpr_channels=2, rpr_hidden=4,
                           classifier_hidden=8, fusion_width=8, k=4, seed=seed,
                           graph_metric="coordinate")
        model = FusionModel(cfg)

        def build_loss() -> ad.Tensor:
            out = model.forward(points)
            loss, _ = total_loss(out.logits_inv, out.logits_eqv, out.logits_fused,
                                 labels, cfg.lambda_orth, cfg.lambda_consist,
                                 pair=out.pair, knn=out.knn_coord,
                                 orth_squared=cfg.orth_squared)
            return loss

        row_worst = 0.0
        for probe in range(3):
            err = directional_derivative_error(
                build_loss, model.parameters(),
                np.random.default_rng([seed, probe]), step=1e-5)
            row_worst = np.maximum(row_worst, err)
        worst = np.maximum(worst, row_worst)
        details.append(f"{row}={row_worst:.2g}")

    worst = float(worst)
    return CheckResult(worst <= tol, worst, tol,
                       "; ".join(details), time.time() - started)


@_check("knn-bruteforce")
def check_knn_bruteforce(n_clouds: int = 200, seed: int = 0) -> CheckResult:
    """knn_graph agrees exactly with a per-row brute-force oracle, ties
    broken toward the lower index."""
    started = time.time()
    rng = np.random.default_rng(seed)
    mismatches = 0
    total = 0
    for c in range(n_clouds):
        n = int(rng.integers(8, 257))
        k = int(rng.integers(1, min(n, 17)))
        if c % 5 == 0:
            # integer lattice clouds force exact distance ties
            pts = rng.integers(0, 4, size=(n, 3)).astype(float)
        else:
            pts = rng.standard_normal((n, 3))
        graph = knn_graph(pts, k)
        for i in range(n):
            dists = []
            for j in range(n):
                if j == i:
                    continue
                diff = pts[i] - pts[j]
                dists.append((float(np.dot(diff, diff)), j))
            dists.sort()
            oracle = [j for _, j in dists[:k]]
            total += 1
            if list(graph[i]) != oracle:
                mismatches += 1
    return CheckResult(mismatches == 0, float(mismatches), 0.0,
                       f"{total} rows over {n_clouds} clouds", time.time() - started)


# ---------------------------------------------------------------------------
# trained pattern checks


@functools.cache
def _acceptance_dataset() -> SyntheticDataset:
    return generate_dataset(ACCEPTANCE_DATA)


def _experiment(row: str, seed: int, **overrides) -> tuple[RunReport, FusionModel]:
    """Train one desk-profile row under z/so3 and return its report and model."""
    return _trained(named_config(row, **{**ACCEPTANCE_MODEL, **overrides}), seed)


@functools.cache
def _trained(cfg: ModelConfig, seed: int) -> tuple[RunReport, FusionModel]:
    # keyed on the resolved config, so rows that differ only in how they
    # were spelled (fusion with its default lambda_consist) train once
    models: list = []
    report = run_experiment(cfg, Protocol("z", "so3", repeats=1),
                            _acceptance_dataset(), ACCEPTANCE_TRAIN, seed,
                            model_out=models)
    return report, models[0]


@_check("protocol-gap-pattern")
def check_protocol_gap(seed: int = 0) -> CheckResult:
    """The invariant model scores the same under z and arbitrary test
    rotations while the identity-frame baseline collapses."""
    started = time.time()
    dataset = _acceptance_dataset()
    gaps_full = []
    drops_baseline = []
    details = []
    invariant_row, baseline_row = PROTOCOL_ROWS
    for s in ACCEPTANCE_SEEDS:
        rep, model = _experiment(invariant_row, s)
        acc_so3 = rep.accuracy
        acc_z = evaluate(model, dataset.test, dataset.test_labels, "z",
                         seed=s * 1000)
        gaps_full.append(abs(acc_z - acc_so3))

        rep_b, model_b = _experiment(baseline_row, s)
        base_so3 = rep_b.accuracy
        base_z = evaluate(model_b, dataset.test, dataset.test_labels, "z",
                          seed=s * 1000)
        drops_baseline.append(base_z - base_so3)
        details.append(f"seed {s}: full z={acc_z:.2f}/so3={acc_so3:.2f}, "
                       f"baseline z={base_z:.2f}/so3={base_so3:.2f}")
    gap = float(np.mean(gaps_full))
    drop = float(np.mean(drops_baseline))
    passed = gap <= 0.03 and drop >= 0.20
    return CheckResult(passed, gap, 0.03,
                       f"baseline mean drop={drop:.2f} (needs >= 0.20); "
                       + "; ".join(details),
                       time.time() - started,
                       extra={"full_gap": gap, "baseline_drop": drop})


@_check("component-ablation-pattern")
def check_component_ablation(seed: int = 0) -> CheckResult:
    """The full model at least matches the fusion-only row, up to one
    standard deviation of the paired differences."""
    started = time.time()
    diffs = []
    details = []
    for s in ACCEPTANCE_SEEDS:
        rep_full, _ = _experiment("full", s)
        rep_fusion, _ = _experiment("fusion", s)
        diffs.append(rep_full.accuracy - rep_fusion.accuracy)
        details.append(f"seed {s}: full={rep_full.accuracy:.2f} "
                       f"fusion={rep_fusion.accuracy:.2f}")
    mean_diff = float(np.mean(diffs))
    std_diff = float(np.std(diffs))
    passed = mean_diff >= -std_diff
    flag = "" if mean_diff >= 0 else " [flag: full below fusion-only]"
    return CheckResult(passed, mean_diff, -std_diff,
                       "; ".join(details) + flag, time.time() - started,
                       extra={"mean_diff": mean_diff, "std_diff": std_diff})


@_check("consistency-training-effect")
def check_consistency_training_effect(seed: int = 0) -> CheckResult:
    """Training with the consistency loss raises the mean axis-2 frame
    consistency of the Gram-Schmidt configuration."""
    started = time.time()
    test_points = np.stack([c.points for c in _acceptance_dataset().test])
    with_loss = []
    without_loss = []
    for s in ACCEPTANCE_SEEDS:
        for lam, bucket in ((0.1, with_loss), (0.0, without_loss)):
            _, model = _experiment("fusion", s, lambda_consist=lam)
            with ad.no_grad():
                out = model.forward(test_points)
            bucket.append(out.diagnostics["consistency_axis2"])
    mean_with = float(np.mean(with_loss))
    mean_without = float(np.mean(without_loss))
    passed = mean_with > mean_without
    return CheckResult(passed,
                       mean_with - mean_without, 0.0,
                       f"axis-2 consistency with loss={mean_with:.3f}, "
                       f"without={mean_without:.3f}", time.time() - started,
                       extra={"with": with_loss, "without": without_loss})


def run_all(names: Optional[list[str]] = None,
            printer: Callable[[str], None] = print) -> list[CheckResult]:
    """Run the property suite, or the checks `names` selects, printing one
    pass/fail line per check.  An unknown name raises ValueError."""
    unknown = sorted(set(names or ()) - ALL_CHECKS.keys())
    if unknown:
        raise ValueError(f"unknown check(s) {unknown}; known: {list(ALL_CHECKS)}")
    results = []
    for name, fn in ALL_CHECKS.items():
        if names is not None and name not in names:
            continue
        started = time.time()
        try:
            result = fn()
        except Exception as exc:  # a crash is a failed check, not a crashed suite
            result = CheckResult(False, float("nan"), float("nan"),
                                 f"raised {type(exc).__name__}: {exc}",
                                 time.time() - started, name=name)
        results.append(result)
        printer(result.line())
    return results
