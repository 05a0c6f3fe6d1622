"""The rotinv benchmark: three closed-loop workloads timed from outside.

Each workload runs one client in one process: the next unit starts only
after the previous one returns.  The workload seed makes the clouds; the
model and training seeds are fixed, so the library receives only the
generated clouds.

* ``desk-train`` -- the acceptance desk model and clouds trained through
  ``harness.train_model`` with a JSON-lines sink, as ``rotinv train`` runs it.
  A unit is one SGD step, timed between consecutive sink calls.
* ``default-train`` -- the default model and cloud size through the same path.
* ``default-infer`` -- ``harness.evaluate`` on a fixed-seed default model; a
  unit is one 32-cloud batch, every cloud under a fresh SO(3) rotation.

Set-up (dataset generation, model construction, warm-up units) is repeated
SETUP_REPEATS times and the last set-up runs on into the timed loop.  With
``--trace 0`` a run reports the end-to-end metrics.  With ``--trace 1`` each
pair of units has one traced and one untraced unit, in an order a seeded
coin picks, and the run reports the per-layer table from ``tracing``.  The
correctness gate runs after the timed loop.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from rotinv import autodiff as ad
from rotinv import checks, harness
from rotinv.dataset import SHAPE_FAMILIES, DatasetSpec, generate_dataset
from rotinv.frames import DegenerateFrameError
from rotinv.network import FusionModel, ModelConfig, named_config, total_loss

import tracing

OUT_DIR = Path(".perfbench-out")
SETUP_REPEATS = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_SAMPLES = 10          # samples that must lie beyond the tail percentile
INVARIANCE_BOUND = 1e-6    # the end-to-end-invariance check's threshold
GATE_CLOUDS = 16           # clouds per default-infer batch the gate re-runs
UNIT_FAILURES = (ad.NumericError, DegenerateFrameError, harness.DivergenceError)
PROTOCOL = harness.Protocol.from_name("zso3")


@dataclass(frozen=True)
class Workload:
    name: str
    model: ModelConfig
    data: DatasetSpec
    train: Optional[harness.TrainConfig]   # None for inference
    warmup_units: int
    loss_steps: tuple[int, int] = (0, 0)   # training steps final_loss averages
    batch: int = 32                        # clouds per inference unit


TINY_MODEL = dict(vn_widths=(4, 8), inv_widths=(8, 8, 16), head_channels=2,
                  rpr_channels=2, rpr_hidden=4, classifier_hidden=8,
                  fusion_width=8, k=4)


def workloads(tiny: bool = False) -> dict[str, Workload]:
    """The workloads by name; `tiny` shrinks every size for the self-test."""
    # final_loss averages a fixed window of early steps that every run
    # completes.  Late-epoch losses depend on the seed's clouds far more
    # than any bound allows (0.76 to 1.78 after 20 desk epochs on five
    # seeds); the mean over the first 4 desk epochs has a quartile spread
    # of about 5% over ten seeds, and a model that does not learn sits
    # about 27% above it.
    wls = [
        Workload("desk-train", named_config("full", **checks.ACCEPTANCE_MODEL),
                 checks.ACCEPTANCE_DATA, checks.ACCEPTANCE_TRAIN,
                 warmup_units=8, loss_steps=(0, 32)),
        Workload("default-train", ModelConfig(), DatasetSpec(),
                 harness.TrainConfig(), warmup_units=1, loss_steps=(0, 8)),
        Workload("default-infer", ModelConfig(), DatasetSpec(), None,
                 warmup_units=1),
    ]
    if tiny:
        wls = [replace(w, model=replace(w.model, **TINY_MODEL),
                       data=replace(w.data, n_points=32, train_per_class=2,
                                    test_per_class=2),
                       train=w.train and replace(w.train, epochs=2, batch_size=4),
                       warmup_units=1, loss_steps=(0, 3), batch=4)
               for w in wls]
    return {w.name: w for w in wls}


class Stop(Exception):
    """Raised from the sink to end a training early."""


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest ladder percentile with at least
    TAIL_SAMPLES samples beyond it; the median when no percentile has."""
    for p in TAIL_LADDER:
        if len(samples) * (100.0 - p) / 100.0 >= TAIL_SAMPLES:
            break
    return p, float(np.percentile(samples, p))


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith(("ratio", "overhead")):
        return "ratio"
    return "count"


def environment() -> dict:
    """What a reader needs to compare two results or check a replay."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    rev, dirty = "unknown", None
    try:
        # only this checkout's own history; a parent directory's is not ours
        if os.path.exists(".git"):
            rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain",
                                         "--untracked-files=no"],
                                        capture_output=True, text=True, timeout=30,
                                        check=True).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: v for k, v in sorted(os.environ.items()) if "THREADS" in k},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_rev": rev,
        "git_dirty": dirty,
    }


class Run:
    """One benchmark run: set-up, the timed loop and the correctness gate."""

    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool,
                 out_dir: Path):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.tracer = tracing.Tracer() if trace else None
        self._coin = np.random.default_rng([seed, 0x74726163])
        self._order: list[bool] = []
        self._traced = False
        self._span = -1
        self.units: list[float] = []          # untraced unit seconds
        self.traced_units: list[float] = []
        self.clouds = 0
        self.failures: list[str] = []
        self.setup_s: list[float] = []
        self.generate_s: list[float] = []
        self.inputs_sha = ""
        self.loop_start = self.loop_end = 0.0
        self.gate: dict = {"passed": False}
        self.final_loss: list[float] = []

    # -- units ----------------------------------------------------------------

    def _start_unit(self) -> float:
        """Pick whether the next unit is traced, then start its clock."""
        if self.tracer is not None:
            if not self._order:
                self._order = [True, False]
                self._coin.shuffle(self._order)
            self._traced = self._order.pop()
            if self._traced:
                self.tracer.install()
        start = time.perf_counter()
        if self._traced:
            self._span = self.tracer.begin_unit(start)
        return start

    def _end_unit(self, start: float, end: float, clouds: int) -> None:
        if self._traced:
            self.tracer.end_unit(self._span, end)
            self.tracer.uninstall()
            self.traced_units.append(end - start)
        else:
            self.units.append(end - start)
        self._traced = False
        self.clouds += clouds
        self.loop_end = end

    def _fail(self, err: Exception) -> None:
        self.failures.append(f"{type(err).__name__}: {err}")
        if self._traced:
            self.tracer.end_unit(self._span, time.perf_counter())
            self.tracer.uninstall()
            self._traced = False

    def _setup(self):
        started = time.perf_counter()
        dataset = generate_dataset(replace(self.wl.data, seed=self.seed))
        self.generate_s.append(time.perf_counter() - started)
        digest = hashlib.sha256()
        for cloud in dataset.train + dataset.test:
            digest.update(cloud.points.tobytes())
        self.inputs_sha = digest.hexdigest()
        return started, dataset, FusionModel(self.wl.model)

    # -- training workloads ---------------------------------------------------

    def train(self) -> None:
        """Warm-up trainings, then trainings until the deadline has passed
        and one training has run all of `loss_steps`.

        Every training starts from the same model seed on the same clouds, so
        every loss sequence must be a bit-identical prefix of the longest.
        """
        wl, cfg = self.wl, self.wl.train
        n_train = len(SHAPE_FAMILIES) * wl.data.train_per_class
        per_epoch = math.ceil(n_train / cfg.batch_size)
        first, last = wl.loss_steps
        trainings: list[list[float]] = []
        state = {"timed": False, "done": False, "start": 0.0, "set_up": 0.0}
        path = self.out_dir / f"{wl.name}-seed{self.seed}-diagnostics.jsonl"

        with open(path, "w", encoding="ascii") as fh:
            def sink(record: dict) -> None:
                now = time.perf_counter()
                parts = record["losses"]
                if not all(math.isfinite(v) for v in parts.values()):
                    raise ad.NumericError("total_loss", "non-finite loss part")
                losses = trainings[-1]
                losses.append(parts["total"])
                if not state["timed"]:
                    if len(losses) < wl.warmup_units:
                        return
                    self.setup_s.append(now - state["set_up"])
                    if len(self.setup_s) < SETUP_REPEATS:
                        raise Stop
                    state["timed"] = True
                    self.loop_start = self.loop_end = now
                else:
                    pos = record["step"] % per_epoch
                    self._end_unit(state["start"], now,
                                   min(cfg.batch_size, n_train - pos * cfg.batch_size))
                if now - self.loop_start >= self.seconds and any(
                        len(t) >= last for t in trainings):
                    state["done"] = True
                    raise Stop
                state["start"] = self._start_unit()
                if self._traced:
                    span = self.tracer.open("harness.sink")
                fh.write(json.dumps(record) + "\n")
                if self._traced:
                    self.tracer.close(span)

            while not (state["done"] or self.failures):
                if state["timed"]:
                    model = FusionModel(wl.model)
                else:
                    state["set_up"], dataset, model = self._setup()
                trainings.append([])
                try:
                    harness.train_model(model, dataset, PROTOCOL, cfg, seed=0,
                                        jsonl_sink=sink)
                except Stop:
                    pass
                except UNIT_FAILURES as err:
                    self._fail(err)

        longest = max(trainings, key=len)
        replay = all(t == longest[:len(t)] for t in trainings)
        self.final_loss = next((t[first:last] for t in trainings if len(t) >= last), [])
        self.gate = {"passed": replay and bool(self.final_loss),
                     "replay_bit_identical": replay,
                     "trainings": len(trainings),
                     "steps": sum(map(len, trainings))}

    # -- inference workload ---------------------------------------------------

    def infer(self) -> None:
        wl = self.wl
        b = wl.batch

        def batch(unit: int) -> np.ndarray:
            return (unit * b + np.arange(b)) % len(clouds)

        def evaluate(unit: int) -> float:
            idx = batch(unit)
            return harness.evaluate(model, [clouds[i] for i in idx], labels[idx],
                                    "so3", seed=self.seed * 1_000_003 + unit,
                                    batch_size=b)

        for _ in range(SETUP_REPEATS):
            started, dataset, model = self._setup()
            clouds, labels = dataset.test, dataset.test_labels
            for unit in range(wl.warmup_units):
                evaluate(unit)
            self.setup_s.append(time.perf_counter() - started)

        self.loop_start = self.loop_end = time.perf_counter()
        unit = wl.warmup_units
        while self.loop_end - self.loop_start < self.seconds:
            start = self._start_unit()
            try:
                accuracy = evaluate(unit)
            except UNIT_FAILURES as err:
                self._fail(err)
                break
            self._end_unit(start, time.perf_counter(), b)
            if not 0.0 <= accuracy <= 1.0:
                self._fail(ValueError(f"accuracy {accuracy} out of range"))
                break
            unit += 1

        # gate: the first clouds of two fixed batches (the last warm-up
        # batch and the first timed one), so neither the gate nor final_loss
        # depends on how many units fit in the run
        rng = np.random.default_rng([self.seed, 0x67617465])
        worst, finite = 0.0, True
        cfg = model.config
        gated = [wl.warmup_units - 1, wl.warmup_units]
        for u in gated:
            idx = batch(u)[:GATE_CLOUDS]
            sample = [clouds[i] for i in idx]
            try:
                with ad.no_grad():
                    ref = model.forward(np.stack([c.points for c in sample]))
                    _, parts = total_loss(ref.logits_inv, ref.logits_eqv,
                                          ref.logits_fused, labels[idx],
                                          cfg.lambda_orth, cfg.lambda_consist,
                                          pair=ref.pair, knn=ref.knn_coord,
                                          orth_squared=cfg.orth_squared)
                # its max() skips a NaN defect, so finiteness is checked on
                # the reference forward above, not on the rotated one
                defect = harness.invariance_defect(model, sample, 1,
                                                   seed=int(rng.integers(2**32)))
            except UNIT_FAILURES as err:
                self._fail(err)
                finite = False
                break
            finite &= bool(np.isfinite(ref.prediction_logits.data).all()
                           and math.isfinite(parts["total"]))
            worst = max(worst, defect)
            self.final_loss.append(parts["total"])
        passed = finite and worst <= INVARIANCE_BOUND
        self.gate = {"passed": passed, "logits_finite": finite,
                     "invariance_defect": worst, "bound": INVARIANCE_BOUND,
                     "batches": gated, "clouds_per_batch": GATE_CLOUDS}

    # -- results ----------------------------------------------------------------

    def end_to_end(self, import_s: float) -> dict:
        units = self.units
        p, value = tail(units)
        loop = self.loop_end - self.loop_start
        return {
            "setup_s": (import_s + statistics.median(self.setup_s), "s",
                        SETUP_REPEATS, "import once plus the median of the set-ups"),
            "step_s.p50": (statistics.median(units), "s", len(units), ""),
            "step_s.tail": (value, "s", len(units), f"p{p:g}"),
            "clouds_per_s": (self.clouds / loop, "1/s", len(units),
                             f"{self.clouds} clouds in {loop:.3f} s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MiB", 1, "whole process"),
            "final_loss": (statistics.fmean(self.final_loss), "loss",
                           len(self.final_loss),
                           "mean total loss over training steps "
                           f"{self.wl.loss_steps[0]}-{self.wl.loss_steps[1] - 1}"
                           if self.wl.train else
                           "mean total loss of the untrained model on the gate batches"),
            "failed_frac": (len(self.failures) / self.attempted, "ratio",
                            self.attempted, "reported as failed/attempted"),
        }

    def per_layer(self) -> dict:
        n = len(self.traced_units)
        rows = {name: (value, unit_of(name), n, "per traced unit")
                for name, value in self.tracer.layer_table().items()}
        rows["dataset.generate_s"] = (statistics.median(self.generate_s), "s",
                                      SETUP_REPEATS, "median of the set-ups")
        rows["trace.overhead"] = (statistics.median(self.traced_units)
                                  / statistics.median(self.units) - 1.0, "ratio",
                                  n + len(self.units),
                                  "median traced unit / median untraced unit - 1")
        return rows

    @property
    def attempted(self) -> int:
        return len(self.units) + len(self.traced_units) + len(self.failures)


def parse_args(argv, names):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description="Run one rotinv benchmark workload.")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str], import_s: float, tiny: bool = False,
         out_dir: Path = OUT_DIR) -> int:
    """Run one workload, print its metrics and the result line; 0 if correct."""
    wls = workloads(tiny)
    args = parse_args(argv, sorted(wls))
    out_dir.mkdir(parents=True, exist_ok=True)
    run = Run(wls[args.workload], args.seed, args.seconds, bool(args.trace), out_dir)
    try:
        if run.wl.train is None:
            run.infer()
        else:
            run.train()
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
    if not run.gate["passed"]:
        run.failures.append("correctness gate failed")
    measured = bool(run.units and run.final_loss
                    and (run.traced_units or not args.trace))
    correct = measured and not run.failures
    detail = {}
    if measured:
        detail = run.per_layer() if args.trace else run.end_to_end(import_s)
    summary = {"correct": correct, "attempted": run.attempted,
               "failed": len(run.failures),
               "metrics": {k: {"value": v, "unit": u} for k, (v, u, _, _) in detail.items()
                           if k != "failed_frac"}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "inputs_sha256": run.inputs_sha, "gate": run.gate,
              "failures": run.failures,
              "setups_s": run.setup_s, "import_s": import_s,
              "units_s": run.units, "traced_units_s": run.traced_units,
              "metrics": {k: {"value": v, "unit": u, "n": n, "note": note}
                          for k, (v, u, n, note) in detail.items()},
              "summary": summary}
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=2))
    if args.trace:
        (out_dir / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps(run.tracer.span_records()))

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"env={json.dumps(result['environment'], sort_keys=True)}")
    print(f"gate: {json.dumps(run.gate, sort_keys=True)}")
    for failure in run.failures:
        print(f"failed unit: {failure}")
    for name, (value, unit, n, note) in detail.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} n={n:<5d} {note}")
    print(json.dumps(summary))
    return 0 if correct else 1
