"""Command-line interface.

Subcommands: gen-data, train, eval, ablate, perturb, export-frames, check.
Shared flags of every command but check: --config (key = value text
file), --profile, --seed, --out, --protocol.  check takes only --only and
--out, and exits nonzero if any property fails.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import checks as checks_module
from .dataset import DatasetSpec, generate_dataset
from .geometry import PointCloud
from .harness import (DivergenceError, Protocol, TrainConfig,
                      evaluate_protocol, export_frame_field, run_ablation_grid,
                      run_experiment, run_perturbation_sweep)
from .network import (COMPONENT_ABLATION_ROWS, FRAME_ABLATION_ROWS,
                      POSE_ABLATION_ROWS, PROTOCOL_ROWS, FusionModel,
                      ModelConfig, named_config)
from .pointio import read_cloud, write_cloud

# Base layers under the config file: model overrides applied to the row,
# dataset, training settings and evaluation repeats.  `desk` is the reduced
# profile of the property suite's trained checks.
PROFILES = {
    "default": ({}, DatasetSpec(), TrainConfig(), 3),
    "desk": (checks_module.ACCEPTANCE_MODEL, checks_module.ACCEPTANCE_DATA,
             checks_module.ACCEPTANCE_TRAIN, 1),
}

ABLATION_AXES = {"components": COMPONENT_ABLATION_ROWS,
                 "frames": FRAME_ABLATION_ROWS,
                 "pose": POSE_ABLATION_ROWS,
                 "protocol": PROTOCOL_ROWS}


def parse_config_file(path) -> dict[str, str]:
    """Unique `key = value` lines; '#' starts a comment, blanks are ignored."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{line_no}: expected 'key = value'")
            key, value = (part.strip() for part in text.split("=", 1))
            if key in values:
                raise ValueError(f"{path}:{line_no}: repeated key {key!r}")
            values[key] = value
    return values


def _coerce(value: str, target_type):
    if target_type is bool:
        if value.lower() in ("true", "1", "yes", "on"):
            return True
        if value.lower() in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    if target_type is int:
        return int(value)
    if target_type is float:
        return float(value)
    if target_type in (tuple, "tuple"):
        return tuple(int(v) for v in value.replace(",", " ").split())
    return value


def apply_overrides(instance, overrides: dict[str, str], used: set[str]):
    """Fill dataclass fields from the flat config mapping (by field name)."""
    updates = {}
    for f in dataclasses.fields(instance):
        if f.name in overrides:
            kind = tuple if "widths" in f.name else type(getattr(instance, f.name))
            updates[f.name] = _coerce(overrides[f.name], kind)
            used.add(f.name)
    return dataclasses.replace(instance, **updates) if updates else instance


def load_configs(args) -> tuple[ModelConfig, DatasetSpec, TrainConfig, dict]:
    """The profile's configs with the config file's keys on top; `--seed`
    then sets both the model and the dataset seed (ablate's `--seed` lists
    training seeds only and is read by the command)."""
    raw = parse_config_file(args.config) if args.config else {}
    model_base, data_spec, train_cfg, repeats = PROFILES[args.profile]
    used = {"row", "repeats"}
    row = raw.get("row", "full")
    model_cfg = apply_overrides(named_config(row, **model_base), raw, used)
    data_spec = apply_overrides(data_spec, raw, used)
    train_cfg = apply_overrides(train_cfg, raw, used)
    extras = sorted(set(raw) - used)
    if extras:
        raise ValueError(f"unknown config keys: {extras}")
    if getattr(args, "seed", None) is not None:
        model_cfg = dataclasses.replace(model_cfg, seed=args.seed)
        data_spec = dataclasses.replace(data_spec, seed=args.seed)
    repeats = int(raw.get("repeats", repeats))
    return model_cfg, data_spec, train_cfg, {"row": row, "repeats": repeats}


def _out_dir(args) -> Path:
    out = Path(args.out or "runs")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path, rows: list[dict]) -> None:
    if not rows:
        return
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def cmd_gen_data(args) -> int:
    _, data_spec, _, _ = load_configs(args)
    out = _out_dir(args)
    dataset = generate_dataset(data_spec)
    suffix = ".lcpc" if args.format == "binary" else ".xyz"
    for split, clouds in (("train", dataset.train), ("test", dataset.test)):
        split_dir = out / split
        split_dir.mkdir(exist_ok=True)
        rows = []
        for i, cloud in enumerate(clouds):
            name = f"cloud_{i:05d}{suffix}"
            write_cloud(split_dir / name, cloud)
            rows.append({"file": name, "label": cloud.label})
        _write_csv(split_dir / "labels.csv", rows)
    meta = dataclasses.asdict(data_spec)
    (out / "meta.json").write_text(json.dumps(meta, indent=2))
    print(f"wrote {len(dataset.train)} train / {len(dataset.test)} test clouds to {out}")
    return 0


def cmd_train(args) -> int:
    model_cfg, data_spec, train_cfg, extra = load_configs(args)
    out = _out_dir(args)
    protocol = Protocol.from_name(args.protocol, repeats=extra["repeats"])
    dataset = generate_dataset(data_spec)
    models: list[FusionModel] = []
    jsonl_path = out / "diagnostics.jsonl"
    with open(jsonl_path, "w", encoding="ascii") as fh:
        def sink(record):
            fh.write(json.dumps(record) + "\n")
        try:
            report = run_experiment(model_cfg, protocol, dataset, train_cfg,
                                    seed=model_cfg.seed, jsonl_sink=sink,
                                    model_out=models)
        except DivergenceError as err:
            (out / "report.json").write_text(err.report.to_json())
            print("training diverged; diagnostic report written", file=sys.stderr)
            return 1
    models[0].save(out / "model.lckp")
    (out / "report.json").write_text(report.to_json())
    _write_csv(out / "epochs.csv", report.epochs)
    print(f"accuracy ({protocol.name}): {report.accuracy:.4f}  "
          f"[{out / 'model.lckp'}]")
    return 0


def cmd_eval(args) -> int:
    model_cfg, data_spec, _, extra = load_configs(args)
    protocol = Protocol.from_name(args.protocol, repeats=extra["repeats"])
    dataset = generate_dataset(data_spec)
    model = FusionModel(model_cfg)
    model.load(args.model)
    accs = evaluate_protocol(model, dataset, protocol, model_cfg.seed)
    out = _out_dir(args)
    payload = {"protocol": protocol.name, "accuracy": float(np.mean(accs)),
               "per_repeat": accs}
    (out / "eval.json").write_text(json.dumps(payload, indent=2))
    print(f"accuracy ({protocol.name}): {payload['accuracy']:.4f}")
    return 0


def cmd_ablate(args) -> int:
    model_cfg, data_spec, train_cfg, extra = load_configs(args)
    out = _out_dir(args)
    protocol = Protocol.from_name(args.protocol, repeats=extra["repeats"])
    dataset = generate_dataset(data_spec)
    overrides = {f.name: getattr(model_cfg, f.name)
                 for f in dataclasses.fields(ModelConfig)
                 if f.name not in ("frame_kind", "rpr_source", "fusion", "seed")}
    reports = []
    for seed in args.seeds or [model_cfg.seed]:
        for r in run_ablation_grid(list(ABLATION_AXES[args.axis]), protocol,
                                   dataset, train_cfg, seed=seed, **overrides):
            print(f"seed={seed} {r.model_config['row']:24s} "
                  f"accuracy={r.accuracy:.4f}")
            reports.append(r)
    summary = [{"row": r.model_config["row"], "seed": r.seed,
                "accuracy": r.accuracy,
                "consistency_axis2": r.final_diagnostics.get("consistency_axis2"),
                "wall_clock_s": round(r.wall_clock_s, 1)} for r in reports]
    _write_csv(out / f"ablation_{args.axis}.csv", summary)
    with open(out / f"ablation_{args.axis}.jsonl", "w") as fh:
        for r in reports:
            fh.write(r.to_json() + "\n")
    print("\nmean over seeds:")
    for row in ABLATION_AXES[args.axis]:
        accs = [r["accuracy"] for r in summary if r["row"] == row]
        print(f"{row:24s} {np.mean(accs):.4f} +- {np.std(accs):.4f}")
    return 0


def cmd_perturb(args) -> int:
    model_cfg, data_spec, _, _ = load_configs(args)
    dataset = generate_dataset(data_spec)
    model = FusionModel(model_cfg)
    model.load(args.model)
    rows = run_perturbation_sweep(model, dataset, seed=model_cfg.seed)
    out = _out_dir(args)
    _write_csv(out / "perturbation.csv", rows)
    for row in rows:
        tag = (f"sigma={row['sigma']}" if row["kind"] == "noise"
               else f"n_drop={row['n_drop']}")
        print(f"{row['kind']:8s} {tag:12s} accuracy={row['accuracy']:.4f}")
    return 0


def cmd_export_frames(args) -> int:
    model_cfg, data_spec, _, _ = load_configs(args)
    model = FusionModel(model_cfg)
    if args.model:
        model.load(args.model)
    if args.cloud:
        cloud = read_cloud(args.cloud)
    else:
        dataset = generate_dataset(data_spec)
        cloud = dataset.test[0]
    out = _out_dir(args)
    csv_path, ply_path = export_frame_field(model, cloud, out / "frames")
    print(f"wrote {csv_path} and {ply_path}")
    return 0


def cmd_check(args) -> int:
    results = checks_module.run_all(names=args.only)
    if not results:
        print("FAILED: no check selected", file=sys.stderr)
        return 1
    out = _out_dir(args)
    rows = [{"name": r.name, "passed": r.passed, "statistic": r.statistic,
             "threshold": r.threshold, "seconds": round(r.seconds, 2)}
            for r in results]
    _write_csv(out / "check_results.csv", rows)
    with open(out / "check_results.jsonl", "w") as fh:
        for r in results:
            fh.write(json.dumps({"name": r.name, "passed": r.passed,
                                 "statistic": r.statistic,
                                 "threshold": r.threshold,
                                 "detail": r.detail,
                                 "seconds": r.seconds}) + "\n")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotinv",
        description="Rotation-invariant point-cloud learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, protocol=True, seeds=False):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--profile", choices=sorted(PROFILES), default="default",
                       help="base configs under --config (default: default)")
        if seeds:
            p.add_argument("--seed", dest="seeds", type=int, nargs="+",
                           help="training seeds, all over one dataset whose "
                                "seed comes from the profile or --config")
        else:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output directory (default: runs/)")
        if protocol:
            p.add_argument("--protocol", choices=("zz", "zso3", "so3so3"),
                           default="zso3")

    p = sub.add_parser("gen-data", help="write a synthetic dataset to disk")
    common(p, protocol=False)
    p.add_argument("--format", choices=("binary", "text"), default="binary")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train one model under a protocol")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint under a protocol")
    common(p)
    p.add_argument("--model", required=True, help="checkpoint path (.lckp)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run one ablation axis")
    common(p, seeds=True)
    p.add_argument("--axis", choices=sorted(ABLATION_AXES),
                   default="components")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("perturb", help="noise/dropout sweep for a checkpoint")
    common(p, protocol=False)
    p.add_argument("--model", required=True, help="checkpoint path (.lckp)")
    p.set_defaults(fn=cmd_perturb)

    p = sub.add_parser("export-frames", help="write a frame field as CSV + PLY")
    common(p, protocol=False)
    p.add_argument("--model", help="optional checkpoint; fresh weights otherwise")
    p.add_argument("--cloud", help="optional cloud file; synthetic otherwise")
    p.set_defaults(fn=cmd_export_frames)

    p = sub.add_parser("check", help="run the property suite (nonzero exit on failure)")
    p.add_argument("--out", help="output directory (default: runs/)")
    p.add_argument("--only", nargs="+", choices=list(checks_module.ALL_CHECKS),
                   metavar="NAME", help="run only the named checks: "
                   + ", ".join(checks_module.ALL_CHECKS))
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
