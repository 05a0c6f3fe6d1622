import csv
import dataclasses
import functools
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from rotinv import checks, cli
from rotinv.cli import build_parser, load_configs, main, parse_config_file
from rotinv.network import named_config

TINY_CONFIG = """
# reduced profile for fast command tests
row = fusion
n_points = 32
train_per_class = 3
test_per_class = 2
epochs = 2
batch_size = 4
lr = 0.01
vn_widths = 4 8
inv_widths = 8 8 16
head_channels = 2
rpr_channels = 2
rpr_hidden = 4
classifier_hidden = 8
fusion_width = 8
k = 4
repeats = 1
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(TINY_CONFIG)
    return str(path)


def test_parse_config_file(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a = 1\n# comment\nb = two  # trailing\n\n")
    assert parse_config_file(path) == {"a": "1", "b": "two"}


def test_parse_config_rejects_bad_lines(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("just some text\n")
    with pytest.raises(ValueError):
        parse_config_file(path)


def test_parse_config_rejects_repeated_key(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("k = 8\n# comment\nk = 9\n")
    with pytest.raises(ValueError, match=r"c\.txt:3: repeated key 'k'"):
        parse_config_file(path)


@pytest.mark.parametrize("key", ["lr", "momentum", "weight_decay", "clip_norm",
                                 "lambda_orth", "lambda_consist"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_config_value_rejected(tmp_path, key, value):
    path = tmp_path / "c.txt"
    path.write_text(f"{key} = {value}\n")
    args = build_parser().parse_args(["train", "--config", str(path)])
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        load_configs(args)


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("frobnicate = 7\n")
    with pytest.raises(ValueError):
        main(["train", "--config", str(path), "--out", str(tmp_path)])


def test_unknown_row_rejected(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("row = fulll\n")
    args = build_parser().parse_args(["train", "--config", str(path)])
    with pytest.raises(ValueError, match="unknown configuration 'fulll'"):
        load_configs(args)


def test_desk_profile_is_the_acceptance_profile(tmp_path):
    model_cfg, data_spec, train_cfg, extra = load_configs(
        build_parser().parse_args(["train", "--profile", "desk"]))
    assert model_cfg == named_config("full", **checks.ACCEPTANCE_MODEL)
    assert data_spec == checks.ACCEPTANCE_DATA
    assert train_cfg == checks.ACCEPTANCE_TRAIN
    assert extra["repeats"] == 1

    path = tmp_path / "c.txt"
    path.write_text("row = fusion\nepochs = 3\nn_points = 40\nk = 6\n"
                    "repeats = 2\n")
    model_cfg, data_spec, train_cfg, extra = load_configs(
        build_parser().parse_args(["ablate", "--profile", "desk",
                                   "--config", str(path)]))
    assert model_cfg == named_config("fusion", **{**checks.ACCEPTANCE_MODEL,
                                                  "k": 6})
    assert data_spec == dataclasses.replace(checks.ACCEPTANCE_DATA, n_points=40)
    assert train_cfg == dataclasses.replace(checks.ACCEPTANCE_TRAIN, epochs=3)
    assert extra["repeats"] == 2


def test_readme_commands_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```")[1::2]
    commands = [line.split("#", 1)[0] for block in blocks
                for line in block.splitlines() if line.startswith("rotinv ")]
    assert len(commands) >= 10
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])


def test_gen_data_writes_clouds(tmp_path, config_file):
    out = tmp_path / "data"
    assert main(["gen-data", "--config", config_file, "--seed", "1",
                 "--out", str(out)]) == 0
    labels = list(csv.DictReader(open(out / "train" / "labels.csv")))
    assert len(labels) == 12
    assert (out / "train" / "cloud_00000.lcpc").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["n_points"] == 32

    out_text = tmp_path / "data_text"
    assert main(["gen-data", "--config", config_file, "--format", "text",
                 "--out", str(out_text)]) == 0
    first = open(out_text / "test" / "cloud_00000.xyz").readline()
    assert len(first.split()) == 3


def test_train_eval_perturb_export_roundtrip(tmp_path, config_file):
    run_dir = tmp_path / "run"
    assert main(["train", "--config", config_file, "--seed", "0",
                 "--protocol", "zso3", "--out", str(run_dir)]) == 0
    assert (run_dir / "model.lckp").exists()
    report = json.loads((run_dir / "report.json").read_text())
    assert report["status"] == "ok"
    assert 0.0 <= report["accuracy"] <= 1.0
    diagnostics = [json.loads(line) for line in
                   open(run_dir / "diagnostics.jsonl")]
    assert diagnostics and "losses" in diagnostics[0]
    epochs = list(csv.DictReader(open(run_dir / "epochs.csv")))
    assert len(epochs) == 2

    eval_dir = tmp_path / "eval"
    assert main(["eval", "--config", config_file, "--seed", "0",
                 "--model", str(run_dir / "model.lckp"),
                 "--protocol", "zz", "--out", str(eval_dir)]) == 0
    payload = json.loads((eval_dir / "eval.json").read_text())
    assert payload["protocol"] == "zz"
    # eval under the training protocol repeats the report's evaluation
    assert main(["eval", "--config", config_file, "--seed", "0",
                 "--model", str(run_dir / "model.lckp"),
                 "--protocol", "zso3", "--out", str(eval_dir)]) == 0
    payload = json.loads((eval_dir / "eval.json").read_text())
    assert payload["per_repeat"] == report["per_repeat_accuracy"]

    perturb_dir = tmp_path / "perturb"
    assert main(["perturb", "--config", config_file, "--seed", "0",
                 "--model", str(run_dir / "model.lckp"),
                 "--out", str(perturb_dir)]) == 0
    rows = list(csv.DictReader(open(perturb_dir / "perturbation.csv")))
    kinds = {r["kind"] for r in rows}
    assert kinds == {"noise", "dropout"}

    frames_dir = tmp_path / "frames"
    assert main(["export-frames", "--config", config_file, "--seed", "0",
                 "--model", str(run_dir / "model.lckp"),
                 "--out", str(frames_dir)]) == 0
    assert (frames_dir / "frames.csv").exists()
    assert (frames_dir / "frames.ply").exists()


def test_export_frames_reads_cloud_file(tmp_path, config_file):
    from rotinv.geometry import PointCloud
    from rotinv.pointio import write_cloud_binary
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((40, 3))
    pts -= pts.mean(axis=0)
    pts /= np.linalg.norm(pts, axis=1).max()
    cloud_path = tmp_path / "cloud.lcpc"
    write_cloud_binary(cloud_path, PointCloud(pts))
    out = tmp_path / "frames"
    assert main(["export-frames", "--config", config_file, "--seed", "0",
                 "--cloud", str(cloud_path), "--out", str(out)]) == 0
    rows = open(out / "frames.csv").read().splitlines()
    assert len(rows) == 41


def test_ablate_component_axis(tmp_path, config_file):
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", config_file, "--seed", "0",
                 "--axis", "frames", "--protocol", "zso3",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "ablation_frames.csv")))
    assert [r["row"] for r in rows] == ["frames-handcrafted",
                                        "frames-gram-schmidt", "frames-lcrf"]


def test_ablate_seeds_share_one_dataset(tmp_path, config_file, monkeypatch):
    # the config's seed sets the dataset; --seed lists the training seeds
    with open(config_file, "a") as fh:
        fh.write("seed = 5\n")
    specs = []
    cli_generate = cli.generate_dataset

    def generate(spec):
        specs.append(spec)
        return cli_generate(spec)

    monkeypatch.setattr(cli, "generate_dataset", generate)
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", config_file, "--seed", "0", "1",
                 "--axis", "protocol", "--out", str(out)]) == 0
    assert [s.seed for s in specs] == [5]
    rows = list(csv.DictReader(open(out / "ablation_protocol.csv")))
    assert [(r["row"], r["seed"]) for r in rows] == [
        ("full", "0"), ("identity-frames", "0"),
        ("full", "1"), ("identity-frames", "1")]
    reports = [json.loads(line) for line in open(out / "ablation_protocol.jsonl")]
    assert [r["seed"] for r in reports] == [0, 0, 1, 1]


def test_check_subset_passes(tmp_path):
    out = tmp_path / "checks"
    assert main(["check", "--only", "frame-orthogonality",
                 "consistency-identity", "bisector-identities",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "check_results.csv")))
    assert [r["name"] for r in rows] == ["frame-orthogonality",
                                         "consistency-identity",
                                         "bisector-identities"]
    assert all(r["passed"] == "True" for r in rows)


def test_check_names_are_the_readme_names():
    # the names `--only` selects by are the names the checks print, in the
    # order README lists them
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = readme.split("Checks, in order:")[1].split(".\n")[0]
    assert list(checks.ALL_CHECKS) == [w.strip() for w in listed.split(",")]


@pytest.mark.parametrize("names", [["nonsense-name"], ["protocol-gap"],
                                   ["frame-orthogonality", "equivalence"], []])
def test_check_only_rejects_unknown_names(names, capsys):
    # `protocol-gap` is the check function's name, not the check's; before,
    # an unknown name selected nothing and the run reported a pass
    with pytest.raises(SystemExit) as err:
        main(["check", "--only", *names])
    assert err.value.code == 2
    message = capsys.readouterr().err
    if names:
        assert "protocol-gap-pattern" in message and "frame-orthogonality" in message


def test_check_only_selects_by_printed_name(tmp_path, monkeypatch):
    ran = []

    def fake(name):
        ran.append(name)
        return checks.CheckResult(True, 0.0, 0.0, name=name)

    monkeypatch.setattr(checks, "ALL_CHECKS", {
        name: functools.partial(fake, name) for name in checks.ALL_CHECKS})
    assert main(["check", "--only", "protocol-gap-pattern",
                 "--out", str(tmp_path)]) == 0
    assert ran == ["protocol-gap-pattern"]
    with pytest.raises(ValueError, match="protocol-gap-pattern"):
        checks.run_all(["protocol-gap"])


def test_check_selecting_nothing_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(checks, "ALL_CHECKS", {})
    assert main(["check", "--out", str(tmp_path)]) == 1
    assert "passed" not in capsys.readouterr().out


@pytest.mark.parametrize("flag,value", [("--config", "x"), ("--seed", "1"),
                                        ("--profile", "desk")])
def test_check_rejects_config_flags(flag, value):
    # the property suite is fixed; a flag it would ignore is an error
    with pytest.raises(SystemExit) as err:
        main(["check", flag, value])
    assert err.value.code == 2


def test_check_reports_failure_exit_code(tmp_path, monkeypatch):
    from rotinv import checks

    def failing():
        return checks.CheckResult(False, 1.0, 0.0, name="frame-orthogonality")

    monkeypatch.setattr(checks, "ALL_CHECKS", {"frame-orthogonality": failing})
    assert main(["check", "--out", str(tmp_path)]) == 1
