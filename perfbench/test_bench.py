"""Self-test of the benchmark at a tiny size.

    PYTHONPATH=src python3 -m pytest perfbench -q

Checks that every metric in BENCHMARK.json is printed with its unit and
sample count, that the result file matches the schema, that the seed decides
the inputs, and that tape op counts repeat exactly between runs.
"""
import json
import math
import re
from pathlib import Path

import pytest

import bench
import tracing

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SELF_TIMES = ("autodiff.backward_s", "autodiff.optimizer_s", "vecneuron.encoder_s",
              "network.forward_self_s", "network.loss_self_s", "geometry.knn_s",
              "frames.build_s", "frames.loss_s", "harness.other_s",
              "trace.unaccounted_s")


def run_tiny(tmp_path, capsys, workload, seed, trace):
    out = tmp_path / f"{workload}-{seed}-{trace}"
    code = bench.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", "0.3", "--trace", str(trace)],
                      import_s=0.0, tiny=True, out_dir=out)
    stdout = capsys.readouterr().out
    result = json.loads((out / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return code, stdout, result


def test_spec_follows_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert set(bench.workloads()) == set(WORKLOADS)
    names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,table", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_metric_with_unit(tmp_path, capsys, workload, trace, table):
    code, stdout, result = run_tiny(tmp_path, capsys, workload, 3, trace)
    assert code == 0, stdout
    last = json.loads(stdout.strip().splitlines()[-1])
    assert last == result["summary"]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[table]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    for name, unit in expected.items():
        value = last["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value)
        assert result["metrics"][name]["n"] >= 1
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s+n=\d+",
                         stdout, re.M), name
    if trace == 0:
        assert "failed_frac" in result["metrics"]
    else:
        # every span lies under a step, so the self times add up to it
        value = {k: v["value"] for k, v in last["metrics"].items()}
        parts = sum(value[k] for k in SELF_TIMES)
        assert parts == pytest.approx(value["trace.step_s"], rel=1e-9)
    env = result["environment"]
    for key in ("python", "numpy", "blas", "threads", "nproc", "cpu_model",
                "git_rev", "git_dirty"):
        assert key in env


def test_seed_decides_inputs(tmp_path, capsys):
    _, _, first = run_tiny(tmp_path / "a", capsys, "desk-train", 5, 0)
    _, _, again = run_tiny(tmp_path / "b", capsys, "desk-train", 5, 0)
    _, _, other = run_tiny(tmp_path / "c", capsys, "desk-train", 6, 0)
    assert first["inputs_sha256"] == again["inputs_sha256"]
    assert first["inputs_sha256"] != other["inputs_sha256"]
    assert (first["metrics"]["final_loss"]["value"]
            == again["metrics"]["final_loss"]["value"])
    assert (first["metrics"]["final_loss"]["value"]
            != other["metrics"]["final_loss"]["value"])


def test_tape_counts_repeat(tmp_path, capsys):
    counted = [m["name"] for m in SPEC["per_layer"]
               if m["unit"] == "count" or m["name"] == "autodiff.tape_mb"]
    runs = [run_tiny(tmp_path / str(i), capsys, "desk-train", 3, 1)[2]
            for i in range(2)]
    tables = [{n: r["metrics"][n]["value"] for n in counted} for r in runs]
    assert tables[0] == tables[1]
    assert tables[0]["autodiff.tape_nodes"] > 0


def test_inference_records_no_tape(tmp_path, capsys):
    _, _, result = run_tiny(tmp_path, capsys, "default-infer", 3, 1)
    assert result["metrics"]["autodiff.tape_nodes"]["value"] == 0
    assert result["metrics"]["autodiff.backward_s"]["value"] == 0
    # one coordinate kNN per cloud of the unit; the gate's forwards after
    # the timed loop are not traced
    batch = bench.workloads(tiny=True)["default-infer"].batch
    assert result["metrics"]["geometry.knn_calls"]["value"] == batch


def test_tracer_restores_entry_points():
    tracer = tracing.Tracer()
    before = [getattr(owner, attr) for owner, attr, _ in tracing.ENTRY_POINTS]
    tracer.install()
    assert all(getattr(owner, attr) is not fn for (owner, attr, _), fn
               in zip(tracing.ENTRY_POINTS, before))
    tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr, _ in tracing.ENTRY_POINTS] == before


def test_failed_gate_fails_the_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench, "INVARIANCE_BOUND", -1.0)
    code, stdout, result = run_tiny(tmp_path, capsys, "default-infer", 3, 0)
    last = json.loads(stdout.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] == 1
    assert result["gate"]["passed"] is False
