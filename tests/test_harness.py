import json
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from rotinv import autodiff as ad
from rotinv import checks
from rotinv.dataset import DatasetSpec, generate_dataset
from rotinv.harness import (DivergenceError, Protocol, RunReport, TrainConfig,
                            evaluate, export_frame_field, invariance_defect,
                            run_ablation_grid, run_experiment,
                            run_perturbation_sweep, train_model)
from rotinv.network import FusionModel, named_config

from conftest import TINY_MODEL

QUICK_TRAIN = TrainConfig(epochs=2, batch_size=4, lr=0.01)


def accuracy_gap(report_a: RunReport, report_b: RunReport) -> float:
    """|accuracy difference| between two runs; requires paired seeds."""
    if report_a.seed != report_b.seed:
        raise ValueError("accuracy gaps must be computed on paired seeds")
    return abs(report_a.accuracy - report_b.accuracy)


@pytest.fixture(scope="module")
def quick_dataset():
    return generate_dataset(DatasetSpec(n_points=32, train_per_class=4,
                                        test_per_class=2, seed=3))


class TestProtocol:
    def test_names_parse(self):
        assert Protocol.from_name("zz").test_rotation == "z"
        assert Protocol.from_name("zso3").train_rotation == "z"
        assert Protocol.from_name("so3so3").train_rotation == "so3"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            Protocol.from_name("zzz")

    def test_validation(self):
        with pytest.raises(ValueError):
            Protocol(train_rotation="x")
        with pytest.raises(ValueError):
            Protocol(test_rotation="none")
        with pytest.raises(ValueError):
            Protocol(repeats=0)

    def test_round_trip_name(self):
        assert Protocol.from_name("zso3").name == "zso3"


class TestTraining:
    def test_loss_decreases(self, quick_dataset):
        model = FusionModel(named_config("identity-frames", **TINY_MODEL))
        records = train_model(model, quick_dataset, Protocol("none", "z"),
                              TrainConfig(epochs=6, batch_size=4, lr=0.01),
                              seed=0)
        assert records[-1]["mean_loss"] < records[0]["mean_loss"]

    def test_divergence_raises_with_report(self, quick_dataset):
        cfg = named_config("identity-frames", **TINY_MODEL)
        huge = TrainConfig(epochs=4, batch_size=4, lr=1e18, clip_norm=0.0)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            run_experiment(cfg, Protocol("none", "z", repeats=1),
                           quick_dataset, huge, seed=0)
        assert err.value.report.status == "diverged"

    def test_jsonl_sink_records(self, quick_dataset):
        model = FusionModel(named_config("fusion", **TINY_MODEL))
        records = []
        train_model(model, quick_dataset, Protocol("z", "so3"), QUICK_TRAIN,
                    seed=0, jsonl_sink=records.append)
        assert len(records) == 2 * 4  # epochs x batches
        first = records[0]
        for key in ("step", "epoch", "lr", "losses", "consistency_axis1",
                    "consistency_axis2", "invariance_defect"):
            assert key in first
        assert first["invariance_defect"] is not None  # probed on first batch
        assert json.dumps(records[0])  # serializable

    def test_step_graph_released_before_next_forward(self, quick_dataset):
        model = FusionModel(named_config("full", **TINY_MODEL))
        forward = model.forward
        last = []       # weakref to the latest forward's prediction logits
        alive = []      # was it still alive when the next forward or sink ran?

        def tracked_forward(*args, **kwargs):
            # the epoch probe's untaped forwards belong to the step whose
            # tape they compare against; only training forwards are tracked
            if not ad._grad_enabled:
                return forward(*args, **kwargs)
            alive.extend(ref() is not None for ref in last[-1:])
            out = forward(*args, **kwargs)
            last.append(weakref.ref(out.prediction_logits))
            return out

        def sink(record):
            alive.append(last[-1]() is not None)

        model.forward = tracked_forward
        train_model(model, quick_dataset, Protocol("z", "so3"), QUICK_TRAIN,
                    seed=0, jsonl_sink=sink)
        # 8 sink calls, and the 7 training forwards after the first
        assert len(alive) == 8 + 7
        assert not any(alive)

    @pytest.mark.parametrize("clip_norm", [0.0, 0.05, 5.0])
    def test_step_records_clip_and_frame_fields(self, quick_dataset, clip_norm):
        model = FusionModel(named_config("full", **TINY_MODEL))
        records = []
        train_model(model, quick_dataset, Protocol("z", "so3"),
                    replace(QUICK_TRAIN, clip_norm=clip_norm), seed=0,
                    jsonl_sink=records.append)
        for r in records:
            assert 0.0 <= r["degenerate_fraction"] <= 1.0
            assert r["orthogonality_residual"] >= 0.0
            assert r["step_s"] > 0.0
            if clip_norm:
                assert r["grad_norm"] > 0.0
                assert r["clipped"] is (r["grad_norm"] > clip_norm)
            else:
                assert r["grad_norm"] is None and r["clipped"] is False
        assert json.dumps(records)
        if clip_norm == 0.05:
            assert all(r["clipped"] for r in records)


class TestRunExperiment:
    def test_report_replay_bit_identical(self, quick_dataset):
        cfg = named_config("fusion", **TINY_MODEL)
        protocol = Protocol("z", "so3", repeats=2)
        a = run_experiment(cfg, protocol, quick_dataset, QUICK_TRAIN, seed=1)
        b = run_experiment(cfg, protocol, quick_dataset, QUICK_TRAIN, seed=1)
        assert a.replay_digest() == b.replay_digest()

    def test_report_serialization_roundtrip(self, quick_dataset):
        cfg = named_config("identity-frames", **TINY_MODEL)
        report = run_experiment(cfg, Protocol("none", "z", repeats=1),
                                quick_dataset, QUICK_TRAIN, seed=2)
        back = RunReport.from_json(report.to_json())
        assert back.accuracy == report.accuracy
        assert back.replay_digest() == report.replay_digest()

    def test_final_probe_is_the_invariance_defect_helper(self, quick_dataset):
        models = []
        report = run_experiment(named_config("full", **TINY_MODEL),
                                Protocol("z", "so3", repeats=1), quick_dataset,
                                QUICK_TRAIN, seed=0, model_out=models)
        assert report.final_diagnostics["invariance_defect"] == invariance_defect(
            models[0], quick_dataset.test[:4], 1, seed=0)

    def test_accuracy_gap_requires_paired_seeds(self, quick_dataset):
        cfg = named_config("identity-frames", **TINY_MODEL)
        a = run_experiment(cfg, Protocol("none", "z", repeats=1),
                           quick_dataset, QUICK_TRAIN, seed=1)
        b = run_experiment(cfg, Protocol("none", "z", repeats=1),
                           quick_dataset, QUICK_TRAIN, seed=2)
        with pytest.raises(ValueError):
            accuracy_gap(a, b)
        assert accuracy_gap(a, a) == 0.0


class TestAblationGrid:
    def test_rows_share_dataset_and_seed(self, quick_dataset):
        reports = run_ablation_grid(["identity-frames", "baseline"],
                                    Protocol("none", "z", repeats=1),
                                    quick_dataset, QUICK_TRAIN, seed=4,
                                    **TINY_MODEL)
        assert [r.model_config["row"] for r in reports] == ["identity-frames",
                                                            "baseline"]
        assert all(r.seed == 4 for r in reports)
        assert all(r.status == "ok" for r in reports)

    def test_frame_rows_complete_without_degenerate_aborts(self, quick_dataset):
        reports = run_ablation_grid(
            ["frames-handcrafted", "frames-gram-schmidt", "frames-lcrf"],
            Protocol("z", "so3", repeats=1), quick_dataset, QUICK_TRAIN,
            seed=0, **TINY_MODEL)
        assert all(r.status == "ok" for r in reports)
        for r in reports:
            assert "consistency_axis2" in r.final_diagnostics


class TestEvaluation:
    def test_z_rotations_keep_vertical_axis(self, quick_dataset):
        # the z protocol must never move the third axis: train with z
        # rotations and compare against manual z rotations of the points
        from rotinv.harness import _rotate_batch
        rng = np.random.default_rng(0)
        pts = np.stack([c.points for c in quick_dataset.test])
        rotated = _rotate_batch(pts, "z", rng)
        np.testing.assert_allclose(rotated[..., 2], pts[..., 2], atol=1e-12)

    def test_invariance_defect_helper(self, quick_dataset):
        model = FusionModel(named_config("full", **TINY_MODEL))
        defect = invariance_defect(model, quick_dataset.test[:2],
                                   n_rotations=5, seed=0)
        assert defect <= 1e-6
        sensitive = FusionModel(named_config("identity-frames", **TINY_MODEL))
        assert invariance_defect(sensitive, quick_dataset.test[:2],
                                 n_rotations=5, seed=0) > 1e-3

    def test_invariance_defect_propagates_nan(self, quick_dataset):
        # finite reference logits, all-NaN logits on every rotated copy
        model = NanOnRotationModel()
        defect = invariance_defect(model, quick_dataset.test[:2],
                                   n_rotations=3, seed=0)
        assert np.isnan(defect)

    def test_end_to_end_check_fails_on_nan_logits(self, monkeypatch):
        monkeypatch.setattr(checks, "FusionModel",
                            lambda cfg: NanOnRotationModel())
        result = checks.check_end_to_end_invariance(n_rotations=2, seed=0)
        assert not result.passed
        assert np.isnan(result.statistic)
        assert "stable=False" in result.detail

    def test_equivariance_check_fails_on_nan_encoder_defect(self, monkeypatch):
        class NanEncoder:
            def __init__(self, widths, seed):
                pass

            def __call__(self, points, knn):
                return SimpleNamespace(data=np.full(points.shape + (2,), np.nan))

        monkeypatch.setattr(checks, "EquivariantEncoder", NanEncoder)
        result = checks.check_equivariance(n_pairs=2, seed=0)
        assert not result.passed and np.isnan(result.statistic)

    def test_equivariance_check_fails_on_nan_frame_defect(self, monkeypatch):
        monkeypatch.setattr(checks.fr, "lcrf_frame",
                            lambda pair: SimpleNamespace(
                                data=np.full(pair.v1.shape + (3,), np.nan)))
        result = checks.check_equivariance(n_pairs=2, seed=0)
        assert not result.passed and np.isnan(result.statistic)

    @pytest.mark.parametrize("oracle", ("check_tensor_gradient",
                                        "directional_derivative_error"))
    def test_gradient_suite_fails_on_nan_error(self, monkeypatch, oracle):
        # one oracle reports NaN for every case and the other 0: the NaN is
        # the suite's statistic, whichever loop saw it
        for name in ("check_tensor_gradient", "directional_derivative_error"):
            monkeypatch.setattr(checks, name,
                                lambda *args, nan=name == oracle, **kw:
                                np.nan if nan else 0.0)
        result = checks.check_gradient_suite(seed=0)
        assert not result.passed and np.isnan(result.statistic)


class TestAcceptanceTrainings:
    @pytest.fixture
    def stub_runs(self, monkeypatch):
        runs = []

        def fake_run(cfg, protocol, dataset, train_cfg, seed, model_out):
            runs.append((cfg, seed))
            model_out.append(object())
            return SimpleNamespace(accuracy=0.5)

        monkeypatch.setattr(checks, "run_experiment", fake_run)
        checks._trained.cache_clear()
        yield runs
        checks._trained.cache_clear()

    def test_equal_configs_train_once(self, stub_runs):
        # fusion's default lambda_consist is 0.1, so these two are one run
        plain = checks._experiment("fusion", 0)
        spelled = checks._experiment("fusion", 0, lambda_consist=0.1)
        assert spelled is plain
        checks._experiment("fusion", 0, lambda_consist=0.0)
        checks._experiment("fusion", 1)
        assert [seed for _, seed in stub_runs] == [0, 0, 1]
        assert stub_runs[0][0].lambda_consist == 0.1
        assert stub_runs[1][0].lambda_consist == 0.0


class NanOnRotationModel:
    """Stub model: class-0 logits on its first forward, NaN afterwards;
    it measures invariance with the real model's loop."""

    _invariance_defect = FusionModel._invariance_defect

    def __init__(self):
        self.calls = 0

    def forward(self, points):
        self.calls += 1
        logits = np.zeros((len(points), 4))
        logits[:, 0] = 1.0
        if self.calls > 1:
            logits[:] = np.nan
        return SimpleNamespace(prediction_logits=SimpleNamespace(data=logits))


class TestPerturbationSweep:
    def test_zero_perturbation_reproduces_clean_accuracy(self, quick_dataset):
        model = FusionModel(named_config("fusion", **TINY_MODEL))
        rows = run_perturbation_sweep(model, quick_dataset, seed=0,
                                      sigmas=(0.0, 0.02), drops=(0,))
        clean = evaluate(model, quick_dataset.test, quick_dataset.test_labels,
                         "so3", seed=0)
        noise_rows = [r for r in rows if r["kind"] == "noise"]
        assert noise_rows[0]["sigma"] == 0.0
        assert noise_rows[0]["accuracy"] == pytest.approx(clean)
        # the dropout rows draw the same rotation stream as the clean run
        drop_rows = [r for r in rows if r["kind"] == "dropout"]
        assert drop_rows[0]["n_drop"] == 0
        assert drop_rows[0]["accuracy"] == pytest.approx(clean)

    def test_drop_counts_rescaled(self, quick_dataset):
        model = FusionModel(named_config("fusion", **TINY_MODEL))
        rows = run_perturbation_sweep(model, quick_dataset, seed=0,
                                      sigmas=(), drops=(0, 100, 200, 300))
        drops = [r["n_drop"] for r in rows]
        # 32-point clouds: the 1024-point convention rescales to 0,3,6,9
        assert drops == [0, 3, 6, 9]


class TestFrameExport:
    def test_files_written(self, tmp_path, quick_dataset):
        model = FusionModel(named_config("full", **TINY_MODEL))
        csv_path, ply_path = export_frame_field(model, quick_dataset.test[0],
                                                tmp_path / "field")
        csv_lines = open(csv_path).read().splitlines()
        assert len(csv_lines) == quick_dataset.test[0].n + 1
        assert open(ply_path).readline().strip() == "ply"
