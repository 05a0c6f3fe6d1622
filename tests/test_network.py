import numpy as np
import pytest

from rotinv import autodiff as ad
from rotinv import frames as fr
from rotinv.geometry import knn_graph, sample_rotation_so3
from rotinv.gradcheck import check_tensor_gradient
from rotinv.network import (COMPONENT_ABLATION_ROWS, FRAME_ABLATION_ROWS,
                            NAMED_CONFIGS, POSE_ABLATION_ROWS, FusionModel,
                            ModelConfig, coordinate_pose_code, cross_entropy,
                            fuse_attention, handcrafted_ppf_code,
                            mean_knn_consistency, named_config, rpr_code,
                            total_loss)

from conftest import TINY_MODEL


def centered_cloud_batch(rng, b=2, n=20):
    pts = rng.standard_normal((b, n, 3))
    pts -= pts.mean(axis=1, keepdims=True)
    pts /= np.linalg.norm(pts, axis=2).max(axis=1)[:, None, None]
    return pts


class TestModelConfig:
    def test_named_rows_construct(self):
        for name in NAMED_CONFIGS:
            cfg = named_config(name)
            assert isinstance(cfg, ModelConfig)

    def test_ablation_axes_cover_named_rows(self):
        for rows in (COMPONENT_ABLATION_ROWS, FRAME_ABLATION_ROWS,
                     POSE_ABLATION_ROWS):
            assert all(r in NAMED_CONFIGS for r in rows)

    def test_unknown_row_rejected(self):
        with pytest.raises(ValueError):
            named_config("table-42")

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(frame_kind="pca")
        with pytest.raises(ValueError):
            ModelConfig(lambda_orth=-0.1)
        with pytest.raises(ValueError):
            ModelConfig(inv_widths=(8, 0, 8))
        with pytest.raises(ValueError):
            ModelConfig(rpr_source="normals")

    @pytest.mark.parametrize("widths", [(64, 64), (8, 8, 8, 8), ()])
    def test_inv_widths_must_be_three(self, widths):
        # the model has exactly three invariant edge convolutions
        with pytest.raises(ValueError, match="inv_widths"):
            ModelConfig(inv_widths=widths)

    @pytest.mark.parametrize("widths", [(), (8, 1)])
    def test_vn_widths_must_end_in_two_channels(self, widths):
        # one output channel projects to a frame pair that is parallel at
        # every point, so every frame would be degenerate
        with pytest.raises(ValueError, match="vn_widths"):
            ModelConfig(vn_widths=widths)
        ModelConfig(vn_widths=widths + (2,))


class TestPoseCodes:
    def make_inputs(self, rng, c=3):
        pts = centered_cloud_batch(rng, b=1, n=12)
        knn = knn_graph(pts[0], 4)[None]
        veq = rng.standard_normal((1, 12, 3, c))
        pair = fr.ProjectedPair.from_arrays(
            *[v / np.linalg.norm(v, axis=-1, keepdims=True)
              for v in rng.standard_normal((2, 1, 12, 3))])
        frame, _ = fr.lcrf_frame(pair)
        return pts, knn, veq, frame

    def test_equal_features_give_zero_code(self, rng):
        pts, knn, veq, frame = self.make_inputs(rng)
        same = np.broadcast_to(veq[:, :1], veq.shape).copy()
        code = rpr_code(frame, ad.Tensor(same), knn)
        np.testing.assert_allclose(code.data, 0.0, atol=1e-12)

    def test_code_invariant_under_rotation(self, rng):
        pts, knn, veq, frame = self.make_inputs(rng)
        rot = sample_rotation_so3(0).matrix
        code = rpr_code(frame, ad.Tensor(veq), knn).data
        veq_rot = np.einsum("ij,bnjc->bnic", rot, veq)
        frame_rot = fr.Frame(ad.Tensor(np.einsum("ij,bnjk->bnik", rot,
                                                 frame.data)), "lcrf")
        code_rot = rpr_code(frame_rot, ad.Tensor(veq_rot), knn).data
        scale = max(np.abs(code).max(), 1e-12)
        assert np.abs(code_rot - code).max() / scale <= 1e-9

    def test_frame_axis_maps_to_basis_vector(self, rng):
        # a difference equal to u1 lands on (1,0,0) in the local frame
        pts, knn, _, frame = self.make_inputs(rng)
        u1 = frame.data[..., :, 0]                      # (1,12,3)
        veq = np.zeros((1, 12, 3, 1))
        neighbor = knn[0, 0, 0]
        veq[0, neighbor, :, 0] = u1[0, 0]
        code = rpr_code(frame, ad.Tensor(veq), knn).data
        np.testing.assert_allclose(code[0, 0, 0, :, 0], [1.0, 0.0, 0.0],
                                   atol=1e-9)

    def test_coordinate_code_zero_for_coincident_points(self, rng):
        pts, knn, _, frame = self.make_inputs(rng)
        same = np.broadcast_to(pts[:, :1], pts.shape).copy()
        code = coordinate_pose_code(frame, ad.Tensor(same), knn)
        np.testing.assert_allclose(code.data, 0.0, atol=1e-12)

    def test_ppf_code_rotation_invariant(self, rng):
        pts, knn, _, _ = self.make_inputs(rng)
        rot = sample_rotation_so3(1).matrix
        a = handcrafted_ppf_code(pts, knn).data
        b = handcrafted_ppf_code(pts @ rot.T, knn).data
        assert np.abs(a - b).max() <= 1e-9

    def test_all_sources_finite(self, rng):
        for source in ("coordinate", "handcrafted-ppf", "equivariant",
                       "invariant"):
            cfg = named_config("full", rpr_source=source, **TINY_MODEL)
            model = FusionModel(cfg)
            out = model.forward(centered_cloud_batch(rng, n=16))
            assert np.isfinite(out.prediction_logits.data).all()


class TestFusion:
    def test_equal_scores_average(self, rng):
        a = ad.Tensor(rng.standard_normal((3, 6)))
        b = ad.Tensor(rng.standard_normal((3, 6)))
        fused = fuse_attention(a, b, ad.Tensor(np.zeros((2, 6))))
        np.testing.assert_allclose(fused.data, (a.data + b.data) / 2, atol=1e-12)

    def test_saturated_gate_selects_one_branch(self, rng):
        a = ad.Tensor(rng.standard_normal((3, 6)))
        b = ad.Tensor(rng.standard_normal((3, 6)))
        scores = np.zeros((2, 6))
        scores[1] = -1e9
        fused = fuse_attention(a, b, ad.Tensor(scores))
        np.testing.assert_allclose(fused.data, a.data, atol=1e-12)


class TestLosses:
    def test_uniform_logits_cross_entropy(self):
        logits = ad.Tensor(np.zeros((5, 4)))
        labels = np.array([0, 1, 2, 3, 0])
        assert cross_entropy(logits, labels).item() == pytest.approx(np.log(4))

    def test_perfect_logits_drive_loss_to_zero(self):
        logits = np.full((3, 4), -100.0)
        labels = np.array([1, 0, 2])
        logits[np.arange(3), labels] = 100.0
        assert cross_entropy(ad.Tensor(logits), labels).item() < 1e-8

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(ad.Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_total_loss_sums_heads(self):
        logits = ad.Tensor(np.zeros((2, 4)))
        labels = np.array([0, 1])
        loss, parts = total_loss(logits, logits, logits, labels, 0.0, 0.0)
        assert loss.item() == pytest.approx(3 * np.log(4))
        assert set(parts) == {"ce_inv", "ce_eqv", "ce_fused", "total"}

    def test_total_loss_includes_frame_terms(self, rng):
        logits = ad.Tensor(np.zeros((2, 4)))
        labels = np.array([0, 1])
        v = rng.standard_normal((2, 6, 3))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        pair = fr.ProjectedPair.from_arrays(v, v[:, ::-1])
        knn = np.tile(np.array([[1, 2], [0, 2], [0, 1]] * 2)[None, :6], (2, 1, 1))
        loss, parts = total_loss(logits, None, None, labels, 0.5, 0.5,
                                 pair=pair, knn=knn)
        assert "orth" in parts and "consist" in parts
        assert loss.item() == pytest.approx(parts["ce_inv"]
                                            + 0.5 * parts["orth"]
                                            + 0.5 * parts["consist"])

    def test_total_loss_gradient(self, rng):
        labels = np.array([0, 2])

        def loss_fn(t):
            loss, _ = total_loss(t, None, None, labels, 0.0, 0.0)
            return loss

        assert check_tensor_gradient(loss_fn, rng.standard_normal((2, 4))) <= 1e-4


class TestForward:
    def test_every_row_runs_and_is_finite(self, rng, tiny_dataset):
        pts = np.stack([c.points for c in tiny_dataset.train[:3]])
        for name in NAMED_CONFIGS:
            model = FusionModel(named_config(name, **TINY_MODEL))
            out = model.forward(pts)
            assert np.isfinite(out.prediction_logits.data).all(), name

    def test_forward_deterministic(self, rng, tiny_config):
        model = FusionModel(tiny_config)
        pts = centered_cloud_batch(rng)
        a = model.forward(pts).prediction_logits.data
        b = model.forward(pts).prediction_logits.data
        assert np.array_equal(a, b)

    def test_full_model_rotation_invariance(self, rng, tiny_config):
        model = FusionModel(tiny_config)
        pts = centered_cloud_batch(rng, b=3, n=24)
        ref = model.forward(pts)
        worst = 0.0
        for seed in range(10):
            rot = sample_rotation_so3(seed).matrix
            out = model.forward(pts @ rot.T)
            defect = (np.abs(out.prediction_logits.data
                             - ref.prediction_logits.data).max()
                      / np.abs(ref.prediction_logits.data).max())
            worst = max(worst, defect)
            assert np.array_equal(out.predicted_classes(), ref.predicted_classes())
        assert worst <= 1e-6

    @pytest.mark.parametrize("frame_kind", ("gram-schmidt", "lcrf",
                                            "handcrafted"))
    @pytest.mark.parametrize("rpr_source", ("off", "coordinate", "equivariant"))
    def test_invariance_across_configs(self, rng, frame_kind, rpr_source):
        cfg = named_config("full", frame_kind=frame_kind,
                           rpr_source=rpr_source, **TINY_MODEL)
        model = FusionModel(cfg)
        pts = centered_cloud_batch(rng, b=2, n=24)
        ref = model.forward(pts).prediction_logits.data
        for seed in range(5):
            rot = sample_rotation_so3(seed).matrix
            out = model.forward(pts @ rot.T).prediction_logits.data
            defect = np.abs(out - ref).max() / np.abs(ref).max()
            assert defect <= 1e-6, (frame_kind, rpr_source, defect)

    def test_identity_frames_model_is_rotation_sensitive(self, rng):
        model = FusionModel(named_config("identity-frames", **TINY_MODEL))
        pts = centered_cloud_batch(rng, b=2, n=24)
        ref = model.forward(pts).prediction_logits.data
        rot = sample_rotation_so3(3).matrix
        out = model.forward(pts @ rot.T).prediction_logits.data
        assert np.abs(out - ref).max() / np.abs(ref).max() > 1e-3

    def test_rpr_gate_starts_as_identity(self, rng):
        pts = centered_cloud_batch(rng, b=2, n=20)
        with_rpr = FusionModel(named_config("full", **TINY_MODEL))
        without = FusionModel(named_config("fusion-lcrf", **TINY_MODEL))
        a = with_rpr.forward(pts).prediction_logits.data
        b = without.forward(pts).prediction_logits.data
        assert np.array_equal(a, b)

    def test_frame_kinds_produce_different_features(self, rng):
        pts = centered_cloud_batch(rng, b=1, n=20)
        lcrf = FusionModel(named_config("fusion-lcrf", **TINY_MODEL))
        gs = FusionModel(named_config("fusion", **TINY_MODEL))
        a = lcrf.forward(pts).logits_inv.data
        b = gs.forward(pts).logits_inv.data
        assert np.abs(a - b).max() > 1e-9

    def test_rejects_unbatched_input(self, tiny_config, tiny_dataset):
        # one format: a single cloud is a batch of one, (1, N, 3)
        model = FusionModel(tiny_config)
        cloud = tiny_dataset.test[0]
        for bad in (cloud, cloud.points, cloud.points[None, :, :2]):
            with pytest.raises(ValueError, match=r"\(B, N, 3\)"):
                model.forward(bad)
        assert model.forward(cloud.points[None]).prediction_logits.shape == (
            1, tiny_config.n_classes)

    def test_k_too_large_rejected(self, rng, tiny_config):
        model = FusionModel(tiny_config)
        with pytest.raises(ValueError):
            model.forward(centered_cloud_batch(rng, n=tiny_config.k))

    def test_diagnostics_present(self, rng, tiny_config):
        model = FusionModel(tiny_config)
        out = model.forward(centered_cloud_batch(rng), measure_invariance=True)
        for key in ("degenerate_fraction", "orthogonality_residual",
                    "consistency_axis1", "consistency_axis2",
                    "invariance_defect"):
            assert key in out.diagnostics
        assert out.diagnostics["invariance_defect"] <= 1e-6

    def test_handcrafted_frames_report_fallback_points(self, rng):
        # the seventh point sits at the centroid, so its radial axis is zero
        # and it takes the identity fallback
        pts = rng.standard_normal((6, 3))
        cloud = np.vstack([pts, pts.mean(axis=0)])[None]
        model = FusionModel(named_config("frames-handcrafted", **TINY_MODEL))
        out = model.forward(cloud)
        np.testing.assert_array_equal(out.frames.data[0, 6], np.eye(3))
        assert out.frames.degenerate.tolist() == [[False] * 6 + [True]]
        assert out.diagnostics["degenerate_fraction"] == 1 / 7

    def test_baseline_row_skips_equivariant_branch(self, rng):
        model = FusionModel(named_config("identity-frames", **TINY_MODEL))
        out = model.forward(centered_cloud_batch(rng))
        assert out.logits_eqv is None
        assert out.logits_fused is None
        assert out.pair is None

    def test_coordinate_graph_metric(self, rng):
        cfg = named_config("full", graph_metric="coordinate", **TINY_MODEL)
        model = FusionModel(cfg)
        out = model.forward(centered_cloud_batch(rng))
        assert np.isfinite(out.prediction_logits.data).all()


class TestPersistence:
    def test_checkpoint_roundtrip_preserves_logits(self, tmp_path, rng,
                                                   tiny_config):
        model = FusionModel(tiny_config)
        pts = centered_cloud_batch(rng)
        ref = model.forward(pts).prediction_logits.data
        path = tmp_path / "model.lckp"
        model.save(path)
        other = FusionModel(named_config("full", seed=99, **TINY_MODEL))
        assert not np.array_equal(other.forward(pts).prediction_logits.data, ref)
        other.load(path)
        np.testing.assert_array_equal(other.forward(pts).prediction_logits.data,
                                      ref)

    def test_load_rejects_missing_parameters(self, tmp_path, tiny_config):
        model = FusionModel(tiny_config)
        smaller = FusionModel(named_config("identity-frames", **TINY_MODEL))
        path = tmp_path / "small.lckp"
        smaller.save(path)
        with pytest.raises(ValueError):
            model.load(path)

    def test_parameter_names_unique(self, tiny_config):
        model = FusionModel(tiny_config)
        names = [p.name for p in model.parameters()]
        assert len(names) == len(set(names))


def test_single_neighbor_max_degenerates_to_edge_output(rng):
    # with K=1 the neighbor max is just the one edge's MLP output
    h = ad.Tensor(rng.standard_normal((1, 6, 1, 8)))
    reduced = ad.tmax(h, axis=2)
    np.testing.assert_array_equal(reduced.data, h.data[:, :, 0, :])


def test_zero_neighbor_features_stay_zero_through_gate(rng):
    # the pose gate is multiplicative, so zero features cannot be revived
    cfg = named_config("full", **TINY_MODEL)
    model = FusionModel(cfg)
    gate = model.gates[0]
    code = ad.Tensor(rng.standard_normal((1, 5, 3, gate.fc1.weight.shape[0])))
    xj = ad.Tensor(np.zeros((1, 5, 3, TINY_MODEL["inv_widths"][0])))
    gated = gate(code) * xj
    np.testing.assert_array_equal(gated.data, np.zeros_like(xj.data))


def test_mean_knn_consistency_identity_frames():
    frames = fr.identity_frames((1, 6))
    knn = np.zeros((1, 6, 2), dtype=int)
    assert mean_knn_consistency(frames, knn, 1) == pytest.approx(1.0)
    assert mean_knn_consistency(frames, knn, 2) == pytest.approx(1.0)


def test_edge_convolutions_build_no_per_edge_copies(rng):
    # Each edge convolution is one tape node over its per-point output: one
    # vn_edge_conv per encoder layer and one inv_edge_conv per invariant
    # layer, so no per-edge tensor of any vector-neuron or invariant width is
    # recorded.  The gate MLP's hidden relu is the only per-edge relu left,
    # no tensor with the K neighbour axis goes through concat, broadcast_to,
    # add or max, and the frame axes' stack is the only concat left.
    cfg = named_config("full", **TINY_MODEL)
    model = FusionModel(cfg)
    b, n = 2, 20
    out = model.forward(centered_cloud_batch(rng, b=b, n=n))
    loss, _ = total_loss(out.logits_inv, out.logits_eqv, out.logits_fused,
                         np.array([0, 1]), cfg.lambda_orth, cfg.lambda_consist,
                         pair=out.pair, knn=out.knn_coord)
    seen, stack, nodes = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append((node._op, node.shape))
        stack.extend(node._parents)
    per_edge = [c for c in nodes if c[1][:3] == (b, n, cfg.k)]
    for op in ("concat", "broadcast_to", "add", "max"):
        assert [c for c in per_edge if c[0] == op] == [], op
    vn_widths, inv_widths = TINY_MODEL["vn_widths"], TINY_MODEL["inv_widths"]
    assert [c for c in per_edge if c[1] in [(b, n, cfg.k, 3, w) for w in vn_widths]] == []
    assert [c for c in per_edge if c[0] in ("relu", "matmul")
            and c[1][-1] in inv_widths] == []
    assert [c[1] for c in per_edge if c[0] == "relu"] == [
        (b, n, cfg.k, cfg.rpr_hidden)] * 2
    assert sorted(c[1] for c in nodes if c[0] == "vn_edge_conv") == sorted(
        (b, n, 3, w) for w in vn_widths)
    assert sorted(c[1] for c in nodes if c[0] == "inv_edge_conv") == sorted(
        (b, n, w) for w in inv_widths)
    assert any(op == "concat" for op, _ in nodes), "the frame stack should stay"


def test_max_without_grad_matches_max_with_grad(rng):
    # no_grad skips the argmax; the values must not depend on it
    x = rng.standard_normal((3, 6, 4))
    x[0, 2] = x[0, 4]                                  # exact ties
    x[1, :, 0] = 1.5
    with_grad = ad.tmax(ad.Tensor(x, requires_grad=True), axis=1)
    with ad.no_grad():
        without = ad.tmax(ad.Tensor(x, requires_grad=True), axis=1)
    assert with_grad.requires_grad and not without.requires_grad
    np.testing.assert_array_equal(without.data, with_grad.data)
    np.testing.assert_array_equal(without.data, x.max(axis=1))
