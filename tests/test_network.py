from types import SimpleNamespace

import numpy as np
import pytest

from rotinv import autodiff as ad
from rotinv import frames as fr
from rotinv import network
from rotinv.checks import ACCEPTANCE_MODEL
from rotinv.dataset import DatasetSpec, generate_dataset
from rotinv.geometry import knn_graph, sample_rotation_so3
from rotinv.gradcheck import check_tensor_gradient
from rotinv.network import (COMPONENT_ABLATION_ROWS, FRAME_ABLATION_ROWS,
                            GRAPH_METRICS, NAMED_CONFIGS, POSE_ABLATION_ROWS,
                            FusionModel,
                            Mlp, ModelConfig, cross_entropy, fuse_attention,
                            handcrafted_ppf_code, inv_edge_conv,
                            mean_knn_consistency, named_config, total_loss)
from rotinv.vecneuron import gather_neighbors

from conftest import (BLOCK_SHAPES, TINY_MODEL, assert_batch_is_its_clouds,
                      join_clouds, max_pool_weights, traced_live_mib)
from test_frames import composed_consistency_loss
from test_vecneuron import composed_inv_edge_conv, composed_invariant_pool


def centered_cloud_batch(rng, b=2, n=20):
    pts = rng.standard_normal((b, n, 3))
    pts -= pts.mean(axis=1, keepdims=True)
    pts /= np.linalg.norm(pts, axis=2).max(axis=1)[:, None, None]
    return pts


def composed_rpr_code(frame, features, knn):
    """Reference form of the pose code U_i^T (v_j - v_i), op by op: gather,
    difference and the transposed frame's product.  The features pass
    through one identity reshape first, so that, as into the node, each
    code sends them one gradient: both gated layers read one projection,
    and its gradient is then the sum of two terms in either form."""
    b, n = features.shape[0], features.shape[1]
    features = ad.reshape(features, features.shape)
    vj = gather_neighbors(features, knn)
    diff = vj - ad.reshape(features, (b, n, 1) + features.shape[2:])
    ut = ad.transpose(frame, (0, 1, 3, 2))
    return ad.matmul(ad.reshape(ut, (b, n, 1, 3, 3)), diff)


def composed_gated_edge_conv(x, knn, fc1, fc2, gate=None, code=None,
                             frame=None):
    """Reference form of inv_edge_conv, op by op: the gather, for psi (a
    frame, no gate) the frame products U_i^T x_i and U_i^T x_j, the gate Mlp
    on the pose code (`composed_rpr_code`), on a constant per-edge code or
    on x_j - x_i, the gating mul, and the edge linear, relu, fc2 and max."""
    b, n = x.shape[0], x.shape[1]
    xj = gather_neighbors(x, knn)
    if frame is not None and gate is None:
        ut = ad.transpose(frame, (0, 1, 3, 2))
        xj = ad.reshape(ad.matmul(ad.reshape(ut, (b, n, 1, 3, 3)),
                                  ad.reshape(xj, knn.shape + (3, 1))),
                        knn.shape + (3,))
        x = ad.reshape(ad.matmul(ut, ad.reshape(x, (b, n, 3, 1))), (b, n, 3))
    if gate is not None:
        if frame is not None:
            code = composed_rpr_code(frame, code, knn)
        elif code is None:
            code = xj - ad.reshape(x, (b, n, 1, x.shape[-1]))
        else:
            code = ad.Tensor(code)
        xj = gate(ad.reshape(code, code.shape[:3] + (-1,))) * xj
    return composed_inv_edge_conv(x, xj, fc1, fc2)


def pose_code(frame, features, knn):
    """The per-edge pose code U_i^T (v_j - v_i), (B, N, K, 3, C), of the
    (B, N, 3, 3) `frame` and (B, N, 3, C) `features` arrays, read exactly
    through inv_edge_conv: one node per neighbour column, on one neighbour,
    whose gate passes the code c on as [c, -c] and whose layers turn that
    back into relu(c) - relu(-c) = c; every other term of their products
    is an exact zero."""
    b, n, _, channels = features.shape
    eye = np.eye(3 * channels)
    split = np.hstack([eye, -eye])                       # c -> [c, -c]

    def linear(weight):
        return SimpleNamespace(weight=ad.Tensor(weight),
                               bias=ad.Tensor(np.zeros(weight.shape[1])))

    gate = SimpleNamespace(fc1=linear(split), fc2=linear(np.vstack([split, -split])))
    fc1 = linear(np.vstack([np.eye(2 * eye.shape[0])] * 2))
    fc2 = linear(np.vstack([eye, -eye]))
    ones = ad.Tensor(np.ones((b, n, 2 * eye.shape[0])))
    columns = [inv_edge_conv(ones, knn[:, :, k:k + 1], fc1, fc2, gate,
                             ad.Tensor(features), ad.Tensor(frame)).data
               for k in range(knn.shape[2])]
    return np.stack(columns, axis=2).reshape(knn.shape + (3, channels))


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
    """The relative pose code U_i^T (v_j - v_i), which inv_edge_conv forms
    inside the node for its gate: read exactly by `pose_code`, and as the
    gated node's output and gradients."""

    def make_inputs(self, rng, c=3):
        pts = centered_cloud_batch(rng, b=1, n=12)
        knn = knn_graph(pts[0], 4)[None]
        veq = rng.standard_normal((1, 12, 3, c))
        pair = fr.ProjectedPair.from_arrays(
            *[v / np.linalg.norm(v, axis=-1, keepdims=True)
              for v in rng.standard_normal((2, 1, 12, 3))])
        frame = fr.lcrf_frame(pair)
        return pts, knn, veq, frame

    @staticmethod
    def gated(rng, channels, **kw):
        """A gated case of TestGatedEdgeConv whose gate reads the pose code
        of `channels` feature channels."""
        case = TestGatedEdgeConv().inputs(rng, "equivariant", **kw)
        case["code"] = rng.standard_normal(case["code"].shape[:-1] + (channels,))
        params = case["params"]
        params[4] = rng.standard_normal((3 * channels,) + params[4].shape[1:])
        return case

    def test_pose_code_reads_the_code_exactly(self, rng):
        _, knn, veq, frame = self.make_inputs(rng)
        ref = composed_rpr_code(frame.matrix, ad.Tensor(veq), knn).data
        assert np.array_equal(pose_code(frame.data, veq, knn), ref)

    def test_equal_features_give_zero_code(self, rng):
        pts, knn, veq, frame = self.make_inputs(rng)
        same = np.broadcast_to(veq[:, :1], veq.shape).copy()
        np.testing.assert_allclose(pose_code(frame.data, same, knn), 0.0,
                                   atol=1e-12)

    def test_code_invariant_under_rotation(self, rng):
        pts, knn, veq, frame = self.make_inputs(rng)
        rot = sample_rotation_so3(0).matrix
        code = pose_code(frame.data, veq, knn)
        veq_rot = np.einsum("ij,bnjc->bnic", rot, veq)
        frame_rot = np.einsum("ij,bnjk->bnik", rot, frame.data)
        code_rot = pose_code(frame_rot, veq_rot, knn)
        scale = max(np.abs(code).max(), 1e-12)
        assert np.abs(code_rot - code).max() / scale <= 1e-9

    def test_frame_axis_maps_to_basis_vector(self, rng):
        # a difference equal to u1 lands on (1,0,0) in the local frame
        pts, knn, _, frame = self.make_inputs(rng)
        u1 = frame.data[..., :, 0]                      # (1,12,3)
        veq = np.zeros((1, 12, 3, 1))
        neighbor = knn[0, 0, 0]
        veq[0, neighbor, :, 0] = u1[0, 0]
        code = pose_code(frame.data, veq, knn)
        np.testing.assert_allclose(code[0, 0, 0, :, 0], [1.0, 0.0, 0.0],
                                   atol=1e-9)

    def test_coordinate_code_zero_for_coincident_points(self, rng):
        # the coordinate source is the code of the points as one channel
        pts, knn, _, frame = self.make_inputs(rng)
        same = np.broadcast_to(pts[:, :1], pts.shape).copy()
        code = pose_code(frame.data, same.reshape(1, 12, 3, 1), knn)
        assert code.shape == (1, 12, 4, 3, 1)
        np.testing.assert_allclose(code, 0.0, atol=1e-12)

    @pytest.mark.parametrize("channels", (1, 3))
    def test_matches_composed_form(self, rng, channels):
        # value and gradients bit-identical to the op-by-op gather,
        # difference, frame product, gate and edge linear.  The frame and
        # the features come from one leaf that reaches the frame twice, so
        # the leaf sums three gradient terms, in an order set by which
        # parent backward's depth-first walk visits first.
        _, knn, veq, frame = self.make_inputs(rng, c=channels)
        knn[0, 2] = 5                               # repeated neighbours
        case = self.gated(rng, channels, b=1, n=12, k=4)
        weights = ad.Tensor(case["weights"])
        runs = []
        for fn in (inv_edge_conv, composed_gated_edge_conv):
            leaf = ad.Tensor(frame.data, requires_grad=True)
            matrix = leaf + leaf * 2.0
            v = leaf[..., :channels] * ad.Tensor(veq)
            fc1, fc2, gate = TestGatedEdgeConv.layers(case["params"])
            out = fn(ad.Tensor(case["x"]), knn, fc1, fc2, gate, v, matrix)
            ad.backward(ad.tsum(out * weights))
            runs.append((out, leaf.grad))
        (out, grad), (ref, ref_grad) = runs
        assert out._op == "inv_edge_conv" and len(out._parents) == 10
        assert np.array_equal(out.data, ref.data)
        assert np.array_equal(grad, ref_grad)

    def test_constant_inputs_record_nothing(self, rng):
        _, knn, veq, frame = self.make_inputs(rng)
        case = self.gated(rng, 3, b=1, n=12, k=4)
        p = case["params"]
        fc1, fc2, gw1, gw2 = (SimpleNamespace(weight=ad.Tensor(w), bias=ad.Tensor(bias))
                              for w, bias in zip(p[::2], p[1::2]))
        out = inv_edge_conv(ad.Tensor(case["x"]), knn, fc1, fc2,
                            SimpleNamespace(fc1=gw1, fc2=gw2), ad.Tensor(veq),
                            frame.matrix)
        assert not out.requires_grad and out._parents == ()
        # unrecorded, the node gives the recorded bits at every shape
        for b, n, k in BLOCK_SHAPES:
            case = self.gated(rng, 2, b=b, n=n, k=k)

            def node():
                fc1, fc2, gate = TestGatedEdgeConv.layers(case["params"])
                return inv_edge_conv(ad.Tensor(case["x"]), case["knn"], fc1, fc2,
                                     gate, ad.Tensor(case["code"], True),
                                     ad.Tensor(case["frame"], True))

            recorded = node()
            with ad.no_grad():
                plain = node()
            assert recorded.requires_grad and not plain.requires_grad
            assert np.array_equal(plain.data, recorded.data)

    @pytest.mark.parametrize("b,n,k", BLOCK_SHAPES)
    def test_one_cloud_per_block_matches_one_block(self, rng, b, n, k):
        case = self.gated(rng, 2, b=b, n=n, k=k)
        knn = case["knn"]

        def node(clouds, x, v, matrix, *w):
            fc1, fc2, gw1, gw2 = (SimpleNamespace(weight=w[i], bias=w[i + 1])
                                  for i in range(0, 8, 2))
            return inv_edge_conv(x, knn[clouds], fc1, fc2,
                                 SimpleNamespace(fc1=gw1, fc2=gw2), v, matrix)

        assert_batch_is_its_clouds(node, [case["x"], case["code"], case["frame"]],
                                   case["params"])

    def test_out_of_range_neighbour_rejected(self, rng):
        _, knn, veq, frame = self.make_inputs(rng)
        for bad in (12, -1):
            knn[0, 0, 0] = bad
            with pytest.raises(ValueError):
                pose_code(frame.data, veq, knn)

    def test_gradient(self, rng):
        _, knn, veq, frame = self.make_inputs(rng, c=2)
        case = self.gated(rng, 2, b=1, n=12, k=4, c=2, hidden=4, c_out=3)
        weights = ad.Tensor(case["weights"])

        def conv(v, matrix):
            fc1, fc2, gate = TestGatedEdgeConv.layers(case["params"])
            return ad.tsum(inv_edge_conv(ad.Tensor(case["x"]), knn, fc1, fc2,
                                         gate, v, matrix) * weights)

        err = check_tensor_gradient(lambda t: conv(t, frame.matrix), veq)
        assert err <= 1e-4
        err = check_tensor_gradient(lambda t: conv(ad.Tensor(veq), t), frame.data)
        assert err <= 1e-4

    def test_ppf_code_rotation_invariant(self, rng):
        pts, knn, _, _ = self.make_inputs(rng)
        rot = sample_rotation_so3(1).matrix
        a = handcrafted_ppf_code(pts, knn)
        b = handcrafted_ppf_code(pts @ rot.T, knn)
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
        points = centered_cloud_batch(rng)
        out = model.forward(points)
        for key in ("degenerate_fraction", "orthogonality_residual",
                    "consistency_axis1", "consistency_axis2"):
            assert key in out.diagnostics
        defect, stable = model._invariance_defect(
            points, 1, np.random.default_rng(0), out.prediction_logits.data)
        assert defect <= 1e-6 and stable

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

    @pytest.mark.parametrize("frame_kind", ("gram-schmidt", "lcrf"))
    def test_learned_frames_fall_back_to_the_handcrafted_frame(self, frame_kind):
        # a generic torus, test cloud 3 of dataset seed 24: at point 95 the
        # untrained default model's pair has v1.v2 = 0.99999955, inside the
        # guard band; the identity in its place moved the logits by 0.07-0.19
        # relative under rotation
        spec = DatasetSpec(seed=24, train_per_class=1, test_per_class=1)
        pts = generate_dataset(spec).test[3].points[None]
        model = FusionModel(ModelConfig(frame_kind=frame_kind))
        with ad.no_grad():
            out = model.forward(pts)
        assert np.flatnonzero(out.frames.degenerate).tolist() == [95]
        handcrafted = fr.handcrafted_frame(pts, out.knn_coord,
                                           fallback=fr.identity_frames((1, 128)))
        np.testing.assert_array_equal(out.frames.data[0, 95],
                                      handcrafted.data[0, 95])
        defect, stable = model._invariance_defect(
            pts, 3, np.random.default_rng(0), out.prediction_logits.data)
        assert defect <= 1e-6 and stable

    def test_points_at_the_origin_take_the_fallback(self, rng):
        # 11 copies of one point at the origin, each with the other ten as
        # its neighbours: the encoder's features there are zero, so both
        # projected vectors are zero-length; each such point is flagged and
        # holds a fallback frame of rank 3
        pts = rng.standard_normal((1, 48, 3))
        pts[0, :11] = 0.0
        model = FusionModel(named_config("full", **ACCEPTANCE_MODEL))
        out = model.forward(pts)
        assert out.diagnostics["degenerate_fraction"] >= 11 / 48
        assert out.frames.degenerate[0, :11].all()
        assert (np.linalg.matrix_rank(out.frames.data) == 3).all()

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
        with pytest.raises(ValueError, match="missing"):
            model.load(path)

    def test_load_rejects_extra_parameters(self, tmp_path, tiny_config):
        # a full checkpoint holds every identity-frames parameter and more
        path = tmp_path / "full.lckp"
        FusionModel(tiny_config).save(path)
        smaller = FusionModel(named_config("identity-frames", **TINY_MODEL))
        with pytest.raises(ValueError, match="does not") as err:
            smaller.load(path)
        assert str(path) in str(err.value)

    def test_failed_load_leaves_model_unchanged(self, tmp_path, tiny_config):
        # the same names, but five classes: the classifiers' last layers
        # come after most parameters and do not fit
        path = tmp_path / "five.lckp"
        FusionModel(named_config("full", n_classes=5, seed=1, **TINY_MODEL)).save(path)
        model = FusionModel(tiny_config)
        before = {p.name: p.data.copy() for p in model.parameters()}
        with pytest.raises(ValueError, match="cls.inv.fc2.weight") as err:
            model.load(path)
        assert str(path) in str(err.value)
        for p in model.parameters():
            assert np.array_equal(p.data, before[p.name]), p.name

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


# the gate's input per pose source: per-point features read in each
# centre's frame, a per-edge constant code, or None for x_j - x_i; psi's
# ungated input, its points read in each centre's frame, is "projected"
CODE_SHAPES = {"equivariant": (3, 2), "coordinate": (3, 1),
               "handcrafted-ppf": (4,), "invariant": None}
IN_FRAME = ("equivariant", "coordinate", "projected")
SOURCES = sorted(CODE_SHAPES) + ["projected"]


class TestGatedEdgeConv:
    """inv_edge_conv on a neighbour index, with and without the pose gate
    and the frame projection, against the op-by-op form
    (`composed_gated_edge_conv`) run on each cloud alone: the same bits in
    the value and in every gradient, the weights' summed over the clouds in
    cloud order."""

    def inputs(self, rng, source, b=2, n=9, k=4, c=5, hidden=6, c_out=7,
               gate_hidden=3, code_shapes=CODE_SHAPES):
        if source == "projected":
            c = 3                                   # psi reads 3-vectors
        x = rng.standard_normal((b, n, c))
        knn = rng.integers(0, n, (b, n, k))
        knn[0, 1] = 3                             # one neighbour K times
        knn[-1, :, 0] = 2                         # everyone's first neighbour
        shape = code_shapes.get(source)
        code = None
        if shape is not None:
            per = (b, n) if source in IN_FRAME else (b, n, k)
            code = rng.standard_normal(per + shape)
        frame = rng.standard_normal((b, n, 3, 3)) if source in IN_FRAME else None
        gate_in = c if shape is None else int(np.prod(shape))
        params = [rng.standard_normal(s) for s in
                  ((2 * c, hidden), (hidden,), (hidden, c_out), (c_out,),
                   (gate_in, gate_hidden), (gate_hidden,), (gate_hidden, c),
                   (c,))]
        return dict(x=x, knn=knn, code=code, frame=frame, params=params,
                    weights=rng.standard_normal((b, n, c_out)),
                    gated=source != "projected")

    @staticmethod
    def layers(params, gated=True):
        """Fresh parameters holding `params`: fc1, fc2 and the gate Mlp."""
        fc1, fc2 = (SimpleNamespace(weight=ad.Parameter(f"fc{i}.weight", w),
                                    bias=ad.Parameter(f"fc{i}.bias", bias))
                    for i, (w, bias) in enumerate((params[:2], params[2:4])))
        if not gated:
            return fc1, fc2, None
        gate = Mlp("gate", params[4].shape[0], params[4].shape[1],
                   params[6].shape[1], seed=0)
        for p, value in zip(gate.parameters(), params[4:]):
            p.data = value
        return fc1, fc2, gate

    @staticmethod
    def leaves(case, gated=True, x_grad=True, clouds=slice(None)):
        """The node's x, code and frame for the clouds `clouds`: the
        per-point code and the frame as Tensors that take a gradient, a
        per-edge code as a constant array."""
        gated = gated and case["gated"]
        x = ad.Tensor(case["x"][clouds], requires_grad=x_grad)
        code = None if case["code"] is None or not gated else case["code"][clouds]
        frame = None
        if case["frame"] is not None and (gated or not case["gated"]):
            frame = ad.Tensor(case["frame"][clouds], requires_grad=True)
            if code is not None:
                code = ad.Tensor(code, requires_grad=True)
        return x, code, frame

    def run(self, fn, case, gated=True, x_grad=True, clouds=slice(None)):
        x, code, frame = self.leaves(case, gated, x_grad, clouds)
        fc1, fc2, gate = self.layers(case["params"], gated and case["gated"])
        out = fn(x, case["knn"][clouds], fc1, fc2, gate, code, frame)
        ad.backward(ad.tsum(out * ad.Tensor(case["weights"][clouds])))
        params = [fc1.weight, fc1.bias, fc2.weight, fc2.bias]
        params += [] if gate is None else gate.parameters()
        return out, [t.grad if isinstance(t, ad.Tensor) else None
                     for t in (x, code, frame)] + [p.grad for p in params]

    def assert_bit_identical(self, case, gated=True, x_grad=True):
        # the node runs one cloud at a time, so the reference is the
        # composed form run on each cloud alone
        out, grads = self.run(inv_edge_conv, case, gated, x_grad)
        clouds = [self.run(composed_gated_edge_conv, case, gated, x_grad,
                           slice(i, i + 1)) for i in range(len(case["x"]))]
        ref, ref_grads = join_clouds([(r.data, g) for r, g in clouds], 3)
        assert out._op == "inv_edge_conv"
        assert np.array_equal(out.data, ref)
        assert len(grads) == len(ref_grads)
        for i, (g, r) in enumerate(zip(grads, ref_grads)):
            assert (g is None) == (r is None), i
            assert g is None or np.array_equal(g, r), i
        return out, grads

    @pytest.mark.parametrize("source", SOURCES)
    def test_matches_composed_form(self, rng, source):
        case = self.inputs(rng, source)
        out, grads = self.assert_bit_identical(case)
        # parents: the frame and a per-point code when the node projects,
        # x, the layer's four parameters and the gate's four
        in_frame = source in IN_FRAME
        with_code = in_frame and case["gated"]
        assert len(out._parents) == 5 + 4 * case["gated"] + in_frame + with_code
        assert (grads[1] is not None) == with_code
        assert (grads[2] is not None) == in_frame
        assert all(g is not None and g.any() for g in grads[3:])

    @pytest.mark.parametrize("source", SOURCES + ["ungated"])
    def test_sparse_gradient_at_default_size(self, rng, source):
        # Under a max over points most rows of the node's gradient are zero,
        # and backward rebuilds only the points with a nonzero row.  At the
        # default N = 128, K = 16 and widths, BLAS splits a product over the
        # N*K edges into several blocks, so that sum keeps the composed
        # form's bits only when it still runs over every row.  Two clouds
        # take max-pool weights, one no gradient at all and one a gradient
        # at every point.
        gated, n = source != "ungated", 128
        widths = (dict(hidden=64, c_out=64) if source == "projected"
                  else dict(c=64, hidden=128, c_out=128))
        case = self.inputs(rng, source if gated else "invariant", b=4, n=n,
                           k=16, gate_hidden=32, **widths,
                           code_shapes={**CODE_SHAPES, "equivariant": (3, 8)})
        c_out = widths["c_out"]
        case["weights"] = np.concatenate([
            max_pool_weights(rng, 2, n, c_out), np.zeros((1, n, c_out)),
            rng.standard_normal((1, n, c_out))])
        _, grads = self.assert_bit_identical(case, gated)
        assert all(g is None or g.any() for g in grads)

    def test_ungated_index(self, rng):
        # the phi layers of rows without a pose gate
        self.assert_bit_identical(self.inputs(rng, "invariant"), gated=False)

    def test_every_edge_reads_one_point(self, rng):
        # all B*N*K edges gather point 0 of their cloud, so the scatter sums
        # every edge's gradient into one row
        for source in ("equivariant", "projected"):
            case = self.inputs(rng, source)
            case["knn"][:] = 0
            self.assert_bit_identical(case)

    @pytest.mark.parametrize("source", ("coordinate", "invariant", "projected"))
    def test_single_neighbour(self, rng, source):
        self.assert_bit_identical(self.inputs(rng, source, k=1))

    def test_constant_features_reach_parameters_only(self, rng):
        for source in ("equivariant", "projected"):
            _, grads = self.assert_bit_identical(self.inputs(rng, source),
                                                 x_grad=False)
            assert grads[0] is None

    @pytest.mark.parametrize("source", ("equivariant", "invariant", "ungated",
                                        "projected"))
    def test_no_grad_records_no_parent(self, rng, source):
        # the unrecorded forward gives the recorded bits at every shape
        gated = source != "ungated"
        for b, n, k in BLOCK_SHAPES:
            case = self.inputs(rng, source if gated else "invariant", b=b, n=n, k=k)
            fc1, fc2, gate = self.layers(case["params"], gated and case["gated"])
            x, code, frame = self.leaves(case, gated)
            recorded = inv_edge_conv(x, case["knn"], fc1, fc2, gate, code, frame)
            with ad.no_grad():
                plain = inv_edge_conv(x, case["knn"], fc1, fc2, gate, code, frame)
            assert recorded.requires_grad and recorded._parents
            assert not plain.requires_grad and plain._parents == () and plain._grads is None
            assert np.array_equal(plain.data, recorded.data)

    @pytest.mark.parametrize("b,n,k", BLOCK_SHAPES)
    @pytest.mark.parametrize("source", sorted(CODE_SHAPES) + ["ungated", "projected"])
    def test_one_cloud_per_block_matches_one_block(self, rng, source, b, n, k):
        gated = source != "ungated"
        case = self.inputs(rng, source if gated else "invariant", b=b, n=n, k=k)
        gated = gated and case["gated"]
        x, code, frame = self.leaves(case, gated)
        per_point = [case["x"]] + [t.data for t in (code, frame)
                                   if isinstance(t, ad.Tensor)]
        params = case["params"] if gated else case["params"][:4]

        def node(clouds, x, *leaves):
            pose, matrix = None, None
            if frame is not None:
                if gated:
                    pose, *leaves = leaves
                matrix, *leaves = leaves
            elif code is not None:
                pose = code[clouds]               # a per-edge constant

            def layer(i):
                return SimpleNamespace(weight=leaves[i], bias=leaves[i + 1])

            gate = SimpleNamespace(fc1=layer(4), fc2=layer(6)) if gated else None
            return inv_edge_conv(x, case["knn"][clouds], layer(0), layer(2),
                                 gate, pose, matrix)

        assert_batch_is_its_clouds(node, per_point, params)

    @pytest.mark.parametrize("bad", (9, -1))
    def test_out_of_range_neighbour_rejected(self, rng, bad):
        # as gather_neighbors: an index outside [0, N) would read another
        # cloud's point, or wrap around
        case = self.inputs(rng, "coordinate")
        case["knn"][1, 3, 2] = bad
        fc1, fc2, gate = self.layers(case["params"])
        for fn in (inv_edge_conv, composed_gated_edge_conv):
            with pytest.raises(ValueError):
                fn(*self.leaves(case)[:1], case["knn"], fc1, fc2, gate,
                   *self.leaves(case)[1:])

    @pytest.mark.parametrize("source", ("coordinate", "invariant", "projected"))
    def test_gradient(self, rng, source):
        case = self.inputs(rng, source, b=1, n=5, k=3, c=2, hidden=4, c_out=3,
                           gate_hidden=3)
        weights = ad.Tensor(case["weights"])
        names = ["x", "code", "frame", "w1", "b1", "w2", "b2", "gw1", "gb1",
                 "gw2", "gb2"]
        values = dict(zip(names, [case["x"], case["code"], case["frame"]]
                          + case["params"]))
        if not case["gated"]:
            values = {key: values[key] for key in names[:7]}

        def conv(name, t):
            given = {key: (t if key == name else None if v is None
                           else ad.Tensor(v)) for key, v in values.items()}
            fc1 = SimpleNamespace(weight=given["w1"], bias=given["b1"])
            fc2 = SimpleNamespace(weight=given["w2"], bias=given["b2"])
            gate = None
            if case["gated"]:
                gate = SimpleNamespace(
                    fc1=SimpleNamespace(weight=given["gw1"], bias=given["gb1"]),
                    fc2=SimpleNamespace(weight=given["gw2"], bias=given["gb2"]))
            return inv_edge_conv(given["x"], case["knn"], fc1, fc2, gate,
                                 given["code"], given["frame"])

        for name, value in values.items():
            if value is None:
                continue
            err = check_tensor_gradient(
                lambda t: ad.tsum(conv(name, t) * weights), value)
            assert err <= 1e-4, name


def model_outputs(model, pts, labels):
    """Logits of every head, no_grad logits, loss and parameter gradients."""
    cfg = model.config
    out = model.forward(pts)
    loss, _ = total_loss(out.logits_inv, out.logits_eqv, out.logits_fused,
                         labels, cfg.lambda_orth, cfg.lambda_consist,
                         pair=out.pair, knn=out.knn_coord,
                         orth_squared=cfg.orth_squared)
    ad.zero_grad(model.parameters())
    store = ad.backward(loss, model.parameters())
    with ad.no_grad():
        plain = model.forward(pts).prediction_logits.data
    heads = [t.data for t in (out.logits_inv, out.logits_eqv, out.logits_fused)
             if t is not None]
    return heads + [plain, loss.data], store


@pytest.mark.parametrize("row", ("full", "fusion-rpr-coordinate",
                                 "pose-handcrafted-ppf", "pose-invariant",
                                 "baseline", "identity-frames"))
def test_fused_model_matches_composed_model(rng, monkeypatch, row):
    # The trained checks replay desk training, which splits on rounding-level
    # changes: the fused edge convolutions, with the frame projections they
    # form inside, the pooled equivariant read-out and the consistency loss
    # must give the same bits as the op-by-op graph, at the initial gates
    # (last weight zero, no code gradient) and at perturbed ones.  One cloud
    # gives the same bits everywhere; over a batch, the per-edge nodes add
    # their weight and bias gradients up cloud by cloud, where the op-by-op
    # graph sums over the batch at once, so those alone move by rounding.
    # The read-out's weight gradient is one product over the batch, and the
    # consistency loss has no weight, so their parameters keep every bit.
    model = FusionModel(named_config(row, **ACCEPTANCE_MODEL))
    per_edge = {p.name for layer in (model.encoder, model.psi, model.phi1,
                                     model.phi2, *model.gates)
                if layer is not None for p in layer.parameters()}
    pts = rng.standard_normal((8, 48, 3))
    labels = rng.integers(0, model.config.n_classes, 8)
    for perturbed in (False, True):
        if perturbed:
            for p in model.parameters():
                p.data = p.data + 0.3 * rng.standard_normal(p.shape)
        for b in (1, 8):
            fused, fused_grads = model_outputs(model, pts[:b], labels[:b])
            with monkeypatch.context() as patched:
                patched.setattr(network, "inv_edge_conv", composed_gated_edge_conv)
                patched.setattr(network, "vn_invariant_pool", composed_invariant_pool)
                patched.setattr(fr, "consistency_loss", composed_consistency_loss)
                ref, ref_grads = model_outputs(model, pts[:b], labels[:b])
            assert len(fused) == len(ref)
            for a, r in zip(fused, ref):
                assert np.array_equal(a, r), (row, perturbed, b)
            assert fused_grads.keys() == ref_grads.keys()
            for name in fused_grads:
                a, r = fused_grads[name], ref_grads[name]
                if b == 1 or name not in per_edge:
                    assert np.array_equal(a, r), (row, perturbed, b, name)
                else:
                    assert np.abs(a - r).max() <= 1e-13 * np.abs(r).max(), (
                        row, perturbed, b, name)


@pytest.mark.parametrize("graph_metric", GRAPH_METRICS)
@pytest.mark.parametrize("row", sorted(NAMED_CONFIGS))
def test_no_grad_forward_matches_recorded(rng, row, graph_metric):
    # inference and training give the same bits at desk size, at the
    # initial gates and at perturbed ones
    model = FusionModel(named_config(row, graph_metric=graph_metric,
                                     **ACCEPTANCE_MODEL))
    pts = rng.standard_normal((8, 48, 3))
    for perturbed in (False, True):
        if perturbed:
            for p in model.parameters():
                p.data = p.data + 0.3 * rng.standard_normal(p.shape)
        recorded = model.forward(pts)
        with ad.no_grad():
            plain = model.forward(pts)
        assert recorded.prediction_logits.requires_grad
        assert not plain.prediction_logits.requires_grad
        for head in ("logits_inv", "logits_eqv", "logits_fused"):
            a, r = getattr(plain, head), getattr(recorded, head)
            assert (a is None) == (r is None), head
            assert a is None or np.array_equal(a.data, r.data), (head, perturbed)


def tape_nodes(*roots):
    """(op, shape) of every tensor reachable from `roots`."""
    seen, stack, nodes = set(), list(roots), []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append((node._op, node.shape))
        stack.extend(node._parents)
    return nodes


def test_edge_convolutions_build_no_per_edge_copies(rng):
    # Each edge convolution is one tape node over its per-point output: one
    # vn_edge_conv per encoder layer and one inv_edge_conv per invariant
    # layer, which gathers, projects, gates and drops its per-edge arrays
    # itself.  The frame consistency loss gathers inside its one node too,
    # and the equivariant read-out pools its Gram products inside its node.
    # So no node on the loss tape has the (B, N, K) neighbour prefix or the
    # (B, N, C, C') Gram shape.  The frame axes' stack is the only concat
    # left.
    cfg = named_config("full", **TINY_MODEL)
    model = FusionModel(cfg)
    b, n, k = 2, 20, cfg.k
    out = model.forward(centered_cloud_batch(rng, b=b, n=n))
    loss, _ = total_loss(out.logits_inv, out.logits_eqv, out.logits_fused,
                         np.array([0, 1]), cfg.lambda_orth, cfg.lambda_consist,
                         pair=out.pair, knn=out.knn_coord)
    nodes = tape_nodes(loss)
    vn_widths, inv_widths = TINY_MODEL["vn_widths"], TINY_MODEL["inv_widths"]
    gram = (b, n, vn_widths[-1], cfg.head_channels)
    assert [c for c in nodes if c[1][:3] == (b, n, k) or c[1] == gram] == []
    assert ("vn_invariant_pool", (b, vn_widths[-1] * cfg.head_channels)) in nodes
    assert ("consistency_loss", ()) in nodes
    assert sorted(c[1] for c in nodes if c[0] == "vn_edge_conv") == sorted(
        (b, n, 3, w) for w in vn_widths)
    assert sorted(c[1] for c in nodes if c[0] == "inv_edge_conv") == sorted(
        (b, n, w) for w in inv_widths)
    assert any(op == "concat" for op, _ in nodes), "the frame stack should stay"


def test_recorded_forward_keeps_little_alive(rng):
    # A recorded `full` forward and its loss at default widths (B=4,
    # N=128) hold 3.9 MiB while the loss is alive.  Nodes that also kept
    # the encoder's per-point products v W_b and v (W_a - W_b) over the
    # batch (2.6 MiB here) and the invariant layers' argmaxes over K as
    # int64 (1 MiB; 0.125 MiB as uint8) held 7.4 MiB.
    cfg = named_config("full")
    model = FusionModel(cfg)
    points = centered_cloud_batch(rng, b=4, n=128)

    def step():
        out = model.forward(points)
        return total_loss(out.logits_inv, out.logits_eqv, out.logits_fused,
                          np.arange(4) % cfg.n_classes, cfg.lambda_orth,
                          cfg.lambda_consist, pair=out.pair, knn=out.knn_coord)

    live, _ = traced_live_mib(step)
    assert live < 5.0


@pytest.mark.parametrize("graph_metric", GRAPH_METRICS)
def test_pose_code_built_once(rng, graph_metric):
    # one projection of the equivariant features per forward, which each
    # gated layer reads in its centres' frames inside its own node
    cfg = named_config("full", graph_metric=graph_metric,
                       **{**TINY_MODEL, "rpr_channels": 3})
    out = FusionModel(cfg).forward(centered_cloud_batch(rng, b=2, n=20))
    nodes = tape_nodes(out.logits_inv)
    assert nodes.count(("matmul", (2, 20, 3, 3))) == 1


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
