import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotinv import autodiff as ad
from rotinv.geometry import KnnGraph, knn_graph, sample_rotation_so3
from rotinv.gradcheck import check_tensor_gradient
from rotinv.vecneuron import (EquivariantEncoder, VnEdgeConv, edge_linear,
                              gather_neighbors, vn_invariant_head, vn_linear,
                              vn_nonlinearity)


def rotate_channels(rot, v):
    """Reference rotation action on (..., 3, C) features."""
    return np.einsum("ij,...jc->...ic", rot, v)


class TestVnLinear:
    def test_identity_weight(self, rng):
        v = ad.Tensor(rng.standard_normal((5, 3, 4)))
        out = vn_linear(v, ad.Tensor(np.eye(4)))
        np.testing.assert_array_equal(out.data, v.data)

    def test_single_channel_scaling(self):
        v = ad.Tensor(np.array([[1.0], [0.0], [0.0]]))
        out = vn_linear(v, ad.Tensor([[2.0]]))
        np.testing.assert_array_equal(out.data, [[2.0], [0.0], [0.0]])

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_commutes_with_rotation(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((6, 3, 4))
        w = rng.standard_normal((4, 2))
        rot = sample_rotation_so3(seed).matrix
        first = vn_linear(ad.Tensor(rotate_channels(rot, v)), ad.Tensor(w)).data
        second = rotate_channels(rot, vn_linear(ad.Tensor(v), ad.Tensor(w)).data)
        assert np.abs(first - second).max() <= 1e-12 * max(np.abs(second).max(), 1)


class TestVnNonlinearity:
    def test_positive_half_space_is_identity(self):
        # channels already aligned with the learned direction pass through
        v = np.zeros((1, 3, 2))
        v[0, :, 0] = [1.0, 0.1, 0.0]
        v[0, :, 1] = [0.5, 0.0, 0.2]
        w = np.array([[1.0], [1.0]])  # k = v1 + v2, positive dots
        out = vn_nonlinearity(ad.Tensor(v), ad.Tensor(w))
        np.testing.assert_allclose(out.data, v, atol=1e-12)

    def test_antiparallel_channel_truncates_to_zero(self):
        v = np.zeros((1, 3, 2))
        v[0, :, 0] = [1.0, 0.0, 0.0]   # defines the direction
        v[0, :, 1] = [-2.0, 0.0, 0.0]  # anti-parallel to it
        w = np.array([[1.0], [0.0]])   # k = first channel
        out = vn_nonlinearity(ad.Tensor(v), ad.Tensor(w))
        np.testing.assert_allclose(out.data[0, :, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data[0, :, 0], v[0, :, 0], atol=1e-12)

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((4, 3, 5))
        w = rng.standard_normal((5, 1))
        rot = sample_rotation_so3(seed).matrix
        rotate_first = vn_nonlinearity(ad.Tensor(rotate_channels(rot, v)),
                                       ad.Tensor(w)).data
        rotate_last = rotate_channels(
            rot, vn_nonlinearity(ad.Tensor(v), ad.Tensor(w)).data)
        scale = max(np.abs(rotate_last).max(), 1e-12)
        assert np.abs(rotate_first - rotate_last).max() / scale <= 1e-9

    def test_gradient(self, rng):
        w = ad.Tensor(rng.standard_normal((4, 1)))
        x = rng.standard_normal((2, 3, 4))
        weights = ad.Tensor(rng.standard_normal((2, 3, 4)))
        err = check_tensor_gradient(
            lambda t: ad.tsum(vn_nonlinearity(t, w) * weights), x)
        assert err <= 1e-4


def composed_vn_nonlinearity(v, w):
    """Reference form of vn_nonlinearity, op by op: v + relu(-v . k_hat) k_hat."""
    khat = ad.normalize(ad.matmul(v, w), axis=-2)
    dot = ad.tsum(v * khat, axis=-2, keepdims=True)
    return v + ad.relu(-dot) * khat


def fused_and_composed(v, w, weights, v_grad=True):
    """Value and (v, w) gradients of sum(f(v, w) * weights) for both forms."""
    results = []
    for fn in (vn_nonlinearity, composed_vn_nonlinearity):
        vt = ad.Tensor(v, requires_grad=v_grad)
        wt = ad.Tensor(w, requires_grad=True)
        out = fn(vt, wt)
        ad.backward(ad.tsum(out * ad.Tensor(weights)))
        results.append((out, vt.grad, wt.grad))
    return results


def relative(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


class TestFusedVnNonlinearity:
    """The one-node nonlinearity against the op-by-op form it replaces."""

    def test_matches_composed_form(self, rng):
        v = rng.standard_normal((2, 5, 3, 3, 6))     # (B, N, K, 3, C)
        w = rng.standard_normal((6, 1))
        (out, gv, gw), (ref, ref_gv, ref_gw) = fused_and_composed(
            v, w, rng.standard_normal(v.shape))
        assert out._op == "vn_nonlinearity" and len(out._parents) == 2
        assert relative(out.data, ref.data) <= 1e-14
        assert relative(gv, ref_gv) <= 1e-14
        assert relative(gw, ref_gw) <= 1e-14
        # both branches ran: some channels were truncated, some passed
        truncated = np.abs(out.data - v).max(axis=-2) > 0
        assert truncated.any() and not truncated.all()

    def test_zero_direction_row_passes_through(self, rng):
        # k = V w vanishes at one point; the norm guard keeps it finite and
        # the point's features pass unchanged
        v = rng.standard_normal((3, 3, 4))
        w = np.array([[1.0], [-1.0], [0.5], [2.0]])
        v[1, :, 0] = v[1, :, 1]
        v[1, :, 2:] = 0.0                             # k = 0 at point 1
        (out, gv, gw), (ref, ref_gv, ref_gw) = fused_and_composed(
            v, w, rng.standard_normal(v.shape))
        np.testing.assert_array_equal(out.data[1], v[1])
        assert np.isfinite(gv).all() and np.isfinite(gw).all()
        assert relative(gv, ref_gv) <= 1e-14
        assert relative(gw, ref_gw) <= 1e-14

    def test_non_finite_direction_raises(self):
        v = ad.Tensor(np.full((1, 3, 2), 1e300))
        with np.errstate(all="ignore"), pytest.raises(ad.NumericError) as err:
            vn_nonlinearity(v, ad.Tensor(np.full((2, 1), 1e300)))
        assert err.value.op == "vn_nonlinearity"

    def test_first_layer_grad_reaches_direction_only(self, rng):
        # the encoder's first layer sees raw points, which need no gradient
        v = rng.standard_normal((4, 3, 5))
        w = rng.standard_normal((5, 1))
        weights = rng.standard_normal(v.shape)
        (out, gv, gw), (_, _, ref_gw) = fused_and_composed(v, w, weights,
                                                           v_grad=False)
        assert gv is None and len(out._parents) == 1
        assert relative(gw, ref_gw) <= 1e-14
        err = check_tensor_gradient(
            lambda t: ad.tsum(vn_nonlinearity(ad.Tensor(v), t)
                              * ad.Tensor(weights)), w)
        assert err <= 1e-4


def concat_edge_linear(x, xj, w):
    """Reference form of edge_linear: build concat[x_i, x_j - x_i], then W."""
    center = np.broadcast_to(np.expand_dims(x, 2), xj.shape)
    return np.concatenate([center, xj - center], axis=-1) @ w


def edge_inputs(rng, vector: bool, b=2, n=7, k=3, c=4, c_out=5):
    """Per-point x, gathered x_j and a (2C, Cout) weight; (B,N,[3,]C)."""
    shape = (b, n, 3, c) if vector else (b, n, c)
    x = rng.standard_normal(shape)
    idx = np.stack([knn_graph(p.reshape(n, -1), k).indices for p in x])
    xj = gather_neighbors(ad.Tensor(x), idx).data
    return x, xj, rng.standard_normal((2 * c, c_out))


class TestEdgeFeatures:
    @pytest.mark.parametrize("vector", [False, True])
    def test_matches_concat_form(self, rng, vector):
        # 4-D invariant (B,N,K,C) and 5-D vector-neuron (B,N,K,3,C) edges,
        # without and with a bias
        x, xj, w = edge_inputs(rng, vector)
        bias = rng.standard_normal(w.shape[1])
        for b in (None, bias):
            ours = edge_linear(ad.Tensor(x), ad.Tensor(xj), ad.Tensor(w),
                               None if b is None else ad.Tensor(b)).data
            reference = concat_edge_linear(x, xj, w) + (0.0 if b is None else b)
            assert ours.shape == reference.shape
            assert np.abs(ours - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("vector", [False, True])
    def test_gradient(self, rng, vector):
        x, xj, w = edge_inputs(rng, vector, b=1, n=5, k=2, c=2, c_out=3)
        bias = rng.standard_normal(3)
        weights = ad.Tensor(rng.standard_normal(concat_edge_linear(x, xj, w).shape))
        cases = {"x": (x, lambda t: edge_linear(t, ad.Tensor(xj), ad.Tensor(w))),
                 "xj": (xj, lambda t: edge_linear(ad.Tensor(x), t, ad.Tensor(w))),
                 "weight": (w, lambda t: edge_linear(ad.Tensor(x), ad.Tensor(xj), t)),
                 "bias": (bias, lambda t: edge_linear(ad.Tensor(x), ad.Tensor(xj),
                                                      ad.Tensor(w), t))}
        for name, (value, fn) in cases.items():
            err = check_tensor_gradient(lambda t: ad.tsum(fn(t) * weights), value)
            assert err <= 1e-4, name

    def test_difference_channel_cancels_offsets(self, rng):
        # with the center rows W_a zeroed only x_j - x_i reaches the output,
        # so shifting every point by one offset leaves it unchanged
        pts = rng.standard_normal((1, 10, 3))
        idx = knn_graph(pts[0], 3).indices[None]
        w = rng.standard_normal((2, 4))
        w_diff = w.copy()
        w_diff[:1] = 0.0

        def edges(p, weight):
            v = ad.Tensor(p[..., None])
            return edge_linear(v, gather_neighbors(v, idx), ad.Tensor(weight)).data

        shifted = pts + np.array([5.0, -2.0, 1.0])
        np.testing.assert_allclose(edges(shifted, w_diff), edges(pts, w_diff),
                                   atol=1e-12)
        assert np.abs(edges(shifted, w) - edges(pts, w)).max() > 1.0

    def test_empty_neighborhood_rejected(self):
        conv = VnEdgeConv("t", 1, 4, seed=0)
        with pytest.raises(ValueError):
            conv(ad.Tensor(np.zeros((1, 1, 3, 1))), np.zeros((1, 1, 0), dtype=int))


class TestEncoder:
    def test_full_stack_equivariance(self):
        rng = np.random.default_rng(0)
        encoder = EquivariantEncoder((4, 8), seed=1)
        worst = 0.0
        for trial in range(20):
            pts = rng.standard_normal((1, 16, 3))
            idx = knn_graph(pts[0], 5).indices[None]
            rot = sample_rotation_so3(trial).matrix
            with ad.no_grad():
                v = encoder(ad.Tensor(pts), idx).data
                v_rot = encoder(ad.Tensor(pts @ rot.T), idx).data
            defect = (np.abs(v_rot - rotate_channels(rot, v)).max()
                      / max(np.abs(v).max(), 1e-12))
            worst = max(worst, defect)
        assert worst <= 1e-9

    def test_accepts_knn_graph_object(self, rng):
        pts = rng.standard_normal((12, 3))
        encoder = EquivariantEncoder((4,), seed=0)
        out = encoder(ad.Tensor(pts[None]), knn_graph(pts, 4))
        assert out.shape == (1, 12, 3, 4)

    def test_gradients_flow(self, rng):
        encoder = EquivariantEncoder((3, 4), seed=2)
        pts = rng.standard_normal((1, 8, 3))
        idx = knn_graph(pts[0], 3).indices[None]
        loss = ad.tsum(encoder(ad.Tensor(pts), idx))
        store = ad.backward(loss, encoder.parameters())
        assert all(np.isfinite(g).all() for g in store.values())
        assert any(np.abs(g).max() > 0 for g in store.values())


class TestInvariantHead:
    def test_single_channel_gram_is_squared_norm(self):
        v = np.array([[1.0], [2.0], [2.0]])  # norm^2 = 9
        out = vn_invariant_head(ad.Tensor(v), ad.Tensor(np.eye(1)))
        np.testing.assert_allclose(out.data, [[9.0]])

    def test_zero_features_give_zero(self):
        out = vn_invariant_head(ad.Tensor(np.zeros((2, 3, 4))),
                                ad.Tensor(np.ones((4, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4, 2)))

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_invariance(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((3, 3, 5))
        w = rng.standard_normal((5, 2))
        rot = sample_rotation_so3(seed).matrix
        plain = vn_invariant_head(ad.Tensor(v), ad.Tensor(w)).data
        rotated = vn_invariant_head(ad.Tensor(rotate_channels(rot, v)),
                                    ad.Tensor(w)).data
        scale = max(np.abs(plain).max(), 1e-12)
        assert np.abs(rotated - plain).max() / scale <= 1e-9

    def test_gradient(self, rng):
        w = ad.Tensor(rng.standard_normal((3, 2)))
        weights = ad.Tensor(rng.standard_normal((2, 3, 2)))
        err = check_tensor_gradient(
            lambda t: ad.tsum(vn_invariant_head(t, w) * weights),
            rng.standard_normal((2, 3, 3)))
        assert err <= 1e-4


def test_edgeconv_gradcheck(rng):
    conv = VnEdgeConv("g", 1, 3, seed=3)
    pts = rng.standard_normal((1, 6, 3))
    idx = knn_graph(pts[0], 2).indices[None]
    weights = ad.Tensor(rng.standard_normal((1, 6, 3, 3)))

    def loss_of_weight(t):
        saved = conv.weight
        try:
            conv.weight = t
            return ad.tsum(conv(ad.Tensor(pts[..., None]), idx) * weights)
        finally:
            conv.weight = saved

    err = check_tensor_gradient(loss_of_weight, conv.weight.data)
    assert err <= 1e-4
