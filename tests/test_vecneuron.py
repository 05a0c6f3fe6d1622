from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotinv import autodiff as ad
from rotinv.geometry import knn_graph, sample_rotation_so3
from rotinv.gradcheck import check_tensor_gradient
from rotinv.network import inv_edge_conv
from rotinv.vecneuron import (EquivariantEncoder, VnEdgeConv, gather_neighbors,
                              vn_edge_conv, vn_invariant_pool, vn_linear)

from conftest import (BLOCK_SHAPES, assert_batch_is_its_clouds, join_clouds,
                      max_pool_weights)


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


def composed_vn_nonlinearity(v, w):
    """Reference VN nonlinearity, op by op: v + relu(-v . k_hat) k_hat."""
    khat = ad.normalize(ad.matmul(v, w), axis=-2)
    dot = ad.tsum(v * khat, axis=-2, keepdims=True)
    return v + ad.relu(-dot) * khat


def edge_linear(x, xj, weight, bias=None):
    """The edge-convolution linear, op by op: per-edge channels
    (x_i, x_j - x_i) times W, the oracle for both fused edge convolutions.

    `x` is (B, N, ..., C) per point, `xj` is (B, N, K, ..., C) per edge and
    `weight` is (2C, Cout); returns (B, N, K, ..., Cout).  With W_a, W_b the
    first and last C rows of W,

        concat[x_i, x_j - x_i] W + bias = (x_i (W_a - W_b) + bias) + x_j W_b,

    so the center term and the bias are per point, one 2-D product over the
    rows of every point, added in place onto the per-edge product.
    """
    c = x.shape[-1]
    w_a, w_b = weight[:c], weight[c:]
    rows = ad.reshape(x, (-1, c))
    center = (ad.matmul(rows, w_a - w_b) if bias is None
              else ad.addmm(bias, rows, w_a - w_b))
    return ad.addmm(ad.reshape(center, x.shape[:2] + (1,) + x.shape[2:-1] + (-1,)),
                    xj, w_b)


def composed_edge_conv(v, knn, weight, direction):
    """Reference form of vn_edge_conv: edge linear, nonlinearity and mean as
    separate ops over full per-edge tensors."""
    mixed = edge_linear(v, gather_neighbors(v, knn), weight)
    return ad.mean(composed_vn_nonlinearity(mixed, direction), axis=2)


class TestVnNonlinearity:
    """The truncation rule, on the reference form the fused op is held to,
    and through the fused op."""

    def test_positive_half_space_is_identity(self):
        # channels already aligned with the learned direction pass through
        v = np.zeros((1, 3, 2))
        v[0, :, 0] = [1.0, 0.1, 0.0]
        v[0, :, 1] = [0.5, 0.0, 0.2]
        w = np.array([[1.0], [1.0]])  # k = v1 + v2, positive dots
        out = composed_vn_nonlinearity(ad.Tensor(v), ad.Tensor(w))
        np.testing.assert_allclose(out.data, v, atol=1e-12)

    def test_antiparallel_channel_truncates_to_zero(self):
        v = np.zeros((1, 3, 2))
        v[0, :, 0] = [1.0, 0.0, 0.0]   # defines the direction
        v[0, :, 1] = [-2.0, 0.0, 0.0]  # anti-parallel to it
        w = np.array([[1.0], [0.0]])   # k = first channel
        out = composed_vn_nonlinearity(ad.Tensor(v), ad.Tensor(w))
        np.testing.assert_allclose(out.data[0, :, 1], 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data[0, :, 0], v[0, :, 0], atol=1e-12)

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((2, 6, 3, 2))
        knn = rng.integers(0, 6, (2, 6, 3))
        w = ad.Tensor(rng.standard_normal((4, 5)))
        d = ad.Tensor(rng.standard_normal((5, 1)))
        rot = sample_rotation_so3(seed).matrix
        rotate_first = vn_edge_conv(ad.Tensor(rotate_channels(rot, v)), knn, w, d).data
        rotate_last = rotate_channels(rot, vn_edge_conv(ad.Tensor(v), knn, w, d).data)
        scale = max(np.abs(rotate_last).max(), 1e-12)
        assert np.abs(rotate_first - rotate_last).max() / scale <= 1e-9

    def test_gradient(self, rng):
        v = rng.standard_normal((1, 5, 3, 2))
        knn = rng.integers(0, 5, (1, 5, 3))
        w = rng.standard_normal((4, 3))
        d = rng.standard_normal((3, 1))
        weights = ad.Tensor(rng.standard_normal((1, 5, 3, 3)))
        cases = {"v": (v, lambda t: vn_edge_conv(t, knn, ad.Tensor(w), ad.Tensor(d))),
                 "weight": (w, lambda t: vn_edge_conv(ad.Tensor(v), knn, t, ad.Tensor(d))),
                 "direction": (d, lambda t: vn_edge_conv(ad.Tensor(v), knn,
                                                         ad.Tensor(w), t))}
        for name, (value, fn) in cases.items():
            err = check_tensor_gradient(lambda t: ad.tsum(fn(t) * weights), value)
            assert err <= 1e-4, name


def fused_and_composed(v, knn, w, d, weights, v_grad=True):
    """Value and (v, weight, direction) gradients of sum(f(...) * weights)
    for vn_edge_conv and its reference form."""
    results = []
    for fn in (vn_edge_conv, composed_edge_conv):
        vt = ad.Tensor(v, requires_grad=v_grad)
        wt = ad.Tensor(w, requires_grad=True)
        dt = ad.Tensor(d, requires_grad=True)
        out = fn(vt, knn, wt, dt)
        ad.backward(ad.tsum(out * ad.Tensor(weights)))
        results.append((out, vt.grad, wt.grad, dt.grad))
    return results


def relative(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


class TestFusedVnNonlinearity:
    """vn_edge_conv, the one-node edge linear + nonlinearity + mean, against
    the op-by-op form it replaces."""

    def test_matches_composed_form(self, rng):
        b, n, k, c, c_out = 2, 9, 4, 3, 6
        v = rng.standard_normal((b, n, 3, c))
        # repeated neighbours and the point itself exercise the scatter
        knn = rng.integers(0, n, (b, n, k))
        knn[0, 0] = 0
        w = rng.standard_normal((2 * c, c_out))
        d = rng.standard_normal((c_out, 1))
        (out, gv, gw, gd), (ref, ref_gv, ref_gw, ref_gd) = fused_and_composed(
            v, knn, w, d, rng.standard_normal((b, n, 3, c_out)))
        assert out._op == "vn_edge_conv" and len(out._parents) == 3
        assert relative(out.data, ref.data) <= 1e-12
        assert relative(gv, ref_gv) <= 1e-12
        assert relative(gw, ref_gw) <= 1e-12
        assert relative(gd, ref_gd) <= 1e-12
        # both branches ran: some edge channels were truncated, some passed
        mixed = edge_linear(ad.Tensor(v), gather_neighbors(ad.Tensor(v), knn),
                            ad.Tensor(w)).data
        dots = np.einsum("...dc,...dx->...xc", mixed, mixed @ d)
        assert (dots < 0).any() and (dots > 0).any()

    def test_zero_direction_row_passes_through(self, rng):
        # d = (d_0, 0, ...) and a zero first column of W_b leave
        # k = v_i (W_a - W_b)[:, 0] d_0, so every edge of a point with
        # v_i = 0 has k = 0 exactly: the norm guard keeps those rows finite,
        # nothing is truncated and the point's output is the plain mean
        b, n, k, c, c_out = 1, 7, 3, 2, 4
        v = rng.standard_normal((b, n, 3, c))
        v[0, 2] = 0.0
        knn = rng.integers(0, n, (b, n, k))
        d = np.zeros((c_out, 1))
        d[0] = 1.5
        w = rng.standard_normal((2 * c, c_out))
        w[c:, 0] = 0.0
        (out, gv, gw, gd), (ref, ref_gv, ref_gw, ref_gd) = fused_and_composed(
            v, knn, w, d, rng.standard_normal((b, n, 3, c_out)))
        mixed = edge_linear(ad.Tensor(v), gather_neighbors(ad.Tensor(v), knn),
                            ad.Tensor(w)).data
        np.testing.assert_allclose(out.data[0, 2], mixed[0, 2].mean(axis=0),
                                   rtol=0, atol=1e-14)
        for grad in (gv, gw, gd):
            assert np.isfinite(grad).all()
        assert relative(out.data, ref.data) <= 1e-12
        assert relative(gv, ref_gv) <= 1e-12
        assert relative(gw, ref_gw) <= 1e-12
        assert relative(gd, ref_gd) <= 1e-12

    def test_non_finite_direction_raises(self):
        v = ad.Tensor(np.full((1, 2, 3, 1), 1e300))
        knn = np.zeros((1, 2, 1), dtype=int)
        with np.errstate(all="ignore"), pytest.raises(ad.NumericError) as err:
            vn_edge_conv(v, knn, ad.Tensor(np.full((2, 2), 1e300)),
                         ad.Tensor(np.full((2, 1), 1e300)))
        assert err.value.op == "vn_edge_conv"

    @pytest.mark.parametrize("b,n,k", BLOCK_SHAPES)
    def test_no_grad_matches_recorded(self, rng, b, n, k):
        v = rng.standard_normal((b, n, 3, 4))
        knn = rng.integers(0, n, (b, n, k))
        w = ad.Parameter("w", rng.standard_normal((8, 6)))
        d = ad.Parameter("d", rng.standard_normal((6, 1)))
        recorded = vn_edge_conv(ad.Tensor(v, requires_grad=True), knn, w, d)
        with ad.no_grad():
            plain = vn_edge_conv(ad.Tensor(v, requires_grad=True), knn, w, d)
        assert recorded.requires_grad and len(recorded._parents) == 3
        assert not plain.requires_grad and plain._parents == () and plain._grads is None
        assert np.array_equal(plain.data, recorded.data)

    @pytest.mark.parametrize("b,n,k", BLOCK_SHAPES)
    def test_one_cloud_per_block_matches_one_block(self, rng, b, n, k):
        knn = rng.integers(0, n, (b, n, k))
        knn[0, 1] = 3                             # one neighbour K times
        assert_batch_is_its_clouds(
            lambda clouds, v, w, d: vn_edge_conv(v, knn[clouds], w, d),
            [rng.standard_normal((b, n, 3, 4))],
            [rng.standard_normal((8, 6)), rng.standard_normal((6, 1))])

    def test_non_finite_last_cloud_raises(self, rng):
        # the forward checks k_hat cloud by cloud; only the last cloud's
        # overflows
        v = rng.standard_normal((3, 8, 3, 2))
        v[-1, 5] = 1e308
        knn = rng.integers(0, 8, (3, 8, 4))
        w = ad.Parameter("w", 10.0 * rng.standard_normal((4, 3)))
        d = ad.Parameter("d", rng.standard_normal((3, 1)))
        with ad.no_grad(), np.errstate(all="ignore"), \
                pytest.raises(ad.NumericError) as err:
            vn_edge_conv(ad.Tensor(v), knn, w, d)
        assert err.value.op == "vn_edge_conv"

    def test_first_layer_grad_reaches_parameters_only(self, rng):
        # the encoder's first layer sees raw points, which need no gradient
        v = rng.standard_normal((1, 6, 3, 1))
        knn = rng.integers(0, 6, (1, 6, 2))
        w = rng.standard_normal((2, 5))
        d = rng.standard_normal((5, 1))
        weights = rng.standard_normal((1, 6, 3, 5))
        (out, gv, gw, gd), (_, _, ref_gw, ref_gd) = fused_and_composed(
            v, knn, w, d, weights, v_grad=False)
        assert gv is None and len(out._parents) == 2
        assert relative(gw, ref_gw) <= 1e-12
        assert relative(gd, ref_gd) <= 1e-12

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_cloud_index_rejected(self, bad):
        # with two clouds of three points, index 3 of cloud 0 would be
        # point 0 of cloud 1, and -1 would wrap around
        v = ad.Tensor(np.ones((2, 3, 3, 1)))
        knn = np.zeros((2, 3, 1), dtype=int)
        knn[0, 1, 0] = bad
        with pytest.raises(ValueError):
            vn_edge_conv(v, knn, ad.Tensor(np.ones((2, 2))), ad.Tensor(np.ones((2, 1))))
        with pytest.raises(ValueError):
            gather_neighbors(v, knn)


def concat_edge_linear(x, xj, w):
    """Reference form of edge_linear: build concat[x_i, x_j - x_i], then W."""
    center = np.broadcast_to(np.expand_dims(x, 2), xj.shape)
    return np.concatenate([center, xj - center], axis=-1) @ w


def edge_inputs(rng, vector: bool, b=2, n=7, k=3, c=4, c_out=5):
    """Per-point x, gathered x_j and a (2C, Cout) weight; (B,N,[3,]C)."""
    shape = (b, n, 3, c) if vector else (b, n, c)
    x = rng.standard_normal(shape)
    idx = np.stack([knn_graph(p.reshape(n, -1), k) for p in x])
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
        idx = knn_graph(pts[0], 3)[None]
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


def composed_inv_edge_conv(x, xj, fc1, fc2):
    """Reference form of inv_edge_conv on the per-edge neighbours `xj`: edge
    linear, relu, fc2 and the max over K as separate ops over full per-edge
    tensors."""
    hidden = ad.relu(edge_linear(x, xj, fc1.weight, fc1.bias))
    return ad.tmax(ad.matmul(hidden, fc2.weight), axis=2) + fc2.bias


def composed_index_conv(x, knn, fc1, fc2):
    """composed_inv_edge_conv on the gathered neighbours."""
    return composed_inv_edge_conv(x, gather_neighbors(x, knn), fc1, fc2)


def inv_edge_conv_run(fn, x, knn, w1, b1, w2, b2, weights, x_grad=True):
    """Value and (x, W1, b1, W2, b2) gradients of sum(fn(...) * weights)."""
    xt = ad.Tensor(x, requires_grad=x_grad)
    fc1 = SimpleNamespace(weight=ad.Tensor(w1, requires_grad=True),
                          bias=ad.Tensor(b1, requires_grad=True))
    fc2 = SimpleNamespace(weight=ad.Tensor(w2, requires_grad=True),
                          bias=ad.Tensor(b2, requires_grad=True))
    out = fn(xt, knn, fc1, fc2)
    ad.backward(ad.tsum(out * ad.Tensor(weights)))
    return out, [xt.grad, fc1.weight.grad, fc1.bias.grad, fc2.weight.grad,
                 fc2.bias.grad]


class TestInvEdgeConv:
    """inv_edge_conv, the one-node gather + edge linear + relu + fc2 + max
    over K, against the op-by-op form it replaces run on each cloud alone:
    the same bits in the value and in every gradient, the weights' summed
    over the clouds in cloud order."""

    def inputs(self, rng, b=2, n=9, k=4, c=3, hidden=6, c_out=5):
        return (rng.standard_normal((b, n, c)), rng.integers(0, n, (b, n, k)),
                rng.standard_normal((2 * c, hidden)), rng.standard_normal(hidden),
                rng.standard_normal((hidden, c_out)), rng.standard_normal(c_out),
                rng.standard_normal((b, n, c_out)))

    def assert_bit_identical(self, args, x_grad=True):
        out, grads = inv_edge_conv_run(inv_edge_conv, *args, x_grad=x_grad)
        x, knn, w1, b1, w2, b2, weights = args
        clouds = [inv_edge_conv_run(composed_index_conv, x[i:i + 1],
                                    knn[i:i + 1], w1, b1, w2, b2,
                                    weights[i:i + 1], x_grad=x_grad)
                  for i in range(len(x))]
        ref, ref_grads = join_clouds([(r.data, g) for r, g in clouds], 1)
        assert out._op == "inv_edge_conv"
        assert len(out._parents) == (5 if x_grad else 4)
        assert np.array_equal(out.data, ref)
        for name, g, r in zip(("x", "w1", "b1", "w2", "b2"), grads, ref_grads):
            assert (g is None) == (r is None), name
            assert g is None or np.array_equal(g, r), name
        return out, grads

    def test_matches_composed_form(self, rng):
        # three channels per point, and wider layers
        self.assert_bit_identical(self.inputs(rng, c=3))
        self.assert_bit_identical(self.inputs(rng, c=7, hidden=16, c_out=8))

    def test_ties_in_max_go_to_first_neighbour(self, rng):
        x, knn, w1, b1, w2, b2, weights = self.inputs(rng)
        # every point's last neighbour, point 8, repeats its second, point
        # 1, and no other edge reads point 8, whose own output carries no
        # gradient; one point sees one neighbour K times
        knn[:] = rng.integers(0, 8, knn.shape)
        knn[:, :, 1] = 1
        knn[:, :, 3] = 8
        knn[0, 2] = 5
        x[:, 8] = x[:, 1]
        weights[:, 8] = 0.0
        _, grads = self.assert_bit_identical((x, knn, w1, b1, w2, b2, weights))
        # a tied edge after the first never receives a gradient
        assert not grads[0][:, 8].any() and grads[0][:, 1].any()

    def test_ties_past_255_neighbours_go_to_first(self, rng):
        # K = 260 keeps the argmax as uint16.  Every point's neighbour 257 is
        # point 1, scaled up so that it is the max of some outputs, and its
        # last, point 299, repeats it; no other edge reads either, and
        # neither's own output carries a gradient
        x, knn, w1, b1, w2, b2, weights = self.inputs(rng, b=1, n=300, k=260)
        knn[:] = rng.integers(2, 299, knn.shape)
        knn[:, :, 257] = 1
        knn[:, :, 259] = 299
        x[:, 1] *= 100.0
        x[:, 299] = x[:, 1]
        weights[:, [1, 299]] = 0.0
        _, grads = self.assert_bit_identical((x, knn, w1, b1, w2, b2, weights))
        # neighbour 257 takes the gradient, its tie at 259 none
        assert grads[0][:, 1].any() and not grads[0][:, 299].any()

    def test_single_neighbour(self, rng):
        args = self.inputs(rng, k=1)
        out, _ = self.assert_bit_identical(args)
        x, knn, w1, b1, w2, b2, _ = args
        c = x.shape[-1]
        xj = np.take_along_axis(x, knn, axis=1)
        edge = np.maximum(x @ (w1[:c] - w1[c:]) + xj @ w1[c:] + b1, 0.0)
        np.testing.assert_allclose(out.data, edge @ w2 + b2, rtol=1e-13, atol=1e-13)

    def test_dead_hidden_rows(self, rng):
        # a point at x = 0 that is its only neighbour, and no other point's,
        # sees only b1 <= 0: its hidden units are all zero, every neighbour
        # ties, and its output is b2
        x, knn, w1, b1, w2, b2, weights = self.inputs(rng)
        knn[1][knn[1] == 4] = 0
        knn[1, 4] = 4
        x[1, 4] = 0.0
        b1 = -np.abs(b1)
        out, grads = self.assert_bit_identical((x, knn, w1, b1, w2, b2, weights))
        np.testing.assert_array_equal(out.data[1, 4], b2)
        assert not grads[0][1, 4].any()

    @pytest.mark.parametrize("x_grad", (True, False))
    def test_clouds_without_gradient_and_with_one_point(self, rng, x_grad):
        # backward runs only on the points whose output takes a gradient:
        # on none of the first cloud's and on one of the second's, whose x
        # gradient is exactly zero off that point and its K neighbours
        n, c_out = 128, 64
        x, knn, w1, b1, w2, b2, _ = self.inputs(rng, n=n, k=16, c=64, hidden=64,
                                                c_out=c_out)
        weights = np.concatenate([np.zeros((1, n, c_out)), max_pool_weights(
            rng, 1, n, 1) * rng.standard_normal(c_out)])
        _, grads = self.assert_bit_identical((x, knn, w1, b1, w2, b2, weights),
                                             x_grad=x_grad)
        assert all(g.any() for g in grads[1:])
        if x_grad:
            point = np.flatnonzero(weights[1].any(axis=-1))
            reached = np.zeros(n, dtype=bool)
            reached[point] = reached[knn[1, point]] = True
            assert grads[0][1, point].any()
            assert not grads[0][0].any() and not grads[0][1, ~reached].any()

    def test_constant_inputs_reach_parameters_only(self, rng):
        # a constant x: only the four parameters take a gradient
        self.assert_bit_identical(self.inputs(rng), x_grad=False)

    def test_no_grad_records_no_parent(self, rng):
        # the unrecorded forward gives the recorded bits at every shape
        for b, n, k in BLOCK_SHAPES:
            x, knn, w1, b1, w2, b2, _ = self.inputs(rng, b=b, n=n, k=k)
            x[0, :, :] = 0.0                      # ties, as above
            fc1 = SimpleNamespace(weight=ad.Parameter("w1", w1),
                                  bias=ad.Parameter("b1", b1))
            fc2 = SimpleNamespace(weight=ad.Parameter("w2", w2),
                                  bias=ad.Parameter("b2", b2))
            recorded = inv_edge_conv(ad.Tensor(x), knn, fc1, fc2)
            with ad.no_grad():
                plain = inv_edge_conv(ad.Tensor(x), knn, fc1, fc2)
            assert recorded.requires_grad and len(recorded._parents) == 4
            assert not plain.requires_grad and plain._parents == () and plain._grads is None
            assert np.array_equal(plain.data, recorded.data)

    @pytest.mark.parametrize("b,n,k", BLOCK_SHAPES)
    def test_one_cloud_per_block_matches_one_block(self, rng, b, n, k):
        x, knn, w1, b1, w2, b2, _ = self.inputs(rng, b=b, n=n, k=k)
        x[0, :, :] = 0.0                          # ties in the max

        def node(clouds, x, w1, b1, w2, b2):
            return inv_edge_conv(x, knn[clouds], SimpleNamespace(weight=w1, bias=b1),
                                 SimpleNamespace(weight=w2, bias=b2))

        assert_batch_is_its_clouds(node, [x], [w1, b1, w2, b2])

    def test_gradient(self, rng):
        x, knn, w1, b1, w2, b2, weights = self.inputs(rng, b=1, n=5, k=3, c=2,
                                                      hidden=4, c_out=3)
        weights = ad.Tensor(weights)

        def conv(**given):
            t = dict(x=x, w1=w1, b1=b1, w2=w2, b2=b2)
            t = {k: given.get(k, ad.Tensor(v)) for k, v in t.items()}
            return inv_edge_conv(t["x"], knn,
                                 SimpleNamespace(weight=t["w1"], bias=t["b1"]),
                                 SimpleNamespace(weight=t["w2"], bias=t["b2"]))

        for name, value in dict(x=x, w1=w1, b1=b1, w2=w2, b2=b2).items():
            err = check_tensor_gradient(
                lambda t: ad.tsum(conv(**{name: t}) * weights), value)
            assert err <= 1e-4, name


class TestEncoder:
    def test_full_stack_equivariance(self):
        rng = np.random.default_rng(0)
        encoder = EquivariantEncoder((4, 8), seed=1)
        worst = 0.0
        for trial in range(20):
            pts = rng.standard_normal((1, 16, 3))
            idx = knn_graph(pts[0], 5)[None]
            rot = sample_rotation_so3(trial).matrix
            with ad.no_grad():
                v = encoder(ad.Tensor(pts), idx).data
                v_rot = encoder(ad.Tensor(pts @ rot.T), idx).data
            defect = (np.abs(v_rot - rotate_channels(rot, v)).max()
                      / max(np.abs(v).max(), 1e-12))
            worst = max(worst, defect)
        assert worst <= 1e-9

    def test_output_shape(self, rng):
        pts = rng.standard_normal((2, 12, 3))
        encoder = EquivariantEncoder((4, 5), seed=0)
        knn = np.stack([knn_graph(p, 4) for p in pts])
        out = encoder(ad.Tensor(pts), knn)
        assert out.shape == (2, 12, 3, 5)

    def test_gradients_flow(self, rng):
        encoder = EquivariantEncoder((3, 4), seed=2)
        pts = rng.standard_normal((1, 8, 3))
        idx = knn_graph(pts[0], 3)[None]
        loss = ad.tsum(encoder(ad.Tensor(pts), idx))
        store = ad.backward(loss, encoder.parameters())
        assert all(np.isfinite(g).all() for g in store.values())
        assert any(np.abs(g).max() > 0 for g in store.values())


def composed_invariant_pool(v, weight):
    """Reference form of vn_invariant_pool, op by op: V W, the per-point Gram
    product V^T (V W), flattened over its channels, and the max over the
    points."""
    b, n = v.shape[:2]
    gram = ad.matmul(ad.transpose(v, (0, 1, 3, 2)), vn_linear(v, weight))
    return ad.tmax(ad.reshape(gram, (b, n, -1)), axis=1)


class TestInvariantHead:
    """The Gram read-out V^T (V W), max-pooled over the points, as one node."""

    def test_single_channel_gram_is_squared_norm(self):
        # one channel and W = 1: the max of |v|^2 over the points
        v = np.array([[1.0, 2.0, 2.0], [0.0, 1.0, 1.0], [4.0, 0.0, 0.0]])
        out = vn_invariant_pool(ad.Tensor(v.reshape(1, 3, 3, 1)),
                                ad.Tensor(np.eye(1)))
        np.testing.assert_array_equal(out.data, [[16.0]])

    def test_zero_features_give_zero(self):
        out = vn_invariant_pool(ad.Tensor(np.zeros((2, 5, 3, 4))),
                                ad.Tensor(np.ones((4, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 8)))

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_invariance(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((2, 4, 3, 5))
        w = rng.standard_normal((5, 2))
        rot = sample_rotation_so3(seed).matrix
        plain = vn_invariant_pool(ad.Tensor(v), ad.Tensor(w)).data
        rotated = vn_invariant_pool(ad.Tensor(rotate_channels(rot, v)),
                                    ad.Tensor(w)).data
        scale = max(np.abs(plain).max(), 1e-12)
        assert np.abs(rotated - plain).max() / scale <= 1e-9

    def test_gradient(self, rng):
        v = rng.standard_normal((2, 4, 3, 3))
        w = rng.standard_normal((3, 2))
        weights = ad.Tensor(rng.standard_normal((2, 6)))
        err = check_tensor_gradient(
            lambda t: ad.tsum(vn_invariant_pool(t, ad.Tensor(w)) * weights), v)
        assert err <= 1e-4
        err = check_tensor_gradient(
            lambda t: ad.tsum(vn_invariant_pool(ad.Tensor(v), t) * weights), w)
        assert err <= 1e-4

    def test_tie_routes_to_first_point(self, rng):
        # points 1 and 3 are equal and give every channel's max: as ad.tmax,
        # the gradient goes to point 1 only
        v = rng.standard_normal((1, 4, 3, 2)) * 0.1
        v[0, 3] = v[0, 1] = 10.0 * np.abs(rng.standard_normal((3, 2)))
        leaf = ad.Tensor(v, requires_grad=True)
        w = ad.Tensor(np.abs(rng.standard_normal((2, 2))))
        ad.backward(ad.tsum(vn_invariant_pool(leaf, w)))
        assert np.abs(leaf.grad[0, 1]).min() > 0.0
        assert not leaf.grad[0, [0, 2, 3]].any()

    @pytest.mark.parametrize("b,n,c", [(1, 5, 3), (3, 7, 4)])
    def test_matches_composed_form(self, rng, b, n, c):
        # the same bits as the op-by-op graph: value and both gradients, with
        # v reaching the node through a second consumer too
        weights = rng.standard_normal((b, 2 * c))
        v0, w0 = rng.standard_normal((b, n, 3, c)), rng.standard_normal((c, 2))
        runs = []
        for fn in (vn_invariant_pool, composed_invariant_pool):
            leaf = ad.Tensor(v0, requires_grad=True)
            w = ad.Tensor(w0, requires_grad=True)
            v = leaf * 2.0
            out = fn(v, w)
            ad.backward(ad.tsum(out * ad.Tensor(weights)) + ad.tsum(v * v))
            runs.append((out.data, leaf.grad, w.grad))
        for a, r in zip(*runs):
            assert np.array_equal(a, r)

    def test_no_grad_records_no_parent(self, rng):
        v = ad.Tensor(rng.standard_normal((2, 4, 3, 3)), requires_grad=True)
        w = ad.Parameter("w", rng.standard_normal((3, 2)))
        recorded = vn_invariant_pool(v, w)
        with ad.no_grad():
            plain = vn_invariant_pool(v, w)
        assert recorded._parents == (v, v, w)
        assert not plain.requires_grad and plain._parents == ()
        assert np.array_equal(plain.data, recorded.data)


def test_edgeconv_gradcheck(rng):
    conv = VnEdgeConv("g", 1, 3, seed=3)
    pts = rng.standard_normal((1, 6, 3))
    idx = knn_graph(pts[0], 2)[None]
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
