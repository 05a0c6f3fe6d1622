import struct
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotinv import autodiff as ad
from rotinv.gradcheck import check_tensor_gradient, finite_difference_gradient
from rotinv.network import inv_edge_conv
from rotinv.vecneuron import vn_edge_conv


class TestForwardBasics:
    def test_matmul_identity(self):
        a = np.random.default_rng(0).standard_normal((3, 4))
        out = ad.matmul(ad.Tensor(np.eye(3)), ad.Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_gather_rows(self):
        t = ad.Tensor([[1.0], [2.0], [3.0]])
        out = ad.gather(t, [2, 0])
        np.testing.assert_array_equal(out.data, [[3.0], [1.0]])

    def test_gather_gradient_is_add_at(self, rng):
        # repeated rows sum in index order and unused rows get zero, exactly
        # as np.add.at; rows 0 and 5 of 6 are never picked
        t = ad.Tensor(rng.standard_normal((6, 3, 2)), requires_grad=True)
        idx = np.array([[3, 1, 3], [2, 3, 4], [1, 1, 3]])
        g = rng.standard_normal((3, 3, 3, 2)) * 10.0 ** rng.integers(-8, 8, (3, 3, 1, 1))
        ad.backward(ad.tsum(ad.gather(t, idx) * ad.Tensor(g)))
        expected = np.zeros(t.shape)
        np.add.at(expected, idx, g)
        assert np.array_equal(t.grad, expected)
        assert not t.grad[[0, 5]].any()

    def test_scatter_rows_blocks_match_add_at(self, rng, monkeypatch):
        # column blocks of 3, 3 and 1 out of a width of 7
        monkeypatch.setattr(ad, "SCATTER_BLOCK", 3 * 5)
        idx = np.array([4, 0, 4, 2, 4])
        g = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-8, 8, (5, 1))
        expected = np.zeros((6, 7))
        np.add.at(expected, idx, g)
        assert np.array_equal(ad.scatter_rows(g, idx, 6), expected)

    def test_gather_rejects_negative_indices(self):
        t = ad.Tensor(np.ones((3, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="non-negative"):
            ad.gather(t, [0, -1])

    def test_getitem_rejects_mixed_advanced_keys(self):
        with pytest.raises(TypeError):
            ad.Tensor(np.ones((3, 2)))[np.array([0, 1]), 1]

    @pytest.mark.parametrize("key", [np.array([[1, 0]]), [2, 0],
                                     ad.Tensor([1.0, 0.0])])
    def test_getitem_rejects_row_arrays(self, key):
        # rows by an index are taken with ad.gather only
        with pytest.raises(TypeError, match="gather"):
            ad.Tensor(np.ones((3, 2)), requires_grad=True)[key]

    def test_leaf_must_be_finite(self):
        with pytest.raises(ValueError):
            ad.Tensor([1.0, np.nan])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_numeric_error_names_op(self):
        with pytest.raises(ad.NumericError) as err:
            ad.log(ad.Tensor([0.0]))
        assert err.value.op == "log"
        with np.errstate(over="ignore"), pytest.raises(ad.NumericError) as err:
            ad.exp(ad.Tensor([1e3]))
        assert err.value.op == "exp"

    def test_relu_propagates_nan(self):
        # a NaN upstream must reach the loss, where the training loop checks
        x = ad.Tensor([1e308, -1.0, 2.0])
        with np.errstate(all="ignore"):
            z = x * 10.0 - x * 10.0
        assert np.isnan(ad.relu(z).data[0])
        np.testing.assert_array_equal(ad.relu(x).data[1:], [0.0, 2.0])

    def test_strict_mode_checks_every_op(self):
        big = ad.Tensor(np.full(4, 1e308))
        prev = ad.set_strict_finite_checks(True)
        try:
            with np.errstate(all="ignore"), pytest.raises(ad.NumericError) as err:
                big + big
            assert err.value.op == "add"
        finally:
            ad.set_strict_finite_checks(prev)


class TestBackward:
    def test_quadratic_gradient(self):
        p = ad.Parameter("p", np.array([1.0, 2.0]))
        loss = ad.tsum(p * p)
        store = ad.backward(loss, [p])
        np.testing.assert_allclose(store["p"], [2.0, 4.0])

    def test_unreachable_parameter_gets_zero(self):
        p = ad.Parameter("p", np.array([1.0, 2.0]))
        q = ad.Parameter("q", np.array([3.0]))
        loss = ad.tsum(p * p)
        store = ad.backward(loss, [p, q])
        np.testing.assert_array_equal(store["q"], [0.0])

    def test_sum_gradient_is_ones(self):
        x = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.backward(ad.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_non_scalar_loss_rejected(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.backward(x * 2.0)

    def test_grad_accumulates_over_reuse(self):
        # L = a*b + a, so dL/da = b + 1, dL/db = a
        a = ad.Parameter("a", np.array(2.0))
        b = ad.Parameter("b", np.array(3.0))
        store = ad.backward(a * b + a, [a, b])
        assert store["a"] == pytest.approx(4.0)
        assert store["b"] == pytest.approx(2.0)

    def test_interior_gradients_released_leaves_kept(self):
        p = ad.Parameter("p", np.array([1.0, -2.0]))
        x = ad.Tensor(np.array([0.5, 3.0]), requires_grad=True)
        const = ad.Tensor(np.array([2.0, 2.0]))
        prod = p * x
        shifted = prod + const
        loss = ad.tsum(shifted * shifted)
        ad.backward(loss, [p])
        for interior in (prod, shifted, loss):
            assert interior.grad is None
        assert const.grad is None  # a constant is never differentiated
        dl = 2.0 * (p.data * x.data + const.data)
        np.testing.assert_array_equal(p.grad, dl * x.data)
        np.testing.assert_array_equal(x.grad, dl * p.data)

    def test_diamond_gradient(self):
        # y = x*x feeds both branches: L = sum(3y + y*y), dL/dx = (3 + 2y) 2x
        x = ad.Tensor(np.array([0.5, -1.5, 2.0]), requires_grad=True)
        y = x * x
        ad.backward(ad.tsum(y * 3.0 + y * y))
        expected = (3.0 + 2.0 * x.data**2) * 2.0 * x.data
        np.testing.assert_allclose(x.grad, expected, rtol=1e-15)
        assert y.grad is None

    def test_second_backward_adds_one_gradient(self):
        # no stale interior gradient may leak into a second pass
        x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = ad.tsum(ad.exp(x * 2.0))
        ad.backward(loss)
        once = x.grad.copy()
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, 2.0 * once)

    def test_no_grad_blocks_recording(self):
        p = ad.Parameter("p", np.ones(2))
        with ad.no_grad():
            out = p * 3.0
        assert not out.requires_grad


class TestGradientCallback:
    """Every recorded node has one gradient callback; backward calls it once
    with the node's gradient and takes the gradients it yields in parent
    order, one per parent that requires one."""

    def test_callback_runs_once_and_skips_constants(self):
        a = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        const = ad.Tensor(np.array([5.0, 5.0]))
        b = ad.Parameter("b", np.array([3.0, 4.0]))
        seen = []

        def grads(g):
            seen.append(g.copy())
            yield 2.0 * g
            yield 3.0 * g

        node = ad._from_grads(a.data + const.data + b.data, "three", (a, const, b),
                              grads)
        assert node._parents == (a, b)
        weights = np.array([0.5, -1.0])
        ad.backward(ad.tsum(node * weights))
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], weights)
        assert const.grad is None
        np.testing.assert_array_equal(a.grad, 2.0 * weights)
        np.testing.assert_array_equal(b.grad, 3.0 * weights)

    def test_parent_listed_twice_gets_both_contributions_in_order(self):
        # `a` is listed twice and takes one term per listing, each added in
        # turn onto the term of a consumer that ran first: (1 + tiny) + tiny
        # rounds to 1, where 1 + (tiny + tiny) would not
        tiny = 2.0 ** -53
        a = ad.Tensor(np.array([0.0, 0.0]), requires_grad=True)
        b = ad.Tensor(np.array([0.0, 0.0]), requires_grad=True)

        def grads(g):
            yield np.full(2, tiny)
            yield 2.0 * g
            yield np.full(2, tiny)

        node = ad._from_grads(np.zeros(2), "twice", (a, b, a), grads)
        assert node._parents == (a, b, a)
        # backward reaches tsum(a) before the node, so a holds 1 already
        ad.backward(ad.tsum(a) + ad.tsum(node))
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        assert 1.0 + (tiny + tiny) != 1.0
        np.testing.assert_array_equal(b.grad, [2.0, 2.0])

    @pytest.mark.parametrize("node,scatters", [("inv_edge_conv", 1),
                                               ("vn_edge_conv", 2),
                                               ("rpr_code", 1)])
    def test_fused_node_runs_its_pass_once(self, monkeypatch, rng, node, scatters):
        # each fused node computes all of its parents' gradients in one
        # pass, so its scatters run once per backward, not once per parent
        knn = np.array([[[1, 2], [2, 0], [0, 1]]])

        def param(name, *shape):
            return ad.Parameter(name, rng.standard_normal(shape))

        if node == "inv_edge_conv":
            out = inv_edge_conv(param("x", 1, 3, 2), knn,
                                SimpleNamespace(weight=param("w1", 4, 3),
                                                bias=param("b1", 3)),
                                SimpleNamespace(weight=param("w2", 3, 2),
                                                bias=param("b2", 2)))
        elif node == "vn_edge_conv":
            out = vn_edge_conv(param("v", 1, 3, 3, 2), knn, param("w", 4, 3),
                               param("d", 3, 1))
        else:
            # the pose code U_i^T (v_j - v_i) of a gated convolution on
            # constant features: its one scatter is the pose features'
            gate = SimpleNamespace(
                fc1=SimpleNamespace(weight=param("gw1", 6, 2), bias=param("gb1", 2)),
                fc2=SimpleNamespace(weight=param("gw2", 2, 2), bias=param("gb2", 2)))
            out = inv_edge_conv(ad.Tensor(rng.standard_normal((1, 3, 2))), knn,
                                SimpleNamespace(weight=param("w1", 4, 3),
                                                bias=param("b1", 3)),
                                SimpleNamespace(weight=param("w2", 3, 2),
                                                bias=param("b2", 2)),
                                gate, param("v", 1, 3, 3, 2), param("u", 1, 3, 3, 3))
        calls = []
        real = ad.scatter_rows

        def counted(*args):
            calls.append(args[0].shape)
            return real(*args)

        monkeypatch.setattr(ad, "scatter_rows", counted)
        ad.backward(ad.tsum(out * ad.Tensor(rng.standard_normal(out.shape))))
        assert len(calls) == scatters


RNG = np.random.default_rng(12345)
CONST_45 = RNG.standard_normal((4, 5))
CONST_43 = RNG.standard_normal((4, 3))
CONST_453 = RNG.standard_normal((4, 5, 3))
KNN_ONE_CLOUD = np.array([[[1, 0, 1], [0, 0, 1]]])
KNN_TWO_CLOUDS = np.array([[[1, 1], [0, 1]], [[0, 0], [1, 0]]])

PRIMITIVE_CASES = [
    ("add", lambda t: ad.tsum((t + ad.Tensor(CONST_45)) * ad.Tensor(CONST_45))),
    ("sub", lambda t: ad.tsum((ad.Tensor(CONST_45) - t) * ad.Tensor(CONST_45))),
    ("mul", lambda t: ad.tsum(t * t * ad.Tensor(CONST_45))),
    ("matmul", lambda t: ad.tsum(ad.matmul(t, ad.Tensor(CONST_45.T @ CONST_43)))),
    ("matmul_batched", lambda t: ad.tsum(
        ad.matmul(ad.reshape(t, (4, 5, 1)), ad.reshape(t, (4, 1, 5))))),
    ("exp", lambda t: ad.tsum(ad.exp(t * 0.3))),
    ("log", lambda t: ad.tsum(ad.log(t * t + 2.0))),
    ("relu", lambda t: ad.tsum(ad.relu(t) * ad.Tensor(CONST_45))),
    ("softmax", lambda t: ad.tsum(ad.softmax(t, axis=-1) * ad.Tensor(CONST_45))),
    ("log_softmax", lambda t: ad.tsum(
        ad.log_softmax(t, axis=-1) * ad.Tensor(np.abs(CONST_45)))),
    ("normalize", lambda t: ad.tsum(ad.normalize(t, axis=-1) * ad.Tensor(CONST_45))),
    ("max", lambda t: ad.tsum(ad.tmax(t, axis=1) * ad.Tensor(CONST_45[:, :1].ravel()[:4]))),
    ("mean", lambda t: ad.tsum(ad.mean(t * t, axis=0))),
    ("sum_axis", lambda t: ad.tsum(ad.tsum(t * t, axis=1, keepdims=True))),
    ("concat", lambda t: ad.tsum(ad.concat([t, t * 2.0], axis=1)
                                 * ad.Tensor(np.hstack([CONST_45, CONST_45])))),
    ("stack", lambda t: ad.tsum(ad.stack([t, t * t], axis=0))),
    ("transpose", lambda t: ad.tsum(ad.transpose(t, (1, 0)) * ad.Tensor(CONST_45.T))),
    ("reshape", lambda t: ad.tsum(ad.reshape(t, (2, 10)) * 1.5)),
    ("getitem_slice", lambda t: ad.tsum(t[1:3, ::2] * 2.0)),
    ("where", lambda t: ad.tsum(ad.where(CONST_45 > 0, t * 2.0, t * t))),
    ("cross", lambda t: ad.tsum(ad.cross(t[:, :3], ad.Tensor(CONST_43))
                                * ad.Tensor(CONST_43))),
    # c + a @ b with every parent a function of t: a per-point c broadcast
    # over a neighbour axis, and a bias c, with 2-D and 4-D a
    ("addmm", lambda t: ad.tsum(ad.addmm(ad.reshape(t[:, :3], (4, 1, 3)),
                                         ad.reshape(t * t, (4, 5, 1)),
                                         t[:1, :3] + 1.0) * ad.Tensor(CONST_453))),
    ("addmm_bias", lambda t: ad.tsum(ad.addmm(t[0], t * 0.5,
                                              ad.gather(t[1:, :], [0, 1, 2, 0, 1]))
                                     * ad.Tensor(CONST_45))),
    ("addmm_4d", lambda t: ad.tsum(ad.addmm(t[0, :2], ad.reshape(t, (2, 2, 5, 1)),
                                           ad.reshape(t[1, 3:], (1, 2)))
                                   * ad.Tensor(CONST_453[:, :, :2].reshape(2, 2, 5, 2)))),
    # one edge convolution with v, W and the direction all functions of t;
    # the second graph repeats neighbours and lists a point as its own
    ("vn_edge_conv", lambda t: ad.tsum(vn_edge_conv(
        ad.reshape(t[:, :3], (1, 2, 3, 2)), KNN_ONE_CLOUD,
        t * 0.5, ad.reshape(t[3], (5, 1)))
        * ad.Tensor(CONST_453[:2].reshape(1, 2, 3, 5)))),
    ("vn_edge_conv_repeated", lambda t: ad.tsum(vn_edge_conv(
        ad.reshape(t[:, :3], (2, 2, 3, 1)), KNN_TWO_CLOUDS,
        ad.reshape(t[2, :4], (2, 2)), ad.reshape(t[3, 3:], (2, 1)))
        * ad.Tensor(CONST_453[:, :3, :2].reshape(2, 2, 3, 2)))),
    # psi's invariant edge convolution: the points, read in each centre's
    # frame, the frame, W1, b1, W2 and b2 all functions of t; the graph
    # repeats neighbours and lists a point as its own
    ("inv_edge_conv", lambda t: ad.tsum(inv_edge_conv(
        ad.reshape(t[1:3, 2:], (1, 2, 3)), KNN_ONE_CLOUD,
        SimpleNamespace(weight=ad.reshape(t[:, :3], (6, 2)), bias=t[2, :2]),
        SimpleNamespace(weight=t[2:4, 3:], bias=t[0, 3:]),
        frame=ad.reshape(ad.reshape(t, (20,))[:18], (1, 2, 3, 3)))
        * ad.Tensor(CONST_453[0, :2, :2].reshape(1, 2, 2)))),
    # the convolution on the neighbour index, gated by the pose gate on a
    # per-edge constant code and on the edges' own feature difference (code
    # None), with the gate's four parameters functions of t too
    *[(name, lambda t, code=code: ad.tsum(inv_edge_conv(
        ad.reshape(t[0, :4], (1, 2, 2)), KNN_ONE_CLOUD,
        SimpleNamespace(weight=t[:, 2:], bias=t[2, :3]),
        SimpleNamespace(weight=ad.transpose(t[1:3, 2:], (1, 0)), bias=t[0, 3:]),
        SimpleNamespace(fc1=SimpleNamespace(weight=t[2:4, :2], bias=t[3, 2:4]),
                        fc2=SimpleNamespace(weight=t[:2, 1:3], bias=t[1, 3:] + 1.0)),
        CONST_453.reshape(-1)[:12].reshape(1, 2, 3, 2) if code else None)
        * ad.Tensor(CONST_453[0, :2, :2].reshape(1, 2, 2))))
      for name, code in (("gated_inv_edge_conv", True),
                         ("gated_inv_edge_conv_invariant", False))],
    # the same gated convolution on the pose code U_i^T (v_j - v_i), with
    # the frame matrix and the features functions of t too
    ("rpr_code", lambda t: ad.tsum(inv_edge_conv(
        ad.reshape(t[0, :4], (1, 2, 2)), KNN_ONE_CLOUD,
        SimpleNamespace(weight=t[:, 2:], bias=t[2, :3]),
        SimpleNamespace(weight=ad.transpose(t[1:3, 2:], (1, 0)), bias=t[0, 3:]),
        SimpleNamespace(fc1=SimpleNamespace(weight=t[1:4, :2], bias=t[3, 2:4]),
                        fc2=SimpleNamespace(weight=t[:2, 1:3], bias=t[1, 3:] + 1.0)),
        ad.reshape(t[1:3, :3] * t[1:3, :3], (1, 2, 3, 1)),
        ad.reshape(ad.reshape(t, (20,))[:18], (1, 2, 3, 3)))
        * ad.Tensor(CONST_453[0, :2, :2].reshape(1, 2, 2)))),
]


class TestGradientOracle:
    """Every primitive against central finite differences (the independent
    derivative oracle): max relative error <= 1e-4 in float64."""

    @pytest.mark.parametrize("name,fn", PRIMITIVE_CASES,
                             ids=[c[0] for c in PRIMITIVE_CASES])
    def test_primitive_matches_finite_differences(self, name, fn):
        x = np.random.default_rng(zlib.crc32(name.encode())).standard_normal((4, 5))
        assert check_tensor_gradient(fn, x) <= 1e-4

    def test_max_routes_to_lowest_index_on_ties(self):
        x = ad.Tensor(np.array([[1.0, 3.0, 3.0, 0.0]]), requires_grad=True)
        out = ad.tmax(x, axis=1)
        assert out.data[0] == 3.0
        ad.backward(ad.tsum(out))
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0, 0.0]])

    def test_normalize_zero_guard(self):
        x = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
        out = ad.normalize(x, axis=-1)
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))
        ad.backward(ad.tsum(out * 2.0))
        assert np.isfinite(x.grad).all()

    def test_finite_difference_helper_on_quadratic(self):
        grad = finite_difference_gradient(lambda v: float((v**2).sum()),
                                          np.array([1.0, -2.0]))
        np.testing.assert_allclose(grad, [2.0, -4.0], atol=1e-6)


def sgd_steps(values, grads, **kwargs):
    """Run SGD on one parameter, one step per gradient; returns it and its velocity."""
    p = ad.Parameter("p", np.array(values))
    opt = ad.SGD([p], **kwargs)
    for g in grads:
        p.grad = np.array(g)
        opt.step()
    return p.data, opt._velocity[0]


class TestOptimizer:
    def test_vanilla_sgd(self):
        values, velocity = sgd_steps([1.0, 2.0], [[0.5, -1.0]], lr=0.1)
        np.testing.assert_allclose(values, [0.95, 2.1])
        np.testing.assert_allclose(velocity, [0.5, -1.0])

    def test_momentum_accumulates(self):
        p, v = sgd_steps([0.0], [[1.0], [1.0]], lr=1.0, momentum=0.5)
        # velocity: 1, then 1.5; parameter: -1, then -2.5
        np.testing.assert_allclose(v, [1.5])
        np.testing.assert_allclose(p, [-2.5])

    def test_weight_decay(self):
        p, _ = sgd_steps([2.0], [[0.0]], lr=0.5, weight_decay=0.1)
        np.testing.assert_allclose(p, [1.9])

    def test_sgd_class_matches_manual(self):
        p = ad.Parameter("p", np.array([1.0]))
        opt = ad.SGD([p], lr=0.1, momentum=0.9)
        p.grad = np.array([2.0])
        opt.step()
        np.testing.assert_allclose(p.data, [0.8])
        p.grad = np.array([2.0])
        opt.step()
        # velocity = 0.9*2 + 2 = 3.8 -> p = 0.8 - 0.38
        np.testing.assert_allclose(p.data, [0.42])

    def test_lr_must_be_positive(self):
        with pytest.raises(ValueError):
            ad.SGD([], lr=0.0)


class TestCosineSchedule:
    def test_initial_epoch_returns_base_rate(self):
        assert ad.cosine_lr(0, 100, 0.1) == pytest.approx(0.1)

    def test_final_epoch_is_zero(self):
        assert ad.cosine_lr(100, 100, 0.1) == pytest.approx(0.0, abs=1e-15)

    def test_midpoint_is_half(self):
        assert ad.cosine_lr(50, 100, 0.1) == pytest.approx(0.05)

    @given(st.integers(1, 200))
    @settings(max_examples=25, deadline=None)
    def test_monotone_decreasing(self, total):
        values = [ad.cosine_lr(e, total, 1.0) for e in range(total + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        params = [ad.Parameter("layer.weight", rng.standard_normal((3, 4))),
                  ad.Parameter("layer.bias", rng.standard_normal(4)),
                  ad.Parameter("scalar", np.array(2.5))]
        path = tmp_path / "model.lckp"
        ad.save_checkpoint(path, params)
        assert path.read_bytes()[:4] == b"LCKP"
        loaded = ad.load_checkpoint(path)
        assert set(loaded) == {"layer.weight", "layer.bias", "scalar"}
        for p in params:
            np.testing.assert_array_equal(loaded[p.name], p.data)

    def test_duplicate_names_rejected(self, tmp_path):
        params = [ad.Parameter("w", np.ones(2)), ad.Parameter("w", np.ones(2))]
        with pytest.raises(ValueError):
            ad.save_checkpoint(tmp_path / "dup.lckp", params)

    def test_duplicate_names_rejected_on_load(self, tmp_path):
        # built by hand: save_checkpoint refuses to write such a file
        entry = (struct.pack("<I", 1) + b"w" + struct.pack("<II", 1, 1)
                 + np.array([1.0]).astype("<f8").tobytes())
        path = tmp_path / "dup.lckp"
        path.write_bytes(b"LCKP" + struct.pack("<I", 2) + entry
                         + entry.replace(np.array([1.0]).astype("<f8").tobytes(),
                                         np.array([2.0]).astype("<f8").tobytes()))
        with pytest.raises(ValueError, match="dup.lckp: duplicate parameter name 'w'"):
            ad.load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.lckp"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            ad.load_checkpoint(path)

    @staticmethod
    def _saved_bytes(tmp_path) -> bytes:
        params = [ad.Parameter("layer.weight", np.arange(6.0).reshape(2, 3)),
                  ad.Parameter("scalar", np.array(2.5))]
        ad.save_checkpoint(tmp_path / "whole.lckp", params)
        return (tmp_path / "whole.lckp").read_bytes()

    def test_truncation_at_every_offset_is_a_named_error(self, tmp_path):
        blob = self._saved_bytes(tmp_path)
        path = tmp_path / "cut.lckp"
        for size in range(len(blob)):
            path.write_bytes(blob[:size])
            with pytest.raises(ValueError, match="cut.lckp"):
                ad.load_checkpoint(path)

    def test_trailing_byte_is_a_named_error(self, tmp_path):
        path = tmp_path / "long.lckp"
        path.write_bytes(self._saved_bytes(tmp_path) + b"\x00")
        with pytest.raises(ValueError, match="long.lckp: 1 trailing byte"):
            ad.load_checkpoint(path)

    def test_invalid_utf8_name_is_a_named_error(self, tmp_path):
        path = tmp_path / "name.lckp"
        ad.save_checkpoint(path, [ad.Parameter("w", np.ones(2))])
        blob = bytearray(path.read_bytes())
        blob[12] = 0xFF  # first byte of the name, after magic, count, length
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="name.lckp: .*UTF-8 at offset 12"):
            ad.load_checkpoint(path)


class TestDeterminism:
    def test_training_step_replays_bit_identical(self):
        def one_step():
            rng = np.random.default_rng(5)
            p = ad.Parameter("w", rng.standard_normal((4, 4)))
            opt = ad.SGD([p], lr=0.05, momentum=0.9)
            x = ad.Tensor(rng.standard_normal((8, 4)))
            for _ in range(3):
                loss = ad.tsum(ad.relu(ad.matmul(x, p)) * 0.25)
                opt.zero_grad()
                ad.backward(loss, [p])
                opt.step()
            return p.data.tobytes()

        assert one_step() == one_step()
