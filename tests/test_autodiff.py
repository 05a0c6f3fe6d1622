import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotinv import autodiff as ad
from rotinv.gradcheck import check_tensor_gradient, finite_difference_gradient
from rotinv.vecneuron import vn_nonlinearity


class TestForwardBasics:
    def test_matmul_identity(self):
        a = np.random.default_rng(0).standard_normal((3, 4))
        out = ad.matmul(ad.Tensor(np.eye(3)), ad.Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_gather_rows(self):
        t = ad.Tensor([[1.0], [2.0], [3.0]])
        out = ad.gather(t, [2, 0])
        np.testing.assert_array_equal(out.data, [[3.0], [1.0]])

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
        with pytest.raises(ad.NumericError) as err:
            ad.div(ad.Tensor([1.0]), ad.Tensor([0.0]))
        assert err.value.op == "div"
        with pytest.raises(ad.NumericError) as err:
            ad.sqrt(ad.Tensor([-1.0]))
        assert err.value.op == "sqrt"

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

    def test_no_grad_blocks_recording(self):
        p = ad.Parameter("p", np.ones(2))
        with ad.no_grad():
            out = p * 3.0
        assert not out.requires_grad


RNG = np.random.default_rng(12345)
CONST_45 = RNG.standard_normal((4, 5))
CONST_43 = RNG.standard_normal((4, 3))
CONST_453 = RNG.standard_normal((4, 5, 3))

PRIMITIVE_CASES = [
    ("add", lambda t: ad.tsum((t + ad.Tensor(CONST_45)) * ad.Tensor(CONST_45))),
    ("sub", lambda t: ad.tsum((ad.Tensor(CONST_45) - t) * ad.Tensor(CONST_45))),
    ("mul", lambda t: ad.tsum(t * t * ad.Tensor(CONST_45))),
    ("div", lambda t: ad.tsum(ad.div(ad.Tensor(CONST_45), t + 5.0))),
    ("matmul", lambda t: ad.tsum(ad.matmul(t, ad.Tensor(CONST_45.T @ CONST_43)))),
    ("matmul_batched", lambda t: ad.tsum(
        ad.matmul(ad.reshape(t, (4, 5, 1)), ad.reshape(t, (4, 1, 5))))),
    ("sqrt", lambda t: ad.tsum(ad.sqrt(t * t + 1.0))),
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
    ("broadcast_to", lambda t: ad.tsum(
        ad.broadcast_to(ad.reshape(t, (4, 5, 1)), (4, 5, 3)) * ad.Tensor(CONST_453))),
    ("getitem_slice", lambda t: ad.tsum(t[1:3, ::2] * 2.0)),
    ("getitem_fancy", lambda t: ad.tsum(t[np.array([[0, 2], [1, 1]])] * 3.0)),
    ("where", lambda t: ad.tsum(ad.where(CONST_45 > 0, t * 2.0, t * t))),
    ("cross", lambda t: ad.tsum(ad.cross(t[:, :3], ad.Tensor(CONST_43))
                                * ad.Tensor(CONST_43))),
    # c + a @ b with every parent a function of t: a per-point c broadcast
    # over a neighbour axis, and a bias c, with 2-D and 4-D a
    ("addmm", lambda t: ad.tsum(ad.addmm(ad.reshape(t[:, :3], (4, 1, 3)),
                                         ad.reshape(t * t, (4, 5, 1)),
                                         t[:1, :3] + 1.0) * ad.Tensor(CONST_453))),
    ("addmm_bias", lambda t: ad.tsum(ad.addmm(t[0], t * 0.5, t[1:, :]
                                              [np.array([0, 1, 2, 0, 1])])
                                     * ad.Tensor(CONST_45))),
    ("addmm_4d", lambda t: ad.tsum(ad.addmm(t[0, :2], ad.reshape(t, (2, 2, 5, 1)),
                                           ad.reshape(t[1, 3:], (1, 2)))
                                   * ad.Tensor(CONST_453[:, :, :2].reshape(2, 2, 5, 2)))),
    ("vn_nonlinearity", lambda t: ad.tsum(vn_nonlinearity(
        ad.reshape(t[:3, :4], (1, 3, 4)) * ad.Tensor(CONST_453[:3, :4, 0]),
        ad.reshape(t[3, :4], (4, 1))) * ad.Tensor(CONST_453[:3, :4, 1]))),
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

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.lckp"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
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
