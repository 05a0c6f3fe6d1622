import contextlib

import numpy as np
import pytest

from rotinv import autodiff as ad
from rotinv import vecneuron
from rotinv.dataset import DatasetSpec, generate_dataset
from rotinv.network import named_config

TINY_MODEL = dict(vn_widths=(4, 8), inv_widths=(8, 8, 16), head_channels=2,
                  rpr_channels=2, rpr_hidden=4, classifier_hidden=8,
                  fusion_width=8, k=4)

# (B, N, K) batches on which each per-edge node, run one cloud per block
# (the `per_cloud` fixture), is compared with the same node run as one block,
# which these small batches take under the default budget.  Three clouds give
# a first, a middle and a last block.  N * K = 36 is a multiple of 4, as in
# every benchmark, check and fixture shape; 33 * 5 is not (see
# `vn_edge_conv`'s direction product).
BLOCK_SHAPES = ((3, 9, 4), (3, 33, 5))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def per_cloud(monkeypatch):
    """A context in which every per-edge node runs a batch one cloud per
    block: its one-block budget is 0 bytes."""
    @contextlib.contextmanager
    def blocked():
        with monkeypatch.context() as patched:
            patched.setattr(vecneuron, "BLOCK_BYTES", 0)
            yield
    return blocked


def assert_blocks_agree(per_cloud, node, per_point, weights, exact=True):
    """Run `node(clouds, *leaves)` on the slice `clouds` of the batch, with
    leaves holding those clouds of the arrays `per_point` (first axis the
    batch's clouds) and the arrays `weights`, and with an upstream gradient
    drawn once: as one block, one cloud per block, and on each cloud alone.
    One cloud per block gives the one-block output and per-point gradients
    (bit for bit if `exact`, else within 1e-12 relative), and each weight
    gradient is the sum of the one-cloud runs' in cloud order, bit for bit,
    and within 1e-13 relative of the one-block gradient."""
    g = None

    def run(clouds):
        nonlocal g
        leaves = [ad.Tensor(a[clouds], requires_grad=True) for a in per_point]
        leaves += [ad.Tensor(w, requires_grad=True) for w in weights]
        out = node(clouds, *leaves)
        if g is None:
            g = np.random.default_rng(1).standard_normal(out.shape)
        ad.backward(ad.tsum(out * ad.Tensor(g[clouds])))
        return out.data, [t.grad for t in leaves]

    whole = run(slice(None))
    with per_cloud():
        blocked = run(slice(None))
    alone = [run(slice(i, i + 1)) for i in range(len(per_point[0]))]
    split = len(per_point)
    for a, r in zip([blocked[0]] + blocked[1][:split],
                    [whole[0]] + whole[1][:split]):
        if exact:
            assert np.array_equal(a, r)
        else:
            assert np.abs(a - r).max() <= 1e-12 * np.abs(r).max()
    for i in range(split, len(blocked[1])):
        total = alone[0][1][i]
        for run_grads in alone[1:]:
            total = total + run_grads[1][i]
        assert np.array_equal(blocked[1][i], total), i
        ref = whole[1][i]
        assert np.abs(blocked[1][i] - ref).max() <= 1e-13 * np.abs(ref).max(), i


@pytest.fixture(scope="session")
def tiny_dataset():
    return generate_dataset(DatasetSpec(n_points=32, train_per_class=3,
                                        test_per_class=2, seed=11))


@pytest.fixture
def tiny_config():
    return named_config("full", **TINY_MODEL)


def random_unit_vectors(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)
