import tracemalloc

import numpy as np
import pytest

from rotinv import autodiff as ad
from rotinv.dataset import DatasetSpec, generate_dataset
from rotinv.network import named_config

TINY_MODEL = dict(vn_widths=(4, 8), inv_widths=(8, 8, 16), head_channels=2,
                  rpr_channels=2, rpr_hidden=4, classifier_hidden=8,
                  fusion_width=8, k=4)

# (B, N, K) batches on which each per-edge node, run on the whole batch, is
# compared with the same node run on each cloud alone.  Three clouds give a
# first, a middle and a last one; N * K = 36 is a multiple of 4, the row
# group of BLAS's kernels, as in every benchmark, check and fixture shape,
# and 33 * 5 is not.
BLOCK_SHAPES = ((3, 9, 4), (3, 33, 5))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def join_clouds(runs, per_point):
    """A batch's (output, gradients) from `runs`, one (output, gradients)
    pair per cloud run alone: the output and the first `per_point`
    gradients stacked over the clouds, the others (weights) added up in
    cloud order.  A gradient that is None in every run stays None."""
    outs, grads = zip(*runs)
    joined = []
    for i, parts in enumerate(zip(*grads)):
        if parts[0] is None:
            joined.append(None)
        elif i < per_point:
            joined.append(np.concatenate(parts))
        else:
            total = parts[0]
            for part in parts[1:]:
                total = total + part
            joined.append(total)
    return np.concatenate(outs), joined


def assert_batch_is_its_clouds(node, per_point, weights):
    """Run `node(clouds, *leaves)` on the slice `clouds` of the batch, with
    leaves holding those clouds of the arrays `per_point` (first axis the
    batch's clouds) and the arrays `weights`, and with an upstream gradient
    drawn once: on the whole batch and on each cloud alone.  The batch is
    its clouds: its output and per-point gradients are the clouds' stacked,
    and each weight gradient is the sum of the clouds' in cloud order, bit
    for bit."""
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

    out, grads = run(slice(None))
    ref, ref_grads = join_clouds(
        [run(slice(i, i + 1)) for i in range(len(per_point[0]))], len(per_point))
    assert np.array_equal(out, ref)
    for i, (a, r) in enumerate(zip(grads, ref_grads)):
        assert np.array_equal(a, r), i


def max_pool_weights(rng, b, n, c):
    """(B, N, C) upstream weights shaped as the gradient of a max over the N
    points: per cloud and channel one point, drawn at random, carries a
    nonzero weight and every other point a zero, so only the points that
    win some channel (PointNet's critical set) receive a gradient."""
    weights = np.zeros((b, n, c))
    points = rng.integers(0, n, (b, c))
    weights[np.arange(b)[:, None], points, np.arange(c)] = rng.standard_normal((b, c))
    return weights


def traced_live_mib(fn):
    """Run `fn()` under tracemalloc and return (live, peak) in MiB: what the
    allocations made while it ran still hold with its result alive, and the
    most they held at once."""
    tracemalloc.start()
    try:
        result = fn()               # alive while the live bytes are read
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return live / 2**20, peak / 2**20


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
