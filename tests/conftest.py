import numpy as np
import pytest

from rotinv.dataset import DatasetSpec, generate_dataset
from rotinv.network import named_config

TINY_MODEL = dict(vn_widths=(4, 8), inv_widths=(8, 8, 16), head_channels=2,
                  rpr_channels=2, rpr_hidden=4, classifier_hidden=8,
                  fusion_width=8, k=4)

# (B, N, K) batches on which each per-edge node's no_grad forward, which runs
# one cloud at a time, is compared with its recorded full-batch forward.
# Three clouds give a first, a middle and a last block.  N * K = 36 is a
# multiple of 4, as in every benchmark, check and fixture shape; 33 * 5 is
# not (see `vn_edge_conv`'s direction product).
BLOCK_SHAPES = ((3, 9, 4), (3, 33, 5))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


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
