"""Rotation-equivariant vector-neuron layers and the equivariant encoder.

Features are arrays shaped (..., 3, C): C channels of 3D vectors per point.
Linear layers mix channels only, so they commute with rotations; the
nonlinearity truncates each channel against a learned direction that
co-rotates with the input.  Batched point features are (B, N, 3, C).
"""
from __future__ import annotations

import zlib

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor


def seeded_normal(name: str, shape, seed: int, std: float | None = None) -> np.ndarray:
    """Per-name deterministic init so a parameter's values do not depend on
    which other parameters exist or the order they are created in.

    Default std is the He scale sqrt(2 / fan_in), which keeps activations
    alive through relu-style stacks without normalization layers.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))
    if std is None:
        fan_in = shape[0] if len(shape) > 1 else max(shape[0], 1)
        std = np.sqrt(2.0 / fan_in)
    return std * rng.standard_normal(shape)


def vn_linear(v: Tensor, weight: Tensor) -> Tensor:
    """Mix vector channels: (..., 3, Cin) @ (Cin, Cout)."""
    return ad.matmul(v, weight)


def batch_rows(knn: np.ndarray, b: int, n: int) -> np.ndarray:
    """Per-cloud neighbour indices (B, N, K) as rows of the flattened
    (B * N) batch.  An index outside [0, N) would read another cloud's
    point, so it raises ValueError."""
    idx = ad.row_indices(knn)
    if idx.size and idx.max() >= n:
        raise ValueError(f"neighbour index {idx.max()} out of range for "
                         f"clouds of {n} points")
    return idx + (np.arange(b) * n)[:, None, None]


def over_clouds(parents, b: int, block, **buffers) -> np.ndarray:
    """A per-edge node's forward, `block(blk, out)` for a slice `blk` of the
    batch's clouds: called once on the whole batch when the graph records
    the node, else once per cloud and joined along axis 0.

    Per cloud, the (N, K, ...) per-edge arrays of a default-size model take
    1-2 MiB and stay in cache; over a batch of 32 they take 32 MiB each and
    go out to DRAM (cache blocking, Lam, Rothberg & Wolf, ASPLOS 1991).

    `out` maps each name of `buffers` to an array of the one-cloud shape
    given there, allocated once and written by every cloud in turn; on the
    whole batch it is empty and each op allocates its own result, as the
    node did before it was blocked.  Fresh per-edge arrays for each cloud,
    made while a training step's graph is alive (the invariance probe),
    fragmented the heap: default-train peak RSS spread from 241 to 276 MiB
    against 244-251 MiB.  A recorded forward keeps one block, as its
    backward rebuilds the per-edge arrays for the whole batch.
    """
    if b <= 1 or ad.recording(parents):
        return block(slice(None), {})
    out = {name: np.empty(shape) for name, shape in buffers.items()}
    return np.concatenate([block(slice(i, i + 1), out) for i in range(b)])


def gather_neighbors(features: Tensor, knn: np.ndarray) -> Tensor:
    """Pick per-point neighbor features.

    `features` is (B, N, ...) and `knn` is (B, N, K) of per-cloud indices;
    returns (B, N, K, ...).
    """
    b, n = features.shape[0], features.shape[1]
    flat = ad.reshape(features, (b * n,) + features.shape[2:])
    return ad.gather(flat, batch_rows(knn, b, n))


def vn_edge_conv(v: Tensor, knn: np.ndarray, weight: Tensor,
                 direction: Tensor) -> Tensor:
    """One vector-neuron edge convolution as one tape node: edge linear,
    truncation against a learned direction, and the mean over neighbours.

    `v` is (B, N, 3, C) per point, `knn` (B, N, K) per-cloud indices,
    `weight` (2C, Cout) and `direction` (Cout, 1); returns (B, N, 3, Cout).
    Per edge, with W_a, W_b the first and last C rows of W,

        m = concat[v_i, v_j - v_i] W = v_i (W_a - W_b) + v_j W_b,

    so both products are taken per point and the second is gathered after.
    Each channel of m is truncated against k_hat = k / max(|k|, eps),
    k = m @ direction: m - min(m . k_hat, 0) k_hat, which is equivariant
    because k co-rotates with the input.  The output is the mean over the
    K neighbours, formed as mean_k(m) - sum_k min(m . k_hat, 0) k_hat / K,
    so the truncated per-edge tensor is never built.

    The node keeps only the two per-point products; backward builds the
    per-edge terms again (bit-identical: the same gather and arithmetic),
    forms the per-edge gradient of m once, sums it over K for the centre
    product and scatters it to rows for the neighbour product
    (`ad.scatter_rows`); what is left are per-point products.  The node's
    one gradient callback yields the gradients of v, the weight and the
    direction from that one pass.  The difference channel cancels any
    constant offset added to all points.

    The forward builds the per-edge terms `over_clouds`: one cloud at a
    time under `no_grad`, the whole batch when recorded, and checks every
    block's k_hat for non-finite values.  The direction product is one BLAS
    gemv over the N * K * 3 rows of a block, which takes rows in groups of
    4 and its last rows through another kernel.  So with N * K not a
    multiple of 4 a one-cloud block regroups rows and can change their last
    bit (at most 1.7e-16 of the output's largest value over 300 random
    shapes); at every other shape the blocked forward is bit-identical to
    the recorded one.
    """
    b, n, _, c = v.shape
    n_nbr = knn.shape[-1]
    if n_nbr == 0:
        raise ValueError("empty neighborhood: edge convolution needs k >= 1")
    rows = batch_rows(knn, b, n)
    w_b = weight.data[c:]
    w_ab = weight.data[:c] - w_b
    w_dir = direction.data
    cout = w_b.shape[1]
    flat_v = v.data.reshape(-1, c)
    neighbor = (flat_v @ w_b).reshape(b * n, 3, cout)
    center = (flat_v @ w_ab).reshape(b, n, 1, 3, cout)

    def edges(blk=slice(None), out=None):
        """Per edge of the clouds in `blk`: m (written to `out` if given),
        k, |k|, max(|k|, eps), k_hat and min(m . k_hat, 0)."""
        # (B, N, K, 3, Cout); batch_rows has checked every index
        m = np.take(neighbor, rows[blk], axis=0, out=out, mode="clip")
        m += center[blk]
        k = (m.reshape(-1, cout) @ w_dir).reshape(m.shape[:-1] + (1,))
        norm = np.sqrt((k * k).sum(axis=-2, keepdims=True))
        guarded = np.maximum(norm, ad.NORM_EPS)
        khat = k / guarded
        # the einsums contract without building a full-size product first
        trunc = np.minimum(np.einsum("...dc,...dx->...xc", m, khat), 0.0)
        return m, k, norm, guarded, khat, trunc

    def block(blk, out):
        m, _, _, _, khat, trunc = edges(blk, out.get("m"))
        if not ad._all_finite(khat):
            raise ad.NumericError("vn_edge_conv")
        total = m.sum(axis=2)
        total -= np.einsum("bnkxc,bnkdx->bndc", trunc, khat)
        return total

    out = over_clouds((v, weight, direction), b, block, m=(1, n, n_nbr, 3, cout))
    out *= 1.0 / n_nbr

    def shared(g):
        """The centre, neighbour and direction gradients; every per-edge
        array dies when this returns."""
        m, k, norm, guarded, khat, trunc = edges()
        g_edge = g * (1.0 / n_nbr)        # each edge's share of the mean
        # d out / d (m . k_hat) = -k_hat where m . k_hat < 0, else 0
        gdot = np.einsum("bndc,bnkdx->bnkxc", g_edge, khat)
        gdot *= trunc < 0
        gdot *= -1.0
        gkhat = (np.einsum("...dc,...xc->...d", m, gdot)
                 - np.einsum("bndc,bnkxc->bnkd", g_edge, trunc))[..., None]
        # normalize's backward; below the guard the norm is a constant
        radial = (gkhat * k).sum(axis=-2, keepdims=True)
        gk = gkhat / guarded - np.where(norm > ad.NORM_EPS,
                                        k * radial / guarded**3, 0.0)
        g_dir = m.reshape(-1, cout).T @ gk.reshape(-1, 1)
        # each per-edge array is dropped as soon as it is dead, which keeps
        # the scatter below from holding m beside the gradient
        del m, trunc
        gm = np.einsum("...dx,...xc->...dc", khat, gdot)
        del gdot
        gm += g_edge[:, :, None]
        # the direction's term gk w^T is rank one over the channels, so it
        # is summed and scattered at width one and widened after
        g_center = gm.sum(axis=2) + gk.sum(axis=2) * w_dir.T
        g_neighbor = (ad.scatter_rows(gm, rows, b * n)
                      + ad.scatter_rows(gk, rows, b * n) * w_dir.T)
        return g_center.reshape(-1, cout), g_neighbor.reshape(-1, cout), g_dir

    kept: list = []

    def grads(g):
        g_center, g_neighbor, g_dir = shared(g)
        # g and the three gradients are kept until the tape dies: freed
        # when backward leaves the node, they moved the heap's layout and
        # default-train peak RSS read 255 MiB at each of seeds 1-6 and 9,
        # against a median of 249 over seeds 1-12 when kept (parent 251)
        kept[:] = (g, g_center, g_neighbor, g_dir)
        if v.requires_grad:
            grad = g_neighbor @ w_b.T
            grad += g_center @ w_ab.T
            yield grad.reshape(v.shape)
        if weight.requires_grad:
            g_ab = flat_v.T @ g_center
            yield np.concatenate([g_ab, flat_v.T @ g_neighbor - g_ab])
        if direction.requires_grad:
            yield g_dir

    return ad._from_grads(out, "vn_edge_conv", (v, weight, direction), grads)


class VnEdgeConv:
    """Edge convolution in vector-neuron form with channelwise mean aggregation."""

    def __init__(self, name: str, in_channels: int, out_channels: int, seed: int):
        # vector channels are mixed linearly and the truncation keeps most of
        # their magnitude, so use the norm-preserving 1/sqrt(fan_in) gain
        # rather than the relu gain
        fan_in = 2 * in_channels
        self.weight = Parameter(f"{name}.weight",
                                seeded_normal(f"{name}.weight",
                                              (fan_in, out_channels), seed,
                                              std=1.0 / np.sqrt(fan_in)))
        self.direction = Parameter(f"{name}.direction",
                                   seeded_normal(f"{name}.direction",
                                                 (out_channels, 1), seed,
                                                 std=1.0 / np.sqrt(out_channels)))

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.direction]

    def __call__(self, v: Tensor, knn: np.ndarray) -> Tensor:
        return vn_edge_conv(v, knn, self.weight, self.direction)


class EquivariantEncoder:
    """Stack of vector-neuron edge convolutions over a fixed coordinate graph.

    The first layer lifts raw points to a single vector channel v = p.
    """

    def __init__(self, widths: tuple[int, ...], seed: int, name: str = "eqv"):
        self.layers: list[VnEdgeConv] = []
        in_ch = 1
        for i, w in enumerate(widths):
            self.layers.append(VnEdgeConv(f"{name}.conv{i}", in_ch, w, seed))
            in_ch = w
        self.out_channels = in_ch

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def __call__(self, points: Tensor, knn: np.ndarray) -> Tensor:
        """(B, N, 3) points over their (B, N, K) graph to (B, N, 3, C)."""
        b, n = points.shape[0], points.shape[1]
        v = ad.reshape(points, (b, n, 3, 1))
        for layer in self.layers:
            v = layer(v, knn)
        return v


def vn_invariant_head(v: Tensor, weight: Tensor) -> Tensor:
    """Gram read-out V^T (V W): channel inner products, (..., C, C').

    Invariant because (RV)^T (RV W) = V^T (V W).
    """
    mixed = vn_linear(v, weight)
    return ad.matmul(ad.swap_last_axes(v), mixed)
