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


def cloud_rows(knn: np.ndarray, n: int) -> np.ndarray:
    """Per-cloud neighbour indices (B, N, K) as int64 rows of each cloud's
    N points.  An index outside [0, N) would read another cloud's point of
    a flattened batch, or wrap around, so it raises ValueError."""
    idx = ad.row_indices(knn)
    if idx.size and idx.max() >= n:
        raise ValueError(f"neighbour index {idx.max()} out of range for "
                         f"clouds of {n} points")
    return idx


def over_clouds(op: str, parents: dict[str, Tensor], forward, backward,
                per_cloud: tuple[str, ...], **buffers) -> Tensor:
    """The tape node `op` of a per-edge node on `parents`, run one cloud at
    a time: per cloud, its (N, K, ...) per-edge arrays take 1-2 MiB at
    default size and stay in cache, where over a batch of 16 they take
    32 MiB each and go out to DRAM (cache blocking, Lam, Rothberg & Wolf,
    ASPLOS 1991).

    The clouds are the one-cloud slices `blk` of the batch axis of
    `parents[per_cloud[0]]`.  `forward(blk, out)` returns cloud `blk`'s
    rows of the output, written to one (B, ...) array; `out` maps each name
    of `buffers` to an array of the one-cloud shape given there, allocated
    once and written by every cloud in turn.  Fresh per-edge arrays for
    each cloud, made while a training step's graph is alive (the invariance
    probe), fragmented the heap: default-train peak RSS spread from 241 to
    276 MiB against 244-251 MiB.

    When the node is recorded, backward calls `backward(g, blk)` for each
    cloud with the node's gradient `g` and joins the gradients it returns
    by parent name: those named in `per_cloud` (per point or per edge) are
    written to their rows of one (B, ...) array, the others (weights and
    biases) are added up in cloud order.  The node's one gradient callback
    yields them in parent order.
    """
    clouds = [slice(i, i + 1) for i in range(parents[per_cloud[0]].shape[0])]

    def join(run, stacked: tuple[str, ...]) -> dict[str, np.ndarray]:
        total: dict[str, np.ndarray] = {}
        for blk in clouds:
            for name, part in run(blk).items():
                if name in stacked:
                    if name not in total:
                        total[name] = np.empty((len(clouds),) + part.shape[1:])
                    total[name][blk] = part
                elif name in total:
                    total[name] += part
                else:
                    total[name] = part
        return total

    out = {name: np.empty(shape) for name, shape in buffers.items()}
    data = join(lambda blk: {"out": forward(blk, out)}, ("out",))["out"]

    def grads(g):
        computed = join(lambda blk: backward(g, blk), per_cloud)
        for name, parent in parents.items():
            if parent.requires_grad:
                yield computed.pop(name)

    return ad._from_grads(data, op, tuple(parents.values()), grads)


def gather_neighbors(features: Tensor, knn: np.ndarray) -> Tensor:
    """Pick per-point neighbor features.

    `features` is (B, N, ...) and `knn` is (B, N, K) of per-cloud indices;
    returns (B, N, K, ...).
    """
    b, n = features.shape[0], features.shape[1]
    flat = ad.reshape(features, (b * n,) + features.shape[2:])
    return ad.gather(flat, cloud_rows(knn, n) + (np.arange(b) * n)[:, None, None])


def vn_edge_conv(v: Tensor, knn: np.ndarray, weight: Tensor,
                 direction: Tensor) -> Tensor:
    """One vector-neuron edge convolution as one tape node: edge linear,
    truncation against a learned direction, and the mean over neighbours.

    `v` is (B, N, 3, C) per point, `knn` (B, N, K) per-cloud indices,
    `weight` (2C, Cout) and `direction` (Cout, 1); returns (B, N, 3, Cout).
    Per edge, with W_a, W_b the first and last C rows of W,

        m = concat[v_i, v_j - v_i] W = v_i (W_a - W_b) + v_j W_b,

    so both products are per point, taken per cloud, the second gathered after.
    Each channel of m is truncated against k_hat = k / max(|k|, eps),
    k = m @ direction: m - min(m . k_hat, 0) k_hat, which is equivariant
    because k co-rotates with the input.  The output is the mean over the
    K neighbours, formed as mean_k(m) - sum_k min(m . k_hat, 0) k_hat / K,
    so the truncated per-edge tensor is never built.  That sum over K, and
    the two sums over K in backward, are one small GEMM per point,
    (3, K) @ (K, Cout) or its transposes, not per-edge einsums.

    The node keeps nothing beyond its parents (activation recomputation,
    Chen et al. 2016): backward forms each cloud's two per-point products
    and per-edge terms again with the same arithmetic, so the same bits,
    forms the per-edge gradient of m once, sums it over K for the centre
    product and scatters it to rows for the neighbour product
    (`ad.scatter_rows`); what is left are per-point products.  The node's
    one gradient callback yields the gradients of v, the weight and the
    direction from that one pass.  The difference channel cancels any
    constant offset added to all points.

    Forward and backward run one cloud at a time (`over_clouds`): the
    forward checks each cloud's k_hat for non-finite values, and backward
    adds the weight and direction gradients over the clouds in cloud order.
    """
    _, n, _, c = v.shape
    n_nbr = knn.shape[-1]
    if n_nbr == 0:
        raise ValueError("empty neighborhood: edge convolution needs k >= 1")
    rows = cloud_rows(knn, n)
    w_b = weight.data[c:]
    w_ab = weight.data[:c] - w_b
    w_dir = direction.data
    cout = w_b.shape[1]

    def edges(blk, out=None):
        """Per edge of the cloud `blk`: m (written to `out` if given), k,
        |k|, max(|k|, eps), k_hat and min(m . k_hat, 0)."""
        v_blk = v.data[blk.start].reshape(-1, c)
        # (1, N, K, 3, Cout); cloud_rows has checked every index
        m = np.take((v_blk @ w_b).reshape(n, 3, cout), rows[blk], axis=0,
                    out=out, mode="clip")
        m += (v_blk @ w_ab).reshape(n, 1, 3, cout)
        k = (m.reshape(-1, cout) @ w_dir).reshape(m.shape[:-1] + (1,))
        khat, norm, guarded = ad.normalize_forward(k, axis=-2)
        # the einsums contract without building a full-size product first
        trunc = np.minimum(np.einsum("...dc,...dx->...xc", m, khat), 0.0)
        return m, k, norm, guarded, khat, trunc

    def per_point(a: np.ndarray) -> np.ndarray:
        """A cloud's (1, N, K, ...) per-edge array as N (K, width) matrices,
        so that a contraction over K is one small GEMM per point."""
        return a.reshape(n, n_nbr, -1)

    def forward(blk, out):
        m, _, _, _, khat, trunc = edges(blk, out["m"])
        if not ad._all_finite(khat):
            raise ad.NumericError("vn_edge_conv")
        total = m.sum(axis=2)
        total -= np.swapaxes(per_point(khat), -1, -2) @ per_point(trunc)
        total *= 1.0 / n_nbr
        return total

    def shared(g, blk):
        """The centre, neighbour and direction gradients of the cloud
        `blk`; every per-edge array dies when this returns."""
        m, k, norm, guarded, khat, trunc = edges(blk)
        g_edge = g[blk] * (1.0 / n_nbr)   # each edge's share of the mean
        g_point = g_edge.reshape(n, 3, cout)
        # d out / d (m . k_hat) = -k_hat where m . k_hat < 0, else 0
        gdot = (per_point(khat) @ g_point).reshape(trunc.shape)
        gdot *= trunc < 0
        gdot *= -1.0
        gkhat = (np.einsum("...dc,...xc->...d", m, gdot)
                 - per_point(trunc) @ np.swapaxes(g_point, -1, -2))[..., None]
        gk = ad.normalize_vjp(gkhat, k, norm, guarded, axis=-2)
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
        g_neighbor = (ad.scatter_rows(gm, rows[blk], n)
                      + ad.scatter_rows(gk, rows[blk], n) * w_dir.T)
        return g_center.reshape(-1, cout), g_neighbor.reshape(-1, cout), g_dir

    kept: list = []

    def backward(g, blk):
        g_center, g_neighbor, g_dir = shared(g, blk)
        # g and the cloud's three gradients are kept until the next cloud or
        # until the tape dies: freed when the callback returns, they let the
        # allocator trim the heap and fault it back in every step (desk-train
        # about 4100 minor page faults per step against 300-1100 kept, and
        # step_s.p50 10-20% slower at seeds 3, 5 and 6)
        kept[:] = (g, g_center, g_neighbor, g_dir)
        grads = {"direction": g_dir}
        if v.requires_grad:
            grad = g_neighbor @ w_b.T
            grad += g_center @ w_ab.T
            grads["v"] = grad.reshape((-1,) + v.shape[1:])
        if weight.requires_grad:
            v_blk = v.data[blk].reshape(-1, c)
            g_ab = v_blk.T @ g_center
            grads["weight"] = np.concatenate([g_ab, v_blk.T @ g_neighbor - g_ab])
        return grads

    parents = {"v": v, "weight": weight, "direction": direction}
    return over_clouds("vn_edge_conv", parents, forward, backward, ("v",),
                       m=(1, n, n_nbr, 3, cout))


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


def vn_invariant_pool(v: Tensor, weight: Tensor) -> Tensor:
    """The Gram read-out V^T (V W), invariant as (RV)^T (RV W) = V^T (V W),
    max-pooled over the points as one tape node: (B, N, 3, C), (C, C') to
    (B, C C').  It keeps V W and the argmax over N (first on ties, as `ad.tmax`),
    not the Gram product; backward takes the op-by-op graph's products per
    cloud, the weight's as one GEMM, and lists `v` once per product: same bits."""
    b, n, _, c = v.shape
    mixed = v.data @ weight.data                  # (B, N, 3, C')
    out = np.empty((b, c * mixed.shape[-1]))
    idx = np.empty(out.shape, dtype=np.int64) if ad.recording((v, weight)) else None
    for i in range(b):
        gram = (np.swapaxes(v.data[i], -1, -2) @ mixed[i]).reshape(n, -1)
        gram.max(axis=0, out=out[i])
        if idx is not None:
            gram.argmax(axis=0, out=idx[i])

    def grads(g):
        g_vt, g_mixed = np.empty((b, n, c, 3)), np.empty(mixed.shape)
        g_gram = np.zeros((n, out.shape[1]))
        g_cloud, columns = g_gram.reshape(n, c, -1), np.arange(out.shape[1])
        for i in range(b):
            g_gram[idx[i], columns] = g[i]
            np.matmul(g_cloud, np.swapaxes(mixed[i], -1, -2), out=g_vt[i])
            np.matmul(v.data[i], g_cloud, out=g_mixed[i])
            g_gram[idx[i], columns] = 0.0
        if v.requires_grad:
            yield from (np.swapaxes(g_vt, -1, -2), g_mixed @ weight.data.T)
        if weight.requires_grad:
            yield v.data.reshape(-1, c).T @ g_mixed.reshape(-1, g_mixed.shape[-1])

    return ad._from_grads(out, "vn_invariant_pool", (v, v, weight), grads)
