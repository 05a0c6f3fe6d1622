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


def vn_nonlinearity(v: Tensor, direction_weight: Tensor) -> Tensor:
    """Truncate each channel against the learned direction k = V @ w.

    Channels with a non-negative component along k_hat = k / max(|k|, eps)
    pass through; the rest have their negative component along k_hat
    projected out: v - min(v . k_hat, 0) k_hat.  k co-rotates with the
    input, so the map is equivariant.  This is one tape node: the per-channel
    products and sums stay inside it.
    """
    w = direction_weight
    k = v.data @ w.data                                    # (..., 3, 1)
    norm = np.sqrt((k * k).sum(axis=-2, keepdims=True))
    guarded = np.maximum(norm, ad.NORM_EPS)
    khat = k / guarded
    if not ad._all_finite(khat):
        raise ad.NumericError("vn_nonlinearity")
    # the einsums contract without building a full-size product first
    dot = np.einsum("...dc,...dx->...xc", v.data, khat)   # (..., 1, C)
    trunc = np.minimum(dot, 0.0)
    out = np.einsum("...xc,...dx->...dc", trunc, khat)
    np.subtract(v.data, out, out=out)

    memo: list = []

    def shared(g):
        # backward hands both parents the same g; the small per-channel and
        # per-direction terms are computed once for the two of them
        if not memo or memo[0] is not g:
            # d out / d dot = -k_hat where dot < 0, else 0
            gdot = np.einsum("...dc,...dx->...xc", g, khat)
            gdot *= dot < 0
            gdot *= -1.0
            gkhat = (np.einsum("...dc,...xc->...d", v.data, gdot)
                     - np.einsum("...dc,...xc->...d", g, trunc))[..., None]
            # normalize's backward; below the guard the norm is a constant
            radial = (gkhat * k).sum(axis=-2, keepdims=True)
            gk = gkhat / guarded - np.where(norm > ad.NORM_EPS,
                                            k * radial / guarded**3, 0.0)
            memo[:] = [g, gdot, gk]
        return memo[1], memo[2]

    def vjp_v(g):
        gdot, gk = shared(g)
        grad = np.einsum("...dx,...xc->...dc", khat, gdot)
        grad += g
        grad += gk * w.data.T
        return grad

    def vjp_w(g):
        _, gk = shared(g)
        return v.data.reshape(-1, v.shape[-1]).T @ gk.reshape(-1, 1)

    return ad._from_op(out, "vn_nonlinearity", (v, w), (vjp_v, vjp_w))


def gather_neighbors(features: Tensor, knn: np.ndarray) -> Tensor:
    """Pick per-point neighbor features.

    `features` is (B, N, ...) and `knn` is (B, N, K) of per-cloud indices;
    returns (B, N, K, ...).
    """
    b, n = features.shape[0], features.shape[1]
    flat = ad.reshape(features, (b * n,) + features.shape[2:])
    offsets = (np.arange(b) * n)[:, None, None]
    return ad.gather(flat, knn + offsets)


def edge_linear(x: Tensor, xj: Tensor, weight: Tensor,
                bias: Tensor | None = None) -> Tensor:
    """The edge-convolution linear: per-edge channels (x_i, x_j - x_i) times W.

    `x` is (B, N, ..., C) per point, `xj` is (B, N, K, ..., C) per edge and
    `weight` is (2C, Cout); returns (B, N, K, ..., Cout).  With W_a, W_b the
    first and last C rows of W,

        concat[x_i, x_j - x_i] W + bias = (x_i (W_a - W_b) + bias) + x_j W_b,

    so the center term and the bias are one product per point, added in
    place onto the per-edge product, and no per-edge concat, broadcast copy
    or bias add is built.  The difference channel cancels any constant
    offset added to all points.
    """
    c = x.shape[-1]
    w_a, w_b = weight[:c], weight[c:]
    x_i = ad.reshape(x, x.shape[:2] + (1,) + x.shape[2:])
    center = (ad.matmul(x_i, w_a - w_b) if bias is None
              else ad.addmm(bias, x_i, w_a - w_b))
    return ad.addmm(center, xj, w_b)


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
        if knn.shape[-1] == 0:
            raise ValueError("empty neighborhood: edge convolution needs k >= 1")
        mixed = edge_linear(v, gather_neighbors(v, knn), self.weight)
        out = vn_nonlinearity(mixed, self.direction)
        return ad.mean(out, axis=2)


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
