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
from .geometry import KnnGraph


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

    Channels with a non-negative component along k pass through; the rest
    have their negative component along k projected out.  k co-rotates with
    the input, so the map is equivariant.
    """
    k = ad.matmul(v, direction_weight)            # (..., 3, 1)
    khat = ad.normalize(k, axis=-2)
    dot = ad.tsum(v * khat, axis=-2, keepdims=True)   # (..., 1, C)
    return v + ad.relu(-dot) * khat


def gather_neighbors(features: Tensor, knn: np.ndarray) -> Tensor:
    """Pick per-point neighbor features.

    `features` is (B, N, ...) and `knn` is (B, N, K) of per-cloud indices;
    returns (B, N, K, ...).
    """
    b, n = features.shape[0], features.shape[1]
    flat = ad.reshape(features, (b * n,) + features.shape[2:])
    offsets = (np.arange(b) * n)[:, None, None]
    return ad.gather(flat, knn + offsets)


def edge_linear(x: Tensor, xj: Tensor, weight: Tensor) -> Tensor:
    """The edge-convolution linear: per-edge channels (x_i, x_j - x_i) times W.

    `x` is (B, N, ..., C) per point, `xj` is (B, N, K, ..., C) per edge and
    `weight` is (2C, Cout); returns (B, N, K, ..., Cout).  With W_a, W_b the
    first and last C rows of W,

        concat[x_i, x_j - x_i] W = x_i (W_a - W_b) + x_j W_b,

    so the center term is one product per point, broadcast over K by the add,
    and no per-edge concat or broadcast copy is built.  The difference
    channel cancels any constant offset added to all points.
    """
    c = x.shape[-1]
    w_a, w_b = weight[:c], weight[c:]
    x_i = ad.reshape(x, x.shape[:2] + (1,) + x.shape[2:])
    return ad.matmul(x_i, w_a - w_b) + ad.matmul(xj, w_b)


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

    def __call__(self, points: Tensor, knn: np.ndarray | KnnGraph) -> Tensor:
        idx = knn.indices if isinstance(knn, KnnGraph) else knn
        if idx.ndim == 2:
            idx = idx[None]
        b, n = points.shape[0], points.shape[1]
        v = ad.reshape(points, (b, n, 3, 1))
        for layer in self.layers:
            v = layer(v, idx)
        return v


def vn_invariant_head(v: Tensor, weight: Tensor) -> Tensor:
    """Gram read-out V^T (V W): channel inner products, (..., C, C').

    Invariant because (RV)^T (RV W) = V^T (V W).
    """
    mixed = vn_linear(v, weight)
    return ad.matmul(ad.swap_last_axes(v), mixed)
