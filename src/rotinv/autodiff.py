"""Reverse-mode automatic differentiation over dense float64 arrays.

A small tape-free engine in the micrograd style: every op returns a new
Tensor that remembers its parents and one gradient callback that yields
each parent's gradient, as PyTorch's ``autograd.Function.backward`` returns
one per input.  ``backward`` topologically sorts the graph, calls each
callback once and accumulates gradients into the leaves; an interior node's
gradient is released as soon as its callback has run, so only leaves keep
``.grad`` afterwards.  Everything is float64 and single-threaded per graph.
"""
from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np


class NumericError(ArithmeticError):
    """A forward op produced a NaN or Inf value."""

    def __init__(self, op: str, message: str = ""):
        self.op = op
        super().__init__(message or f"non-finite values produced by op '{op}'")


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (pure inference)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _all_finite(a: np.ndarray) -> bool:
    # NaN/Inf both propagate through sum(); cheaper than isfinite().all()
    # on large arrays because no bool temporary is allocated.
    return bool(np.isfinite(a.sum()))


# When False, only ops that can create non-finite values from finite inputs
# (log, exp, normalize) are checked; training loops additionally watch the
# loss.  Flip on for exhaustive per-op checking in tests.
_strict_finite_checks = False


def set_strict_finite_checks(enabled: bool) -> bool:
    """Toggle per-op finite checking on every op; returns the previous value."""
    global _strict_finite_checks
    prev = _strict_finite_checks
    _strict_finite_checks = bool(enabled)
    return prev


class Tensor:
    """A float64 ndarray plus the graph edges needed for backward."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grads", "_op",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.isfinite(self.data).all():
            raise ValueError("tensor values must be finite")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._grads: Callable[[np.ndarray], Iterable[np.ndarray]] | None = None
        self._op = ""

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op or 'leaf'!r})"

    # operator sugar; scalars and ndarrays are wrapped as constants
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return mul(self, _wrap(-1.0))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __getitem__(self, key):
        return getitem(self, key)


class Parameter(Tensor):
    """A named leaf tensor with requires_grad set; the unit of checkpointing."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def recording(parents: Iterable[Tensor]) -> bool:
    """Whether an op on `parents` is recorded on the graph."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _from_grads(data: np.ndarray, op: str, parents: Sequence[Tensor],
                grads: Callable[[np.ndarray], Iterable[np.ndarray]] | None,
                check: bool = False) -> Tensor:
    """The node of an op on `parents`.  When it is recorded, backward calls
    `grads(g)` once with the node's gradient, and it yields the gradient of
    each parent that requires one, in parent order.  A parent listed twice
    gets both contributions, added in parent order: so a node can add the
    terms of a parent's gradient in the order a graph of smaller ops did."""
    if (check or _strict_finite_checks) and not _all_finite(data):
        raise NumericError(op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = recorded = recording(parents)
    out._parents = tuple(p for p in parents if recorded and p.requires_grad)
    out._grads = grads if recorded else None
    out._op = op
    return out


def _from_op(data: np.ndarray, op: str, parents: Sequence[Tensor],
             vjps: Sequence[Callable[[np.ndarray], np.ndarray]],
             check: bool = False) -> Tensor:
    """A primitive's node, from one vector-Jacobian product per parent."""
    grads = None
    if recording(parents):
        kept = [v for p, v in zip(parents, vjps) if p.requires_grad]
        grads = lambda g: (vjp(g) for vjp in kept)
    return _from_grads(data, op, parents, grads, check)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    return _from_op(a.data + b.data, "add", (a, b),
                    (lambda g: _unbroadcast(g, a.shape),
                     lambda g: _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _from_op(a.data - b.data, "sub", (a, b),
                    (lambda g: _unbroadcast(g, a.shape),
                     lambda g: _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _from_op(a.data * b.data, "mul", (a, b),
                    (lambda g: _unbroadcast(g * b.data, a.shape),
                     lambda g: _unbroadcast(g * a.data, b.shape)))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _from_op(out, "exp", (a,), (lambda g: g * out,), check=True)


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    return _from_op(out, "log", (a,), (lambda g: g / a.data,), check=True)


def relu(a: Tensor) -> Tensor:
    # np.maximum propagates NaN; the mask is only built when backward runs
    return _from_op(np.maximum(a.data, 0.0), "relu", (a,),
                    (lambda g: g * (a.data > 0),))


# ---------------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape) -> Tensor:
    return _from_op(a.data.reshape(shape), "reshape", (a,),
                    (lambda g: g.reshape(a.shape),))


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _from_op(a.data.transpose(axes), "transpose", (a,),
                    (lambda g: g.transpose(inv),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        sl = [slice(None)] * data.ndim
        sl[axis] = slice(offsets[i], offsets[i + 1])
        sl = tuple(sl)
        return lambda g: g[sl]

    return _from_op(data, "concat", tensors,
                    [make_vjp(i) for i in range(len(tensors))])


def stack(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    nd = tensors[0].ndim + 1
    ax = axis % nd
    shape = list(tensors[0].shape)
    shape.insert(ax, 1)
    return concat([reshape(t, shape) for t in tensors], axis=ax)


def getitem(a: Tensor, key) -> Tensor:
    """Basic indexing (ints, slices, None, ...); `gather` takes rows."""
    parts = key if isinstance(key, tuple) else (key,)
    if not all(isinstance(k, (int, np.integer, slice)) or k is None or k is Ellipsis
               for k in parts):
        raise TypeError(f"getitem takes basic keys only (gather takes rows), "
                        f"got {key!r}")
    data = np.asarray(a.data[key], dtype=np.float64)

    def vjp(g):
        # basic indexing selects each element at most once: nothing to sum
        out = np.zeros(a.shape)
        out[key] = g
        return out

    return _from_op(data, "getitem", (a,), (vjp,))


def row_indices(indices) -> np.ndarray:
    """`indices` as an int64 array of row numbers; negative ones are
    rejected, because `scatter_rows` cannot take them."""
    idx = np.asarray(indices)
    if idx.size and idx.dtype.kind not in "iu":
        raise TypeError(f"row indices must be integers, got {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
    if idx.size and idx.min() < 0:
        raise ValueError(f"row indices must be non-negative, got {idx.min()}")
    return idx


# Entries per column block in scatter_rows: bounds its index and weight
# temporaries at 8 MiB each, whatever the size of the gradient.
SCATTER_BLOCK = 1 << 20


def scatter_rows(g: np.ndarray, idx: np.ndarray, n_rows: int) -> np.ndarray:
    """The transpose of a row gather: out[idx[e]] += g[e] for every e.

    `idx` holds non-negative row numbers and `g` is idx.shape + row shape.
    One `np.bincount` over flat row x column indices per block of columns
    adds each column's terms in the order of `idx`, exactly as `np.add.at`
    does, so the result is bit-identical to it and about twice as fast.
    """
    row_shape = g.shape[idx.ndim:]
    width = math.prod(row_shape)
    out = np.zeros((n_rows, width))
    if idx.size == 0 or width == 0:
        return out.reshape((n_rows,) + row_shape)
    flat_g = g.reshape(idx.size, width)
    step = max(1, SCATTER_BLOCK // idx.size)
    for lo in range(0, width, step):
        w = min(step, width - lo)
        flat = idx.reshape(-1, 1) * w + np.arange(w)
        out[:, lo:lo + w] = np.bincount(
            flat.ravel(), weights=flat_g[:, lo:lo + w].ravel(),
            minlength=n_rows * w).reshape(n_rows, w)
    return out.reshape((n_rows,) + row_shape)


def gather(a: Tensor, indices) -> Tensor:
    """Select rows of `a` along axis 0; `indices` may have any shape and
    must be non-negative.  The gradient is summed back with `scatter_rows`."""
    idx = row_indices(indices)
    data = a.data[idx]
    return _from_op(data, "getitem", (a,),
                    (lambda g: scatter_rows(g, idx, a.shape[0]),))


def where(mask, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select with a constant boolean mask (a where True)."""
    mask = np.asarray(mask, dtype=bool)
    a, b = _wrap(a), _wrap(b)
    return _from_op(np.where(mask, a.data, b.data), "where", (a, b),
                    (lambda g: _unbroadcast(np.where(mask, g, 0.0), a.shape),
                     lambda g: _unbroadcast(np.where(mask, 0.0, g), b.shape)))


# ---------------------------------------------------------------------------
# reductions and linear algebra


def _sum_vjp(a: Tensor, axis, keepdims):
    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.shape)
    return vjp


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    return _from_op(np.asarray(data), "sum", (a,),
                    (_sum_vjp(a, axis, keepdims),))


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def tmax(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max over one axis; backward routes to the argmax (lowest index on ties).

    The argmax is found only when backward runs, so inference pays for the
    max alone.
    """
    data = a.data.max(axis=axis, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        idx = np.expand_dims(np.argmax(a.data, axis=axis), axis)  # first wins ties
        out = np.zeros(a.shape)
        np.put_along_axis(out, idx, g, axis=axis)
        return out

    return _from_op(data, "max", (a,), (vjp,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data @ b.data

    def vjp_a(g):
        return _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)

    def vjp_b(g):
        if b.ndim == 2 and a.ndim > 2:
            flat_a = a.data.reshape(-1, a.shape[-1])
            flat_g = g.reshape(-1, g.shape[-1])
            return flat_a.T @ flat_g
        return _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)

    return _from_op(data, "matmul", (a, b), (vjp_a, vjp_b))


def addmm(c: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """c + a @ b for a 2-D weight `b`; `c` broadcasts to the product's shape.

    The add runs in place on the freshly allocated product, so a bias or a
    per-point term costs no second full-size array.
    """
    if b.ndim != 2:
        raise ValueError(f"addmm needs a 2-D weight, got shape {b.shape}")
    data = a.data @ b.data
    np.add(data, c.data, out=data)

    def vjp_b(g):
        return a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])

    return _from_op(data, "addmm", (c, a, b),
                    (lambda g: _unbroadcast(g, c.shape),
                     lambda g: g @ b.data.T,
                     vjp_b))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return s * (g - (g * s).sum(axis=axis, keepdims=True))

    return _from_op(s, "softmax", (a,), (vjp,))


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    m = tmax(a, axis=axis, keepdims=True)
    shifted = sub(a, m)
    return sub(shifted, log(tsum(exp(shifted), axis=axis, keepdims=True)))


NORM_EPS = 1e-12


def normalize_forward(x: np.ndarray, axis: int = -1, eps: float = NORM_EPS):
    """x / max(||x||, eps) along one axis, with ||x|| and max(||x||, eps),
    which `normalize_vjp` takes; the guard keeps zero inputs finite."""
    n = np.sqrt((x * x).sum(axis=axis, keepdims=True))
    guarded = np.maximum(n, eps)
    return x / guarded, n, guarded


def normalize_vjp(g, x, n, guarded, axis: int = -1, eps: float = NORM_EPS):
    """The gradient of x from the gradient g of its `normalize_forward`;
    below the guard the norm is a constant."""
    dot = (g * x).sum(axis=axis, keepdims=True)
    return g / guarded - np.where(n > eps, x * dot / guarded**3, 0.0)


def normalize(a: Tensor, axis: int = -1, eps: float = NORM_EPS) -> Tensor:
    """`normalize_forward` as a tape node."""
    out, n, guarded = normalize_forward(a.data, axis, eps)
    return _from_op(out, "normalize", (a,),
                    (lambda g: normalize_vjp(g, a.data, n, guarded, axis, eps),),
                    check=True)


def cross(a: Tensor, b: Tensor) -> Tensor:
    """Cross product over a trailing axis of extent 3."""
    data = np.cross(a.data, b.data)
    return _from_op(data, "cross", (a, b),
                    (lambda g: _unbroadcast(np.cross(b.data, g), a.shape),
                     lambda g: _unbroadcast(np.cross(g, a.data), b.shape)))


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor, params: Iterable[Parameter] | None = None) -> dict[str, np.ndarray]:
    """Accumulate dloss/dx into .grad of every leaf reachable from `loss`.

    Each recorded node's gradient callback runs once.  Leaves (parameters
    and user tensors with requires_grad) keep their gradient.  An interior
    node's gradient is dropped once its callback has run; reverse
    topological order guarantees every consumer has contributed by then, so
    it is never needed again.  With `params` given, returns the
    gradient store {name: gradient}; any parameter the loss does not depend
    on gets a zero gradient.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        g = node.grad
        if g is None or not node._parents:      # a leaf keeps its gradient
            continue
        for parent, contribution in zip(node._parents, node._grads(g)):
            if parent.grad is None:
                parent.grad = contribution
            else:
                parent.grad = parent.grad + contribution
        node.grad = None
    store: dict[str, np.ndarray] = {}
    if params is not None:
        for p in params:
            if p.grad is None:
                p.grad = np.zeros(p.shape)
            store[p.name] = p.grad
    return store


def zero_grad(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# optimizer


def cosine_lr(epoch: int, total_epochs: int, lr0: float) -> float:
    """Cosine annealing from lr0 at epoch 0 to 0 at epoch == total_epochs."""
    return lr0 * (1.0 + np.cos(np.pi * epoch / total_epochs)) / 2.0


class SGD:
    """SGD with momentum and weight decay over a list of Parameters."""

    def __init__(self, params: Sequence[Parameter], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros(p.shape) for p in self.params]

    def step(self) -> None:
        """v <- momentum * v + (grad + weight_decay * p); p <- p - lr * v."""
        for p, v in zip(self.params, self._velocity):
            g = p.grad if p.grad is not None else np.zeros(p.shape)
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            v[...] = self.momentum * v + g
            p.data = p.data - self.lr * v

    def zero_grad(self) -> None:
        zero_grad(self.params)


# ---------------------------------------------------------------------------
# checkpoint format: magic "LCKP", little-endian, float64 values

CHECKPOINT_MAGIC = b"LCKP"


def save_checkpoint(path, params: Iterable[Parameter]) -> None:
    params = list(params)
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise ValueError("parameter names must be unique")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(params)))
        for p in params:
            name = p.name.encode("utf-8")
            fh.write(struct.pack("<I", len(name)))
            fh.write(name)
            fh.write(struct.pack("<I", p.ndim))
            fh.write(struct.pack(f"<{p.ndim}I", *p.shape))
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a `.lckp` file; a file cut short at any field, a parameter name
    that is not valid UTF-8 or that repeats an earlier one, or bytes left
    after the last parameter raise ValueError naming the path."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    pos = 4

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if len(blob) - pos < n:
            raise ValueError(f"{path}: truncated checkpoint: {what} needs "
                             f"{n} bytes at offset {pos}, {len(blob) - pos} left")
        pos += n
        return blob[pos - n:pos]

    (count,) = struct.unpack("<I", take(4, "parameter count"))
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        raw_name = take(name_len, "parameter name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: parameter name is not valid UTF-8 "
                             f"at offset {pos - name_len + err.start}") from None
        if name in out:
            raise ValueError(f"{path}: duplicate parameter name {name!r}")
        (ndim,) = struct.unpack("<I", take(4, f"ndim of {name!r}"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"shape of {name!r}"))
        values = take(8 * math.prod(shape), f"values of {name!r}")
        out[name] = np.frombuffer(values, dtype="<f8").reshape(shape).astype(np.float64)
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} trailing bytes after "
                         f"the last parameter")
    return out
