"""Dense float64 tensors with reverse-mode automatic differentiation.

Just enough of an autodiff engine to train the motion forecaster: numpy
holds the buffers, every differentiable op records a vector-Jacobian
closure, and ``backward`` walks the graph once in topological order.
Single-threaded by contract; no views beyond contiguous reshape.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference/eval paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    return arr


class Tensor:
    """A dense float64 array participating in a reverse-mode graph.

    ``grad`` accumulates across ``backward`` calls until ``zero_grad``.
    Data buffers are not defensively copied; callers own aliasing.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    # -- construction of graph nodes -------------------------------------

    @staticmethod
    def _result(data, parents, vjp):
        out = Tensor(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjp = vjp
        return out

    # -- basic introspection ----------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def detach(self) -> "Tensor":
        """A graph-free tensor sharing this tensor's buffer."""
        return Tensor(self.data)

    # -- autodiff ----------------------------------------------------------

    def backward(self):
        """Propagate d(self)/d(leaf) into ``.grad`` of every reachable leaf.

        ``self`` must be scalar. Gradients land on graph leaves (parameters
        and explicitly-created inputs) and accumulate across repeated calls;
        each node's closure runs exactly once per call.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() requires a scalar loss, got shape {self.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # Per-call flow map keeps repeated backward() calls additive in .grad.
        flows: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            flow = flows.pop(id(node), None)
            if flow is None:
                continue
            if node.requires_grad and not node._parents:
                node.grad = flow.copy() if node.grad is None else node.grad + flow
            if node._vjp is not None:
                for parent, contribution in node._vjp(flow):
                    if not parent.requires_grad:
                        continue
                    key = id(parent)
                    if key in flows:
                        flows[key] = flows[key] + contribution
                    else:
                        flows[key] = contribution

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, index):
        return take(self, index)

    # -- method forms of common ops -----------------------------------------

    def reshape(self, shape):
        return reshape(self, shape)

    def swapaxes(self, axis1, axis2):
        return swapaxes(self, axis1, axis2)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def sqrt(self):
        return sqrt(self)

    def abs(self):
        return tabs(self)

    def relu(self):
        return relu(self)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _check_broadcast(a: Tensor, b: Tensor, op: str):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} are not broadcast-compatible") from None


# -- elementwise ops ---------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "add")

    def vjp(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape)))

    return Tensor._result(a.data + b.data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")

    def vjp(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape)))

    return Tensor._result(a.data - b.data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "mul")

    def vjp(g):
        return ((a, _unbroadcast(g * b.data, a.shape)), (b, _unbroadcast(g * a.data, b.shape)))

    return Tensor._result(a.data * b.data, (a, b), vjp)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0  # tie at exactly 0 passes zero gradient

    def vjp(g):
        return ((a, g * mask),)

    return Tensor._result(np.where(mask, a.data, 0.0), (a,), vjp)


# -- matmul and the fused linear and attention ops -------------------------------


def _check_matmul(a: tuple, b: tuple, op: str):
    """Raise unless arrays of shapes ``a`` and ``b`` can be matrix-multiplied."""
    if len(a) < 2 or len(b) < 2:
        raise DimensionError(f"{op} requires rank >= 2 operands, got {a} and {b}")
    if a[-1] != b[-2]:
        raise DimensionError(f"{op}: inner extents differ for shapes {a} and {b}")
    try:
        np.broadcast_shapes(a[:-2], b[:-2])
    except ValueError:
        raise DimensionError(f"{op}: batch extents of {a} and {b} do not broadcast") from None


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_matmul(a.shape, b.shape, "matmul")

    def vjp(g):
        ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape)
        gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape)
        return ((a, ga), (b, gb))

    return Tensor._result(a.data @ b.data, (a, b), vjp)


def linear(x, W, b) -> Tensor:
    """``x @ W + b`` as one node; backward needs only x and W, so the
    product is not kept. Values and gradients equal ``matmul`` then ``add``."""
    x, W, b = as_tensor(x), as_tensor(W), as_tensor(b)
    _check_matmul(x.shape, W.shape, "linear")
    product = x.data @ W.data
    try:
        fits = np.broadcast_shapes(product.shape, b.shape) == product.shape
    except ValueError:
        fits = False
    if not fits:
        raise DimensionError(f"linear: bias {b.shape} does not broadcast to {product.shape}")
    product += b.data

    def vjp(g):
        gx = _unbroadcast(g @ W.data.swapaxes(-1, -2), x.shape)
        gW = _unbroadcast(x.data.swapaxes(-1, -2) @ g, W.shape)
        return ((x, gx), (W, gW), (b, _unbroadcast(g, b.shape)))

    return Tensor._result(product, (x, W, b), vjp)


def attention(q, k, v, heads: int, scale: float, collect=None) -> Tensor:
    """Per-head ``softmax(q @ kᵀ · scale) @ v`` on (..., T, D) projections, as one node.

    q is (..., Tq, D) and k, v are (..., Tk, D): any number of query rows
    attend over all key rows, and the output is (..., Tq, D). The node owns
    the head layout: it splits q, k and v into (..., H, T, D/H) views and
    merges the context back, and so does its vjp. It keeps one
    (..., H, Tq, Tk) buffer, the probabilities, which ``collect`` (a list)
    receives when given. The numpy expressions are those of the
    reshape/swapaxes, ``matmul``, softmax, ``matmul`` chain kept as the oracle
    in the tests, on the same views, so values and gradients equal it bit for bit.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if k.shape != v.shape or q.ndim != k.ndim or q.shape[:-2] != k.shape[:-2] \
            or q.shape[-1:] != k.shape[-1:]:
        raise DimensionError(
            f"attention: q {q.shape}, k {k.shape} and v {v.shape} do not match "
            "(k and v must agree, and q may differ from them only in rows)"
        )
    if heads < 1 or q.ndim < 2 or q.shape[-1] % heads:
        raise DimensionError(f"attention: shape {q.shape} does not split into {heads} heads")

    def heads_of(x):  # (..., T, D) -> (..., H, T, D/H)
        return x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads)).swapaxes(-3, -2)

    def merged(x, like):  # (..., H, T, D/H) -> (..., T, D), the shape of ``like``
        return x.swapaxes(-3, -2).reshape(like.shape)

    qh, kh, vh = heads_of(q.data), heads_of(k.data), heads_of(v.data)
    probs = qh @ kh.swapaxes(-1, -2)
    probs *= scale
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    if collect is not None:
        collect.append(probs)

    def vjp(g):
        g = heads_of(g)
        gprobs = g @ vh.swapaxes(-1, -2)
        gv = probs.swapaxes(-1, -2) @ g
        gscores = probs * (gprobs - (gprobs * probs).sum(axis=-1, keepdims=True))
        gscores *= scale
        gq = gscores @ kh
        gk = (qh.swapaxes(-1, -2) @ gscores).swapaxes(-1, -2)
        return ((q, merged(gq, q)), (k, merged(gk, k)), (v, merged(gv, v)))

    return Tensor._result(merged(probs @ vh, q), (q, k, v), vjp)


# -- layer norm ----------------------------------------------------------------


def layer_norm(x, gain, bias, eps=1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    feat = x.shape[-1]
    if gain.shape != (feat,) or bias.shape != (feat,):
        raise DimensionError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} do not match feature extent {feat}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    std = np.sqrt(var + eps)
    xhat = (x.data - mu) / std

    def vjp(g):
        gxhat = g * gain.data
        gx = (
            gxhat
            - gxhat.mean(axis=-1, keepdims=True)
            - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
        ) / std
        reduce_axes = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=reduce_axes)
        gbias = g.sum(axis=reduce_axes)
        return ((x, gx), (gain, ggain), (bias, gbias))

    return Tensor._result(xhat * gain.data + bias.data, (x, gain, bias), vjp)


# -- reductions and pointwise maths -------------------------------------------


def _expand_reduced(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    axes = axis if isinstance(axis, tuple) else (axis,)
    if not keepdims:
        for ax in sorted(a % len(shape) for a in axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def tsum(x, axis=None, keepdims=False) -> Tensor:
    x = as_tensor(x)

    def vjp(g):
        return ((x, _expand_reduced(g, x.shape, axis, keepdims).copy()),)

    return Tensor._result(x.data.sum(axis=axis, keepdims=keepdims), (x,), vjp)


def tmean(x, axis=None, keepdims=False) -> Tensor:
    x = as_tensor(x)
    out = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.data.size / max(out.size, 1)

    def vjp(g):
        return ((x, _expand_reduced(g, x.shape, axis, keepdims) / count),)

    return Tensor._result(out, (x,), vjp)


def sqrt(x) -> Tensor:
    x = as_tensor(x)
    out = np.sqrt(x.data)

    def vjp(g):
        return ((x, g * 0.5 / out),)

    return Tensor._result(out, (x,), vjp)


def tabs(x) -> Tensor:
    x = as_tensor(x)

    def vjp(g):
        return ((x, g * np.sign(x.data)),)

    return Tensor._result(np.abs(x.data), (x,), vjp)


# -- shape ops ----------------------------------------------------------------


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    old_shape = x.shape

    def vjp(g):
        return ((x, g.reshape(old_shape)),)

    return Tensor._result(x.data.reshape(shape), (x,), vjp)


def swapaxes(x, axis1, axis2) -> Tensor:
    x = as_tensor(x)

    def vjp(g):
        return ((x, g.swapaxes(axis1, axis2)),)

    return Tensor._result(x.data.swapaxes(axis1, axis2), (x,), vjp)


def _is_basic_index(index) -> bool:
    parts = index if isinstance(index, tuple) else (index,)
    return all(isinstance(p, (int, np.integer, slice)) or p is Ellipsis for p in parts)


def take(x, index) -> Tensor:
    """Indexing by ints, slices, ellipsis, or index lists; gradient scatters back."""
    x = as_tensor(x)
    basic = _is_basic_index(index)

    def vjp(g):
        gx = np.zeros_like(x.data)
        if basic:  # no repeated targets possible, buffered add is safe and fast
            gx[index] += g
        else:
            np.add.at(gx, index, g)
        return ((x, gx),)

    return Tensor._result(x.data[index], (x,), vjp)


def stack(tensors: Sequence, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("stack requires at least one tensor")
    first = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != first:
            raise DimensionError(f"stack: shapes {first} and {t.shape} differ")

    def vjp(g):
        parts = np.moveaxis(g, axis, 0)
        return tuple((t, parts[i].copy()) for i, t in enumerate(tensors))

    return Tensor._result(np.stack([t.data for t in tensors], axis=axis), tuple(tensors), vjp)


def concat(tensors: Sequence, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concat requires at least one tensor")
    extents = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + extents)

    def vjp(g):
        moved = np.moveaxis(g, axis, 0)
        return tuple(
            (t, np.moveaxis(moved[offsets[i]:offsets[i + 1]], 0, axis).copy())
            for i, t in enumerate(tensors)
        )

    return Tensor._result(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), vjp)


def global_grad_norm(tensors: Iterable[Tensor]) -> float:
    """L2 norm over all grads, treating missing grads as zero."""
    total = 0.0
    for t in tensors:
        if t.grad is not None:
            total += float((t.grad * t.grad).sum())
    return float(np.sqrt(total))
