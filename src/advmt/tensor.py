"""Dense float64 tensors with reverse-mode automatic differentiation.

Just enough of an autodiff engine to train the motion forecaster: numpy
holds the buffers, every differentiable op records a vector-Jacobian
closure, and ``backward`` walks the graph once in topological order.
No views beyond contiguous reshape.

Threads: graph building and ``backward`` stay on one thread. Forwards on
disjoint inputs may run concurrently only without a graph, inside a
``no_grad`` block that the calling thread holds around the whole
concurrent section; other threads only read the grad flag. There the
encoder runs its block builders (``window_in``, ``attention_block``,
``feed_forward_block``, ``frame_out``) on arrays, which read the shared
parameters and write only arrays they allocate.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
from typing import Iterable, NamedTuple, Sequence

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


# A train step frees its whole graph (the step peaks at about 69 MB at batch
# 8) when it returns, and a no-grad rollout frees each forward's buffers. glibc
# gives the free top of its heap back to the OS once it exceeds a trim
# threshold that it adapts to earlier allocations, so whether the next step
# faults all of it in again (a minor fault per 4 KB page) would depend on
# allocation order alone. Fixed thresholds keep freed memory in the process
# for the next step; the peak is the same.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters
_TRIM_THRESHOLD = 1 << 30
_MMAP_THRESHOLD = 32 << 20  # the ceiling of glibc's adaptive threshold on 64-bit


@functools.cache
def _keep_freed_memory():
    """Fix glibc's malloc thresholds for the process; later calls do nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc: nothing to set
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


class Tensor:
    """A dense float64 array participating in a reverse-mode graph.

    ``grad`` accumulates across ``backward`` calls until ``zero_grad``.
    Data buffers are not defensively copied; callers own aliasing.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
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


def _relu(a: np.ndarray, out=None) -> np.ndarray:
    """``np.where(a > 0, a, 0.0)`` bit for bit, several times faster, into
    ``out`` (which may be ``a``): ``fmax`` gives 0.0 for NaN and may keep
    -0.0, which ``+= 0.0`` turns into +0.0."""
    out = np.fmax(a, 0.0, out=np.empty_like(a) if out is None else out)
    out += 0.0
    return out


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0  # tie at exactly 0 passes zero gradient

    def vjp(g):
        return ((a, g * mask),)

    return Tensor._result(_relu(a.data), (a,), vjp)


# -- matmul and the fused nodes: linear and the encoder's nodes ---------------


def _check_matmul(a: tuple, b: tuple, op: str):
    """Raise unless arrays of shapes ``a`` and ``b`` can be matrix-multiplied."""
    if len(a) < 2 or len(b) < 2:
        raise DimensionError(f"{op} requires rank >= 2 operands, got {a} and {b}")
    if a[-1] != b[-2]:
        raise DimensionError(f"{op}: inner extents differ for shapes {a} and {b}")
    for m, n in zip(reversed(a[:-2]), reversed(b[:-2])):
        if m != n and m != 1 and n != 1:
            raise DimensionError(f"{op}: batch extents of {a} and {b} do not broadcast")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_matmul(a.shape, b.shape, "matmul")

    def vjp(g):
        ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape)
        gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape)
        return ((a, ga), (b, gb))

    return Tensor._result(a.data @ b.data, (a, b), vjp)


def _affine(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = x @ W
    out += b
    return out


def _affine_grads(x: np.ndarray, W: np.ndarray, b: np.ndarray, g: np.ndarray) -> tuple:
    """(gx, gW, gb) of ``x @ W + b`` at cotangent ``g``, the rules of ``matmul`` then ``add``."""
    return (
        _unbroadcast(g @ W.swapaxes(-1, -2), x.shape),
        _unbroadcast(x.swapaxes(-1, -2) @ g, W.shape),
        _unbroadcast(g, b.shape),
    )


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
        gx, gW, gb = _affine_grads(x.data, W.data, b.data, g)
        return ((x, gx), (W, gW), (b, gb))

    return Tensor._result(product, (x, W, b), vjp)


LN_EPS = 1e-5


def _normalize(x: np.ndarray, std=None) -> tuple:
    """(xhat, std): the last axis at zero mean and unit variance, and its std.
    In-place steps on ``x - mean`` give the bytes of ``(x - mu) / sqrt(var + eps)``.
    Given the ``std`` an earlier call returned for the same ``x``, only xhat is
    rebuilt, with the same steps and so the same bytes."""
    n = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True)  # ``x.mean``'s steps, without its wrapper
    mean /= n
    d = x - mean
    if std is None:
        std = np.add.reduce(np.square(d), axis=-1, keepdims=True)
        std /= n
        std += LN_EPS
        np.sqrt(std, out=std)
    d /= std
    return d, std


def _normalize_grads(g: np.ndarray, xhat: np.ndarray, std: np.ndarray, gain: np.ndarray) -> tuple:
    """(gx, ggain, gbias) of the layer norm ``xhat * gain + bias`` at cotangent ``g``.
    The steps are the ufuncs of ``(gxhat - gxhat.mean(-1) - xhat * (gxhat *
    xhat).mean(-1)) / std`` with ``gxhat = g * gain``, on the same operands in
    the same order, written into two temporaries, so the bytes are the same."""
    gx = g * gain
    tmp = gx * xhat
    m = tmp.mean(axis=-1, keepdims=True)
    gx -= gx.mean(axis=-1, keepdims=True)
    np.multiply(xhat, m, out=tmp)
    gx -= tmp
    gx /= std
    reduce_axes = tuple(range(g.ndim - 1))
    np.multiply(g, xhat, out=tmp)
    return gx, tmp.sum(axis=reduce_axes), g.sum(axis=reduce_axes)


def _check_block(op: str, shape: tuple, arrays, shapes: list):
    """Raise, naming every shape, unless ``shape`` is (..., T, D) and the arrays have ``shapes``."""
    got = [a.shape for a in arrays]
    if len(shape) < 2 or got != shapes:
        raise DimensionError(
            f"{op}: input {shape} and parameters {got} do not fit; "
            f"expected (..., T, D) and {shapes}"
        )


class Stage(NamedTuple):
    """A chain of encoder blocks that ``encoder_stack`` makes one node: the last
    block's ``out``, the ``parents`` (the chain's input, then each block's
    parameters), the input's array ``x`` and one (block, arrays, args, std)
    step per block, all backward needs to rebuild ``out``: no activation."""
    out: np.ndarray
    parents: tuple
    x: np.ndarray
    steps: tuple


def source(x) -> Stage:
    """A tensor as a chain's first stage, before any block."""
    x = as_tensor(x)
    return Stage(x.data, (x,), x.data, ())


def _operands(x, params: tuple) -> tuple:
    """(the input's shape, params, their arrays) for a block on ``x``: on a
    stage the params, as tensors, join its parents; on an array they may be
    tensors or arrays."""
    if isinstance(x, Stage):
        params = tuple(map(as_tensor, params))
        return x.out.shape, params, tuple([p.data for p in params])
    return x.shape, params, [p.data if isinstance(p, Tensor) else p for p in params]


def _step(block, x, params: tuple, arrays, args=(), collect=None):
    """``block(x, arrays, *args, std=None, collect=None) -> (out, std, vjp)`` on
    ``x``: on an array, ``out``; on a stage, the next stage, whose step keeps
    the ``arrays`` and ``std``, with which a rerun gives ``out``'s bytes. The
    vjp runs once, returns (x's gradient, the arrays'), frees state early."""
    if isinstance(x, Stage):
        out, std, _ = block(x.out, arrays, *args, collect=collect)
        return Stage(out, x.parents + params, x.x, x.steps + ((block, arrays, args, std),))
    return block(x, arrays, *args, collect=collect)[0]


def _window_in(x, arrays, std=None, collect=None) -> tuple:
    root, mean, inv_std, W, b, pe = arrays
    s = x - (root + mean)
    z = s * inv_std
    out = _affine(z, W, b)
    out += pe

    def vjp(g):
        gz, gW, gb = _affine_grads(z, W, b, g)
        gs = _unbroadcast(gz * inv_std, s.shape)
        # the offset root + mean's gradient, which the oracle's ``add`` passes on to both
        goffset = _unbroadcast(-gs, np.broadcast_shapes(root.shape, mean.shape))
        grads = (goffset, goffset, gz * s, gW, gb, g)
        return _unbroadcast(gs, x.shape), tuple(_unbroadcast(gr, a.shape)
                                                for a, gr in zip(arrays, grads))

    return out, None, vjp


def window_in(x, root, mean, inv_std, W, b, pe):
    """The encoder's input transform ``((x - (root + mean)) * inv_std) @ W + b + pe``
    on a (..., T, 3N) window and its last frame's (..., 1, 3N) tiled root: a
    tensor ``x`` starts a chain (see ``_step``). The oracle is ``add``,
    ``sub``, ``mul``, ``linear``, ``add``."""
    if not isinstance(x, (Stage, np.ndarray)):
        x = source(x)
    shape, params, arrays = _operands(x, (root, mean, inv_std, W, b, pe))
    _check_matmul(shape, arrays[3].shape, "window_in")
    return _step(_window_in, x, params, arrays)


def _heads_of(a: np.ndarray, heads: int) -> np.ndarray:
    """(..., T, D) -> (..., H, T, D/H)."""
    return a.reshape(a.shape[:-1] + (heads, a.shape[-1] // heads)).swapaxes(-3, -2)


def _merged(a: np.ndarray, shape: tuple) -> np.ndarray:
    """(..., H, T, D/H) -> (..., T, D)."""
    return a.swapaxes(-3, -2).reshape(shape)


def _queried(a: np.ndarray, rows) -> np.ndarray:
    """The rows that query: the last ``rows``, or all of them."""
    return a if rows is None else a[..., -rows:, :]


def _attention(x, arrays, heads: int, rows, std=None, collect=None) -> tuple:
    gain, bias, wq, bq, wk, bk, wv, bv, wo, bo = arrays
    xhat, std = _normalize(x, std)
    h = xhat * gain
    h += bias
    hq = _queried(h, rows)
    qh = _heads_of(_affine(hq, wq, bq), heads)
    kh, vh = _heads_of(_affine(h, wk, bk), heads), _heads_of(_affine(h, wv, bv), heads)
    scale = 1.0 / math.sqrt(x.shape[-1] // heads)
    probs = qh @ kh.swapaxes(-1, -2)
    probs *= scale
    probs -= np.maximum.reduce(probs, axis=-1, keepdims=True)  # ``max``'s steps, unwrapped
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    if collect is not None:
        collect.append(probs)
    ctx = np.empty(hq.shape)  # the heads' products land in their merged places
    np.matmul(probs, vh, out=_heads_of(ctx, heads))
    state = [(xhat, h, hq, qh, kh, vh, probs, ctx)]  # the vjp pops it, so its ``del``s free

    def vjp(g):  # in-place steps and early ``del``s keep few temporaries alive
        xhat, h, hq, qh, kh, vh, probs, ctx = state.pop()
        gctx, gwo, gbo = _affine_grads(ctx, wo, bo, g)
        gctx = _heads_of(gctx, heads)
        del ctx
        gv = probs.swapaxes(-1, -2) @ gctx
        gscores = gctx @ vh.swapaxes(-1, -2)  # the probabilities' gradient, for now
        del gctx, vh
        gscores -= (gscores * probs).sum(axis=-1, keepdims=True)
        gscores *= probs
        gscores *= scale
        del probs
        gq = _merged(gscores @ kh, hq.shape)
        gk = _merged((qh.swapaxes(-1, -2) @ gscores).swapaxes(-1, -2), h.shape)
        del gscores, qh, kh
        gh, gwq, gbq = _affine_grads(hq, wq, bq, gq)
        if rows is not None:  # the chain's ``take`` nodes scatter into zeros
            gh, g = _scattered(gh, h.shape, rows), _scattered(g, h.shape, rows)
        ghk, gwk, gbk = _affine_grads(h, wk, bk, gk)
        gh += ghk
        del gq, gk, ghk
        ghv, gwv, gbv = _affine_grads(h, wv, bv, _merged(gv, h.shape))
        gh += ghv
        del gv, ghv, h, hq
        gx, ggain, gbias = _normalize_grads(gh, xhat, std, gain)
        gx += g
        return gx, (ggain, gbias, gwq, gbq, gwk, gbk, gwv, gbv, gwo, gbo)

    out = _affine(ctx, wo, bo)
    return np.add(_queried(x, rows), out, out=out), std, vjp


def attention_block(x, gain, bias, wq, bq, wk, bk, wv, bv, wo, bo, heads: int, rows=None,
                    collect=None):
    """The pre-norm attention half ``x + MHA(LN(x))`` on a (..., T, D) stage or
    array (see ``_step``): ``h = LN(x)`` (gain, bias), ``q = h @ wq + bq``
    and likewise k and v, per-head ``softmax(q kᵀ / sqrt(D/H)) v`` merged
    back to (..., T, D), ``@ wo + bo`` and the residual. With ``rows``, only
    the last ``rows`` tokens query (keys and values still come from all T)
    and the output is their (..., rows, D). ``collect`` (a list) gets the
    (..., H, Tq, T) probabilities. The oracle is ``layer_norm``, ``linear``,
    ``take``, ``attention``, ``linear``, ``add``: the gradient at ``h`` is
    (q-path + k-path) + v-path, the q-path scattered into zeros first when
    ``rows`` is given, and the input's is residual + norm path."""
    shape, params, arrays = _operands(x, (gain, bias, wq, bq, wk, bk, wv, bv, wo, bo))
    d = shape[-1] if shape else 0
    _check_block("attention_block", shape, arrays, [(d,), (d,)] + [(d, d), (d,)] * 4)
    if heads < 1 or d % heads:
        raise DimensionError(f"attention_block: shape {shape} does not split into {heads} heads")
    t = shape[-2]
    if rows is not None and not 1 <= rows <= t:
        raise DimensionError(f"attention_block: rows {rows} not in 1..{t} for input {shape}")
    return _step(_attention, x, params, arrays, (heads, rows), collect)


def _scattered(g: np.ndarray, shape: tuple, rows: int) -> np.ndarray:
    """``g`` added into the last ``rows`` rows of zeros of ``shape``, as ``take``'s vjp does."""
    out = np.zeros(shape)
    out[..., -rows:, :] += g
    return out


def _feed_forward(a, arrays, std=None, collect=None) -> tuple:
    gain, bias, w1, b1, w2, b2 = arrays
    xhat, std = _normalize(a, std)
    h = xhat * gain
    h += bias
    r = _affine(h, w1, b1)
    _relu(r, out=r)
    state = [(xhat, h, r)]  # the vjp pops it, so its ``del``s free

    def vjp(g):
        xhat, h, r = state.pop()
        gr, gw2, gb2 = _affine_grads(r, w2, b2, g)
        gr *= r > 0  # the relu's mask: r > 0 exactly where its input is
        del r
        gh, gw1, gb1 = _affine_grads(h, w1, b1, gr)
        del gr, h
        ga, ggain, gbias = _normalize_grads(gh, xhat, std, gain)
        ga += g
        return ga, (ggain, gbias, gw1, gb1, gw2, gb2)

    out = _affine(r, w2, b2)
    return np.add(a, out, out=out), std, vjp


def feed_forward_block(attended, gain, bias, w1, b1, w2, b2):
    """The pre-norm feed-forward half ``a + relu(LN(a) @ w1 + b1) @ w2 + b2``
    on a (..., T, D) stage or array a (see ``_step``). The oracle is
    ``layer_norm``, ``linear``, ``relu``, ``linear``, ``add``; a's gradient
    is residual + norm path."""
    shape, params, arrays = _operands(attended, (gain, bias, w1, b1, w2, b2))
    w1_shape = arrays[2].shape
    d, f = shape[-1], w1_shape[-1] if len(w1_shape) == 2 else None
    _check_block("feed_forward_block", shape, arrays, [(d,), (d,), (d, f), (f,), (f, d), (d,)])
    return _step(_feed_forward, attended, params, arrays)


def _frame_out(h, arrays, std=None, collect=None) -> tuple:
    last_frame, W, b, scale = arrays
    last = h[..., -1:, :]
    y = _affine(last, W, b)

    def vjp(g):
        gout = g[..., None, :] + 0.0  # the last ``take``'s scatter into zeros: -0.0 -> +0.0
        gy = _unbroadcast(gout * scale, y.shape)
        glast, gW, gb = _affine_grads(last, W, b, gy)
        return _scattered(glast, h.shape, 1), (_unbroadcast(gout, last_frame.shape), gW, gb,
                                               _unbroadcast(gout * y, scale.shape))

    return (last_frame + y * scale)[..., 0, :], None, vjp


def frame_out(last_frame, h, W, b, scale):
    """The encoder's output transform ``(last_frame + (h[..., -1:, :] @ W + b)
    * scale)[..., 0, :]`` with a (..., 1, 3N) last frame, on a (..., T, D)
    stage or array h (see ``_step``): backward rebuilds the head's output.
    The oracle is ``take``, ``linear``, ``mul``, ``add``, ``take``."""
    shape, params, arrays = _operands(h, (last_frame, W, b, scale))
    _check_matmul(shape, arrays[1].shape, "frame_out")
    return _step(_frame_out, h, params, arrays)


def encoder_stack(stage) -> Tensor:
    """The chain of blocks that ``stage`` ends (``window_in`` or ``source``,
    ``attention_block`` and ``feed_forward_block`` per layer, ``frame_out``)
    as one node that keeps its parents and each norm's (..., T, 1) std (an
    array, a chain run without a graph, as a plain tensor). Backward reruns
    the steps from ``x``, keeping each vjp and its state, then pops them."""
    if not isinstance(stage, Stage):
        return Tensor(stage)
    parents, x, steps = stage.parents, stage.x, stage.steps

    def vjp(g):
        h, vjps, grads = x, [], ()
        for block, arrays, args, std in steps:
            h, _, block_vjp = block(h, arrays, *args, std=std)
            vjps.append(block_vjp)
        del h
        while vjps:
            g, block_grads = vjps.pop()(g)
            grads = block_grads + grads
        return zip(parents, (g,) + grads)

    return Tensor._result(stage.out, parents, vjp)


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

    def vjp(g):  # a zero subgradient where out is 0 and the slope infinite
        return ((x, np.divide(g * 0.5, out, out=np.zeros_like(out), where=out != 0)),)

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


def concat(tensors: Sequence, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concat requires at least one tensor")
    offsets = list(itertools.accumulate((t.shape[axis] for t in tensors), initial=0))

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
