import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from advmt import tensor
from advmt.errors import ContractError, DimensionError
from advmt.gradcheck import central_difference, relative_error
from advmt.model import HEAD_ROWS, EncoderConfig, EncoderLayer, EncoderModel, rollout_graph
from advmt.tensor import (Tensor, as_tensor, attention_block, concat, encoder_stack,
                          feed_forward_block, frame_out, linear, matmul, source, window_in)


def grad_of(forward, *arrays):
    """Analytic grads of a scalar-valued forward over leaf inputs."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    forward(*leaves).backward()
    return [t.grad for t in leaves]


def fd_of(forward, arrays, i):
    def f(probe):
        args = [Tensor(a) for a in arrays]
        args[i] = Tensor(probe)
        return forward(*args).item()

    return central_difference(f, arrays[i])


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0, 4.0], [5.0, 6.0]]))
        assert np.array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_dot_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_inner_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(4, 5\).*\(3, 2\)"):
            matmul(Tensor(np.zeros((4, 5))), Tensor(np.zeros((3, 2))))

    def test_gradcheck_sum_of_output(self, rng):
        for _ in range(10):
            a = rng.standard_normal((4, 5))
            b = rng.standard_normal((5, 3))
            forward = lambda x, y: (x @ y).sum()
            ga, gb = grad_of(forward, a, b)
            assert relative_error(ga, fd_of(forward, [a, b], 0)) < 1e-6
            assert relative_error(gb, fd_of(forward, [a, b], 1)) < 1e-6

    def test_batched_broadcast(self, rng):
        a = rng.standard_normal((2, 3, 4, 5))
        b = rng.standard_normal((5, 3))
        out = Tensor(a) @ Tensor(b)
        assert out.shape == (2, 3, 4, 3)
        assert np.allclose(out.data, a @ b)

    def test_batched_gradcheck(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 2))
        forward = lambda x, y: ((x @ y) * c).sum()
        c = rng.standard_normal((2, 3, 2))
        ga, gb = grad_of(forward, a, b)
        assert relative_error(ga, fd_of(forward, [a, b], 0)) < 1e-6
        assert relative_error(gb, fd_of(forward, [a, b], 1)) < 1e-6


class TestElementwise:
    def test_add(self):
        assert np.array_equal((Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])).data, [4.0, 6.0])

    def test_relu(self):
        assert np.array_equal(tensor.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_relu_matches_where_on_special_values(self):
        x = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.5, -1.5])
        assert tensor.relu(Tensor(x)).data.tobytes() == np.where(x > 0, x, 0.0).tobytes()

    def test_relu_gates_zero_gradient_at_zero(self):
        x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        tensor.relu(x).sum().backward()
        assert np.array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError, match=r"\(2,\).*\(3,\)"):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])

    def test_scalar_broadcast(self):
        assert np.array_equal((Tensor([1.0, 2.0]) * 3.0).data, [3.0, 6.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_mul_gradcheck(self, seed):
        r = np.random.default_rng(seed)
        a, b = r.standard_normal((3, 3)), r.standard_normal((3, 3))
        forward = lambda x, y: (x * y).sum()
        ga, gb = grad_of(forward, a, b)
        assert relative_error(ga, fd_of(forward, [a, b], 0)) < 1e-6
        assert relative_error(gb, fd_of(forward, [a, b], 1)) < 1e-6


# -- oracles: the engine's layer-norm and attention nodes before the block nodes,
# and the chains of them the encoder-stack node replaces


def layer_norm(x, gain, bias, eps=1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
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


def attention(q, k, v, heads, scale, collect=None) -> Tensor:
    """Per-head ``softmax(q @ kᵀ · scale) @ v`` on (..., Tq, D) queries and
    (..., Tk, D) keys and values, as one node that splits and merges the heads."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)

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


def attention_block_chain(x, gain, bias, wq, bq, wk, bk, wv, bv, wo, bo, heads, rows=None):
    """The ``attention_block`` stage as eight nodes (ten with ``rows``)."""
    h = layer_norm(x, gain, bias)
    q = h if rows is None else h[..., -rows:, :]
    ctx = attention(linear(q, wq, bq), linear(h, wk, bk), linear(h, wv, bv), heads,
                    1.0 / math.sqrt(x.shape[-1] // heads))
    residual = x if rows is None else x[..., -rows:, :]
    return residual + linear(ctx, wo, bo)


def feed_forward_chain(x, gain, bias, w1, b1, w2, b2):
    """The ``feed_forward_block`` stage as five nodes."""
    return x + linear(tensor.relu(linear(layer_norm(x, gain, bias), w1, b1)), w2, b2)


def layer_chain(x, *params, heads, rows=None):
    """A layer's two stages as the two chains they replace; ``params`` are the
    attention half's ten, then the feed-forward half's six."""
    return feed_forward_chain(attention_block_chain(x, *params[:10], heads, rows), *params[10:])


def layer_node(x, *params, heads, rows=None, collect=None):
    """One encoder layer's two stages as a node, on the parameters ``layer_chain`` takes."""
    attended = attention_block(source(x), *params[:10], heads, rows=rows, collect=collect)
    return encoder_stack(feed_forward_block(attended, *params[10:]))


def attention_params(rng, d):
    """gain, bias, then weight and bias of the q, k, v and out projections."""
    return [1.0 + 0.1 * rng.standard_normal(d), 0.1 * rng.standard_normal(d)] + [
        a for _ in range(4) for a in (rng.standard_normal((d, d)) / math.sqrt(d),
                                      0.1 * rng.standard_normal(d))]


def window_in_chain(x, root, mean, inv_std, W, b, pe):
    """``window_in`` as the ``add``, ``sub``, ``mul``, ``linear``, ``add`` nodes it replaces."""
    return linear((x - (root + mean)) * inv_std, W, b) + pe


def frame_out_chain(last_frame, h, W, b, scale):
    """``frame_out`` as the ``take``, ``linear``, ``mul``, ``add``, ``take`` nodes it replaces."""
    return (last_frame + linear(h[..., -1:, :], W, b) * scale)[..., 0, :]


def stack_layers(arrays):
    """The layers' parameters in ``stack_node``'s arrays, 16 each."""
    return [arrays[i:i + 16] for i in range(7, len(arrays) - 4, 16)]


def stack_node(*arrays, heads, rows=None, collect=None):
    """``window_in`` on ``arrays``' first seven, a layer's two stages per 16
    more (``rows`` on the last) and ``frame_out`` on the last four, as one
    encoder-stack node: an encoder forward pass."""
    h, layers = window_in(*arrays[:7]), stack_layers(arrays)
    for i, params in enumerate(layers):
        attended = attention_block(h, *params[:10], heads,
                                   rows=rows if i == len(layers) - 1 else None, collect=collect)
        h = feed_forward_block(attended, *params[10:])
    return encoder_stack(frame_out(arrays[-4], h, *arrays[-3:]))


def stack_chain(*arrays, heads, rows=None):
    """``stack_node`` as the window-in chain, a ``layer_chain`` per layer and
    the frame-out chain."""
    h, layers = window_in_chain(*arrays[:7]), stack_layers(arrays)
    for i, params in enumerate(layers):
        h = layer_chain(h, *params, heads=heads, rows=rows if i == len(layers) - 1 else None)
    return frame_out_chain(arrays[-4], h, *arrays[-3:])


def window_in_arrays(rng, lead):
    """A (..., 50, 51) window whose last root has a -0.0 coordinate, that
    root tiled over the joints, a pose mean, and the inverse std, embedding
    and positional code of the default encoder."""
    x = rng.standard_normal(lead + (50, 51))
    root = np.tile(x[..., -1:, :3], 17)
    x[..., -1, 0] = root[..., 0, 0] = -0.0  # a -0.0 root coordinate
    return [x, root, rng.standard_normal(51), rng.uniform(0.5, 2.0, 51),
            rng.standard_normal((51, 64)) / 8, 0.1 * rng.standard_normal(64),
            rng.standard_normal((50, 64))]


def frame_out_arrays(rng, lead):
    """A (..., 1, 51) last frame with a -0.0 root coordinate, and the head
    and delta scale of the default encoder."""
    last_frame = rng.standard_normal(lead + (1, 51))
    last_frame[..., 0, 0] = -0.0
    return [last_frame, rng.standard_normal((64, 51)) / 8, 0.1 * rng.standard_normal(51),
            rng.uniform(0.5, 2.0, 51)]


def stack_arrays(rng, lead, layers):
    """``stack_node``'s arrays for the default encoder with ``layers`` layers."""
    return (window_in_arrays(rng, lead) + [a for _ in range(layers)
                                           for a in layer_params(rng, 64, 128)]
            + frame_out_arrays(rng, lead))


def forward_window_chain(enc, x):
    """``EncoderModel.forward_window`` with its input and output transforms
    and every encoder layer as chains."""
    last_frame = x[..., -1:, :]
    h = window_in_chain(x, last_frame @ enc._root_tiling, enc.pose_mean, enc._inverse_std,
                        *enc.embed.params(), enc._pe)
    for i, layer in enumerate(enc.layers):
        rows = HEAD_ROWS if i == len(enc.layers) - 1 else None
        h = layer_chain(h, *layer.params(), heads=layer.num_heads, rows=rows)
    return frame_out_chain(last_frame, h, *enc.head.params(), enc.delta_scale)


def graph_nodes(out) -> list:
    """Every tensor ``out`` reaches through its parents, ``out`` included."""
    seen, todo = {id(out): out}, [out]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                todo.append(parent)
    return list(seen.values())


def feed_forward_params(rng, d, f):
    return [1.0 + 0.1 * rng.standard_normal(d), 0.1 * rng.standard_normal(d),
            rng.standard_normal((d, f)) / math.sqrt(d), 0.1 * rng.standard_normal(f),
            rng.standard_normal((f, d)) / math.sqrt(f), 0.1 * rng.standard_normal(d)]


def layer_params(rng, d, f):
    """The attention half's parameters, then the feed-forward half's."""
    return attention_params(rng, d) + feed_forward_params(rng, d, f)


def softmax_rows(x):
    """Row softmax through one-head ``attention``: identity keys and values
    with unit scale make the scores ``x`` and the output the probabilities.
    Queries, keys and values share a shape, so ``x`` (R, C) with R <= C is
    padded with zero rows to (C, C) and the first R output rows are kept."""
    x = x if isinstance(x, Tensor) else Tensor(np.atleast_2d(x))
    rows, cols = x.shape
    square = concat([x, Tensor(np.zeros((cols - rows, cols)))], axis=0)
    eye = Tensor(np.eye(cols))
    return attention(square, eye, eye, 1, 1.0)[:rows]


class TestSoftmax:
    """The softmax inside the ``attention`` oracle, and in ``attention_block``,
    the attention half of an encoder layer."""

    def test_symmetry(self):
        out = softmax_rows([0.0, 0.0, 0.0])
        assert np.allclose(out.data, [[1 / 3] * 3], atol=1e-15)

    def test_large_inputs_stable(self):
        # the rows normalize to about ±(1, -1); queries scaled by 1000 give
        # scores near ±1414, whose exp overflows unless the row max is taken off
        eye, zero = np.eye(2), np.zeros(2)
        params = [np.ones(2), zero, 1000.0 * eye, zero] + [eye, zero] * 3
        probs = []
        layer_node(Tensor([[1.0, -1.0], [-1.0, 1.0]]), *params, *feed_forward_params(
            np.random.default_rng(0), 2, 3), heads=1, collect=probs)
        assert np.isfinite(probs[0]).all()
        assert probs[0][0, 0, 0] == pytest.approx(1.0)  # head 0, query row 0
        assert probs[0][0, 0, 1] == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_sum_to_one(self, seed):
        r = np.random.default_rng(seed)
        x = r.uniform(-1e3, 1e3, size=(4, 7))
        out = softmax_rows(x)
        assert (out.data >= 0).all()
        assert np.abs(out.data.sum(axis=-1) - 1.0).max() < 1e-12

    def test_gradcheck(self, rng):
        for _ in range(10):
            x = rng.standard_normal((2, 4))
            c = rng.standard_normal((2, 4))
            forward = lambda t: (softmax_rows(t) * c).sum()
            (g,) = grad_of(forward, x)
            assert relative_error(g, fd_of(forward, [x], 0)) < 1e-6


def softmax_node(x):
    """The engine's softmax node before attention was fused: the oracle's middle."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return ((x, s * (g - (g * s).sum(axis=-1, keepdims=True))),)

    return Tensor._result(s, (x,), vjp)


def swapaxes_node(x, axis1, axis2):
    """The engine's swapaxes node, kept for the oracles once the program stopped using it."""

    def vjp(g):
        return ((x, g.swapaxes(axis1, axis2)),)

    return Tensor._result(x.data.swapaxes(axis1, axis2), (x,), vjp)


def values_and_grads(forward, *arrays):
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = forward(*leaves)
    out.sum().backward()
    return [out.data] + [t.grad for t in leaves]


def assert_bitwise(fused, chain):
    assert len(fused) == len(chain)
    for a, b in zip(fused, chain):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestFusedOps:
    """Fused nodes against the chains of small nodes they replace, bit for bit."""

    @pytest.mark.parametrize("x_shape", [(3, 5, 4), (5, 4)])
    def test_linear_matches_matmul_add(self, rng, x_shape):
        x = rng.standard_normal(x_shape)
        w, b = rng.standard_normal((4, 6)), rng.standard_normal(6)
        c = rng.standard_normal(x_shape[:-1] + (6,))
        fused = values_and_grads(lambda *t: linear(*t) * c, x, w, b)
        chain = values_and_grads(lambda xx, ww, bb: (xx @ ww + bb) * c, x, w, b)
        assert_bitwise(fused, chain)

    @pytest.mark.parametrize("shape,key_rows", [((2, 3, 5, 8), 5), ((5, 6), 5), ((2, 3, 2, 8), 5)],
                             ids=["shape0", "shape1", "fewer_queries"])
    def test_attention_matches_chain(self, rng, shape, key_rows):
        """q is ``shape``; k and v have ``key_rows`` rows."""
        kv_shape = shape[:-2] + (key_rows, shape[-1])
        q = rng.standard_normal(shape)
        k, v = rng.standard_normal(kv_shape), rng.standard_normal(kv_shape)
        c = rng.standard_normal(shape)
        scale = 1.0 / np.sqrt(3.0)
        heads = 2

        def chain_forward(qq, kk, vv):
            def split(x):  # (..., T, D) -> (..., H, T, D/H)
                return swapaxes_node(x.reshape(x.shape[:-1] + (heads, shape[-1] // heads)), -3, -2)

            scores = matmul(split(qq), swapaxes_node(split(kk), -1, -2)) * scale
            ctx = softmax_node(scores) @ split(vv)
            return swapaxes_node(ctx, -3, -2).reshape(shape) * c

        fused = values_and_grads(lambda *t: attention(*t, heads, scale) * c, q, k, v)
        assert_bitwise(fused, values_and_grads(chain_forward, q, k, v))

    def test_attention_collects_probabilities(self, rng):
        x, params = rng.standard_normal((2, 5, 6)), layer_params(rng, 6, 4)
        probs = []
        out = layer_node(Tensor(x, requires_grad=True), *params, heads=2, collect=probs)
        assert out.shape == (2, 5, 6)
        assert probs[0].shape == (2, 2, 5, 5)
        assert np.abs(probs[0].sum(axis=-1) - 1.0).max() < 1e-12
        out = layer_node(Tensor(x, requires_grad=True), *params, heads=2, rows=2, collect=probs)
        assert out.shape == (2, 2, 6)
        assert probs[1].shape == (2, 2, 2, 5)
        assert np.abs(probs[1].sum(axis=-1) - 1.0).max() < 1e-12

    def test_shape_errors_name_shapes(self, rng):
        with pytest.raises(DimensionError, match=r"\(4, 5\).*\(3, 2\)"):
            linear(Tensor(np.zeros((4, 5))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))
        with pytest.raises(DimensionError, match="bias"):
            linear(Tensor(np.zeros((4, 5))), Tensor(np.zeros((5, 2))), Tensor(np.zeros(3)))
        x, params = Tensor(np.zeros((2, 5, 6))), layer_params(rng, 6, 4)
        # gain, q weight, out bias; then bias, second weight, first bias of the feed-forward
        for i, bad in ((0, (5,)), (2, (6, 4)), (9, (1, 6)), (11, (4,)), (14, (6, 4)), (13, (6,))):
            spoiled = params[:i] + [np.zeros(bad)] + params[i + 1:]
            with pytest.raises(DimensionError, match=rf"\(2, 5, 6\).*{re.escape(str(bad))}"):
                layer_node(x, *spoiled, heads=2)
        with pytest.raises(DimensionError, match=r"input \(6,\)"):  # no token axis
            layer_node(Tensor(np.zeros(6)), *params, heads=1)
        for heads in (4, 0):
            with pytest.raises(DimensionError, match=rf"\(2, 5, 6\).*{heads} heads"):
                layer_node(x, *params, heads=heads)
        for rows in (0, 6):
            with pytest.raises(DimensionError, match=rf"rows {rows}.*\(2, 5, 6\)"):
                layer_node(x, *params, heads=2, rows=rows)

    def test_encoder_window_graph_node_count(self):
        """Pinned so an unfused path coming back fails: the matmul-add linears
        and the five-node attention chain gave this graph 119 nodes, the fused
        attention between eight split and merge nodes 95, the attention
        node that owns the head layout 79, last-layer query pruning 81
        (two ``take`` nodes pick the query and residual rows), the two block
        nodes 59, taking the output frame after the head's add, not
        before, 58, and the window-in and frame-out nodes in place of the
        input and output chains, 51, one node per encoder layer in place
        of its attention and feed-forward nodes, 49, one encoder-stack
        node in place of the window-in node and the layer nodes, 47, and
        now, with the head and the pose mean's ``add`` inside that node, 45."""
        cfg = EncoderConfig(input_dim=6, num_layers=2, num_heads=2, model_dim=16, ff_dim=24,
                            history_len=8)
        enc = EncoderModel(cfg, np.random.default_rng(0))
        out = enc.forward_window(Tensor(np.ones((8, 6)), requires_grad=True))
        assert len(graph_nodes(out)) == 45

    def test_rollout_frame_census(self):
        """One more rollout frame adds one encoder-stack node, which holds the
        input transform, the 4 layers of a 4-layer encoder and the head, and
        5 small ones: the ``take`` of the last frame, the root tiling's
        ``matmul``, the ``reshape`` of the predicted frame, and the window
        slide's ``take`` and ``concat``. That is 6 op nodes; before the head
        and the pose mean's ``add`` joined the stack there were 8 (a
        frame-out node and the ``add`` besides), before the stack node 12
        (the window-in node and 4 layer nodes in its place), and before the
        layer nodes 16 (an attention and a feed-forward node per layer)."""
        cfg = EncoderConfig(input_dim=6, num_heads=2, model_dim=16, ff_dim=24, history_len=8)
        enc = EncoderModel(cfg, np.random.default_rng(0))

        def census(frames):
            out = rollout_graph(enc, Tensor(np.ones((2, 8, 6)), requires_grad=True), frames)
            return Counter(n._vjp.__qualname__.split(".")[0] for n in graph_nodes(out)
                           if n._vjp is not None)

        added = census(3)
        added.subtract(census(2))
        assert {op: n for op, n in added.items() if n} == {
            "encoder_stack": 1, "take": 2, "matmul": 1, "reshape": 1, "concat": 1}

    @pytest.mark.parametrize("lead", [(8,), ()], ids=["batch8", "window2d"])
    def test_window_in_matches_chain(self, rng, lead):
        """The window-in stage alone, closed into a node."""
        arrays = window_in_arrays(rng, lead)
        c = rng.standard_normal(lead + (50, 64))
        assert_bitwise(values_and_grads(lambda *t: encoder_stack(window_in(*t)) * c, *arrays),
                       values_and_grads(lambda *t: window_in_chain(*t) * c, *arrays))

    @pytest.mark.parametrize("rows", [None, HEAD_ROWS])
    @pytest.mark.parametrize("lead", [(8,), ()], ids=["batch8", "window2d"])
    def test_encoder_stack_matches_chain(self, rng, lead, rows):
        """The default encoder's stack (window-in, 4 layers with ``rows`` on
        the last, and the head) against the window-in chain, 4 layer chains
        and the frame-out chain: values and every gradient, with -0.0 root
        coordinates and a -0.0 in the cotangent."""
        arrays = stack_arrays(rng, lead, 4)
        c = rng.standard_normal(lead + (51,))
        c[..., 0] = -0.0
        assert_bitwise(values_and_grads(lambda *t: stack_node(*t, heads=4, rows=rows) * c,
                                        *arrays),
                       values_and_grads(lambda *t: stack_chain(*t, heads=4, rows=rows) * c,
                                        *arrays))

    def test_encoder_stack_collects_every_layer(self, rng):
        """(..., H, T, T) probabilities per layer, (..., H, 2, T) for the pruned last."""
        probs = []
        out = stack_node(*[Tensor(a, requires_grad=True) for a in stack_arrays(rng, (2,), 3)],
                         heads=4, rows=HEAD_ROWS, collect=probs)
        assert out.shape == (2, 51)
        assert [p.shape for p in probs] == [(2, 4, 50, 50)] * 2 + [(2, 4, HEAD_ROWS, 50)]
        assert all(np.abs(p.sum(axis=-1) - 1.0).max() < 1e-12 for p in probs)

    @pytest.mark.parametrize("lead", [(8,), ()], ids=["batch8", "window2d"])
    def test_frame_out_matches_chain(self, rng, lead):
        """The frame-out stage alone, on the pruned rows, closed into a node."""
        last_frame, *head = frame_out_arrays(rng, lead)  # a -0.0 root coordinate
        arrays = [last_frame, rng.standard_normal(lead + (HEAD_ROWS, 64)), *head]
        c = rng.standard_normal(lead + (51,))
        c[..., 0] = -0.0  # the last ``take`` turns a -0.0 cotangent into +0.0
        assert_bitwise(
            values_and_grads(lambda last, h, *t: encoder_stack(frame_out(last, source(h), *t)) * c,
                             *arrays),
            values_and_grads(lambda *t: frame_out_chain(*t) * c, *arrays))

    def test_window_nodes_keep_only_their_parents(self, rng):
        leaves = [Tensor(a, requires_grad=True) for a in window_in_arrays(rng, (8,))]
        h = encoder_stack(window_in(*leaves))
        assert held_beyond_parents(h, leaves) == []
        head = [Tensor(a, requires_grad=True) for a in frame_out_arrays(rng, (8,))]
        out = encoder_stack(frame_out(head[0], source(h), *head[1:]))
        assert held_beyond_parents(out, (h, *head)) == []

    def test_rollout_matches_chain(self, monkeypatch):
        """Three frames of the default encoder at batch 8, against the same
        rollout with ``forward_window``'s transforms and layers as chains: the
        values, the window's gradient and every parameter gradient, bit for
        bit, so also each parameter's sum over the frames."""
        rng = np.random.default_rng(3)
        enc = EncoderModel(EncoderConfig(input_dim=51), rng)
        enc.set_frame_statistics(rng.standard_normal(51), rng.uniform(0.5, 2.0, 51),
                                 rng.uniform(0.5, 2.0, 51))
        window = 100.0 * rng.standard_normal((8, 50, 51))
        window[3, -1, 0] = -0.0
        c = rng.standard_normal((8, 3, 51))

        def values_and_grads_of_rollout():
            for p in enc.parameters():
                p.zero_grad()
            x = Tensor(window, requires_grad=True)
            out = rollout_graph(enc, x, 3)
            (out * c).sum().backward()
            return [out.data, x.grad] + [p.grad for p in enc.parameters()]

        fused = values_and_grads_of_rollout()
        monkeypatch.setattr(EncoderModel, "forward_window",
                            lambda self, x, collect_attention=None: forward_window_chain(self, x))
        assert_bitwise(fused, values_and_grads_of_rollout())

    @pytest.mark.parametrize("rows", [None, 2])
    @pytest.mark.parametrize("lead", [(8,), ()], ids=["batch8", "window2d"])
    def test_encoder_block_matches_chain(self, rng, lead, rows):
        """At the default sizes, with a -0.0 in the cotangent."""
        x, params = rng.standard_normal(lead + (50, 64)), layer_params(rng, 64, 128)
        c = rng.standard_normal(lead + (50 if rows is None else rows, 64))
        c[..., 0, 0] = -0.0
        assert_bitwise(values_and_grads(lambda *a: layer_node(*a, heads=4, rows=rows) * c,
                                        x, *params),
                       values_and_grads(lambda *a: layer_chain(*a, heads=4, rows=rows) * c,
                                        x, *params))

    @settings(max_examples=60, deadline=None)
    @given(lead=st.lists(st.integers(1, 3), max_size=2), t=st.integers(2, 6),
           heads=st.integers(1, 3), head_dim=st.integers(1, 3),
           rows=st.sampled_from([None, 1, 2, "T"]), seed=st.integers(0, 2**32 - 1))
    def test_attention_block_matches_chain(self, lead, t, heads, head_dim, rows, seed):
        """One layer's stages as a node over the attention half's heads and query rows."""
        rng = np.random.default_rng(seed)
        d, rows = heads * head_dim, t if rows == "T" else rows
        x, params = rng.standard_normal(tuple(lead) + (t, d)), layer_params(rng, d, 3)
        c = rng.standard_normal(tuple(lead) + (t if rows is None else rows, d))
        fused = values_and_grads(lambda *a: layer_node(*a, heads=heads, rows=rows) * c,
                                 x, *params)
        chain = values_and_grads(lambda *a: layer_chain(*a, heads=heads, rows=rows) * c,
                                 x, *params)
        assert_bitwise(fused, chain)

    @settings(max_examples=60, deadline=None)
    @given(lead=st.lists(st.integers(1, 3), max_size=2), t=st.integers(1, 6),
           d=st.integers(1, 6), f=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_feed_forward_block_matches_chain(self, lead, t, d, f, seed):
        """One layer's stages as a node over the feed-forward half's widths, with one head."""
        rng = np.random.default_rng(seed)
        x, params = rng.standard_normal(tuple(lead) + (t, d)), layer_params(rng, d, f)
        c = rng.standard_normal(x.shape)
        fused = values_and_grads(lambda *a: layer_node(*a, heads=1) * c, x, *params)
        chain = values_and_grads(lambda *a: layer_chain(*a, heads=1) * c, x, *params)
        assert_bitwise(fused, chain)


def closure_values(fn):
    """Everything ``fn``'s closure holds, through nested closures, tuples and lists."""
    todo, seen = [fn], set()
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if callable(obj) and getattr(obj, "__closure__", None) is not None:
            todo.extend(cell.cell_contents for cell in obj.__closure__)
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        else:
            yield obj


def graph_held_bytes(out) -> int:
    """Bytes of the distinct buffers a graph keeps alive: every node's data
    and every array or tensor its vjp closure holds, views counted once."""
    buffers, seen, todo = {}, {id(out)}, [out]

    def hold(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        buffers[id(a)] = a

    while todo:
        node = todo.pop()
        hold(node.data)
        if node._vjp is not None:
            for v in closure_values(node._vjp):
                if isinstance(v, (Tensor, np.ndarray)):
                    hold(v.data if isinstance(v, Tensor) else v)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return sum(a.nbytes for a in buffers.values())


def held_beyond_parents(out, parents) -> list:
    """The arrays ``out``'s vjp closure holds besides its parents and their data."""
    extra = []
    for v in closure_values(out._vjp):
        if isinstance(v, Tensor):
            assert any(v is p for p in parents)
        elif isinstance(v, np.ndarray) and not any(v is p.data for p in parents):
            extra.append(v)
    return extra


def grads_with_rebinding(forward, arrays, index):
    """Leaf gradients of ``forward(*leaves).sum()``, with leaf ``index``'s
    ``.data`` rebound to other values between forward and backward."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    loss = forward(*leaves).sum()
    if index is not None:
        leaves[index].data = leaves[index].data + 1.0
    loss.backward()
    return [t.grad for t in leaves]


class TestAttentionRecompute:
    """A layer's stages, closed into a node, keep only the two norms' stds for
    backward and rebuild the attention half, and from it the feed-forward
    input, from the arrays the forward read."""

    @pytest.mark.parametrize("rows", [None, 2])
    def test_node_keeps_only_std(self, rng, rows):
        x = Tensor(rng.standard_normal((8, 50, 64)), requires_grad=True)
        params = [Tensor(p, requires_grad=True) for p in layer_params(rng, 64, 128)]
        out = layer_node(x, *params, heads=4, rows=rows, collect=[])
        held = sorted(a.shape for a in held_beyond_parents(out, (x, *params)))
        assert held == sorted([(8, 50, 1), (8, 50 if rows is None else rows, 1)])

    @pytest.mark.parametrize("rebound", ["wq", "x"])
    @pytest.mark.parametrize("rows", [None, 2])
    def test_rebinding_data_after_forward_keeps_gradients(self, rng, rebound, rows):
        arrays = [rng.standard_normal((2, 6, 8))] + layer_params(rng, 8, 12)
        c = rng.standard_normal((2, 6 if rows is None else rows, 8))
        forward = lambda *leaves: layer_node(*leaves, heads=2, rows=rows) * c
        index = 0 if rebound == "x" else 3
        assert_bitwise(grads_with_rebinding(forward, arrays, index),
                       grads_with_rebinding(forward, arrays, None))

    def test_rollout_graph_held_bytes(self):
        """Pinned so a stored activation coming back fails. A batch-8,
        25-frame rollout of the default encoder held 345,943,848 bytes with
        one node per op, 243,748,648 once each half-block was one node that
        kept the norm's xhat, q, k, v and the merged context, 151,179,048
        with attention keeping only its probabilities and std, 55,844,648
        with both block nodes keeping only their norm's std, 55,844,856 with
        the output concatenating the frames the windows take in (its
        ``offsets`` array adds 208 bytes), 55,835,064 with the inverse std one
        encoder buffer in place of a (3N,) leaf per forward pass,
        42,391,864 with one window-in and one frame-out node per frame that
        keep only their parents (no standardized window, embedding product or
        head output), 26,827,064 with one node per encoder layer that
        rebuilds its feed-forward input in place of keeping the attention
        half's output, 6,347,064 with one encoder-stack node per frame that
        rebuilds the window-in output and every layer's in place of keeping
        them, 6,060,664 with the head and the pose mean's ``add`` inside that
        node (no last-layer output or offset per frame), and now, with each
        ``concat`` holding its offsets as ints in place of an int64 array (24
        bytes per slide the output reaches and 208 for the output's), 6,059,880."""
        enc = EncoderModel(EncoderConfig(input_dim=51), np.random.default_rng(0))
        out = rollout_graph(enc, Tensor(np.ones((8, 50, 51)), requires_grad=True), 25)
        assert graph_held_bytes(out) == 6_059_880

    def test_rollout_graph_peak_memory(self):
        """Pinned so transient memory cannot grow unnoticed where held bytes do
        not show it: the traced peak of a batch-8, 25-frame rollout's forward
        and backward was 31,639,044 bytes with one node per encoder layer,
        18,859,966 with one encoder-stack node per frame, whose backward
        keeps every layer's rebuilt state alive at once, and is 18,677,083
        with the head and the pose mean's ``add`` inside that node."""
        enc = EncoderModel(EncoderConfig(input_dim=51), np.random.default_rng(0))
        window = Tensor(np.ones((8, 50, 51)), requires_grad=True)
        tracemalloc.start()
        try:
            rollout_graph(enc, window, 25).sum().backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 19_500_000

    def test_repeated_backward_accumulates_exactly(self):
        """A second backward on one rollout graph doubles every gradient bit
        for bit: the rebuild in backward reads and consumes nothing it changes."""
        rng = np.random.default_rng(4)
        enc = EncoderModel(EncoderConfig(input_dim=51), rng)
        enc.set_frame_statistics(rng.standard_normal(51), rng.uniform(0.5, 2.0, 51),
                                 rng.uniform(0.5, 2.0, 51))
        window = Tensor(100.0 * rng.standard_normal((8, 50, 51)), requires_grad=True)
        loss = (rollout_graph(enc, window, 5) * rng.standard_normal((8, 5, 51))).sum()
        leaves = [window] + enc.parameters()
        loss.backward()
        once = [t.grad.copy() for t in leaves]
        loss.backward()
        assert all((2.0 * g).tobytes() == t.grad.tobytes() for g, t in zip(once, leaves))


class TestStackRecompute:
    """The encoder-stack node keeps only each norm's std and rebuilds the
    window-in output, every layer's and the head's from the arrays its
    stages bound."""

    @pytest.mark.parametrize("rows", [None, HEAD_ROWS])
    def test_node_keeps_only_stds(self, rng, rows):
        leaves = [Tensor(a, requires_grad=True) for a in stack_arrays(rng, (8,), 4)]
        out = stack_node(*leaves, heads=4, rows=rows)
        held = sorted(a.shape for a in held_beyond_parents(out, leaves))
        assert held == sorted([(8, 50, 1)] * 7 + [(8, 50 if rows is None else rows, 1)])

    def test_forward_pass_keeps_only_stds(self):
        """A default forward pass's node keeps its 4 layers' 8 norm stds and
        nothing else: (8, 50, 1) each, but (8, 2, 1) for the feed-forward
        norm of the pruned last layer."""
        enc = EncoderModel(EncoderConfig(input_dim=51), np.random.default_rng(0))
        out = enc.forward_window(Tensor(np.ones((8, 50, 51)), requires_grad=True))
        held = sorted(a.shape for a in held_beyond_parents(out, out._parents))
        assert held == sorted([(8, 50, 1)] * 7 + [(8, HEAD_ROWS, 1)])

    # the window, the embedding weight, the second layer's wq and the first's w1
    @pytest.mark.parametrize("rebound,index", [("x", 0), ("W", 3), ("wq", 24), ("w1", 18)])
    def test_rebinding_data_after_forward_keeps_gradients(self, rng, rebound, index):
        arrays = [rng.standard_normal((2, 6, 9)), rng.standard_normal((2, 1, 9)),
                  rng.uniform(0.5, 2.0, 9), rng.standard_normal((9, 8)),
                  rng.standard_normal(8), rng.standard_normal((6, 8))]
        arrays += layer_params(rng, 8, 12) + layer_params(rng, 8, 12)
        arrays += [rng.standard_normal((2, 1, 9)), rng.standard_normal((8, 9)),
                   rng.standard_normal(9), rng.uniform(0.5, 2.0, 9)]
        mean, c = rng.standard_normal(9), rng.standard_normal((2, 9))

        def forward(x, root, *rest):  # the pose mean is a constant, as in the encoder
            return stack_node(x, root, mean, *rest, heads=2, rows=2) * c

        assert_bitwise(grads_with_rebinding(forward, arrays, index),
                       grads_with_rebinding(forward, arrays, None))


class TestFeedForwardRecompute:
    """A layer's stages, closed into a node, rebuild the feed-forward half's input (the
    attention half's output), xhat, the norm output and the relu output from
    the arrays the forward read."""

    def test_node_keeps_only_std(self, rng):
        """The stages ``EncoderLayer`` builds, through its ``attention``, as a node."""
        layer = EncoderLayer(EncoderConfig(input_dim=51), rng)
        x = Tensor(rng.standard_normal((8, 50, 64)), requires_grad=True)
        out = encoder_stack(layer(source(x)))
        held = [a.shape for a in held_beyond_parents(out, (x, *layer.params()))]
        assert held == [(8, 50, 1), (8, 50, 1)]

    @pytest.mark.parametrize("rebound", ["w1", "x"])
    def test_rebinding_data_after_forward_keeps_gradients(self, rng, rebound):
        arrays = [rng.standard_normal((2, 6, 8))] + layer_params(rng, 8, 12)
        c = rng.standard_normal((2, 6, 8))
        forward = lambda *leaves: layer_node(*leaves, heads=2) * c
        index = 0 if rebound == "x" else 13  # w1, after x and 12 parameters
        assert_bitwise(grads_with_rebinding(forward, arrays, index),
                       grads_with_rebinding(forward, arrays, None))


def block_calls(rng, lead):
    """Each builder at the default sizes: name -> (call(x, params, collect), x, params)."""
    window, *embed = window_in_arrays(rng, lead)
    h = rng.standard_normal(lead + (50, 64))
    att = attention_params(rng, 64)
    return {
        "window_in": (lambda x, p, c: window_in(x, *p), window, embed),
        "attention": (lambda x, p, c: attention_block(x, *p, 4, collect=c), h, att),
        "attention_rows": (lambda x, p, c: attention_block(x, *p, 4, rows=HEAD_ROWS, collect=c),
                           h, att),
        "feed_forward": (lambda x, p, c: feed_forward_block(x, *p), h,
                         feed_forward_params(rng, 64, 128)),
        "frame_out": (lambda x, p, c: frame_out(p[0], x, *p[1:]), h[..., -HEAD_ROWS:, :],
                      frame_out_arrays(rng, lead)),
    }


class TestArrayEntries:
    """A builder given an array runs the block the stage records, with no graph."""

    @pytest.mark.parametrize("block", ["window_in", "attention", "attention_rows",
                                       "feed_forward", "frame_out"])
    @pytest.mark.parametrize("lead", [(8,), ()], ids=["batch8", "window2d"])
    def test_array_output_is_the_stage_output(self, rng, lead, block):
        """The bytes of the stage's ``out`` and of the arrays ``collect`` gets."""
        call, x, params = block_calls(rng, lead)[block]
        on_arrays, on_stage = [], []
        out = call(x, params, on_arrays)
        stage = call(source(Tensor(x)), [Tensor(p) for p in params], on_stage)
        assert isinstance(out, np.ndarray) and isinstance(stage, tensor.Stage)
        assert out.shape == stage.out.shape and out.tobytes() == stage.out.tobytes()
        assert [a.shape for a in on_arrays] == [a.shape for a in on_stage]
        assert [a.tobytes() for a in on_arrays] == [a.tobytes() for a in on_stage]
        assert len(on_stage) == block.startswith("attention")

    def test_backward_collects_nothing(self, rng):
        """The rebuild in backward runs every attention block again, but only
        the forward hands ``collect`` its probabilities."""
        probs = []
        out = stack_node(*[Tensor(a, requires_grad=True) for a in stack_arrays(rng, (2,), 2)],
                         heads=4, rows=HEAD_ROWS, collect=probs)
        forward = list(probs)
        out.sum().backward()
        assert len(forward) == 2 and len(probs) == 2
        assert all(a is b for a, b in zip(probs, forward))


class TestBroadcastAndReduceRules:
    """The broadcast and reduction rules against explicit references. Values
    are small integers, so every sum is exact in any order."""

    @staticmethod
    def ints(draw, shape):
        return draw(hnp.arrays(np.float64, shape, elements=st.integers(-8, 8).map(float)))

    @staticmethod
    def summed_into(g, shape):
        """``g`` summed onto ``shape`` through an index map: each element of an
        array of ``shape``, broadcast to ``g``'s shape, collects what lands on it."""
        index = np.broadcast_to(np.arange(math.prod(shape)).reshape(shape), g.shape)
        return np.bincount(index.ravel(), weights=g.ravel(), minlength=math.prod(shape)) \
            .reshape(shape)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), op=st.sampled_from(["add", "sub", "mul"]),
           shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, min_side=0, max_side=4))
    def test_elementwise_broadcast(self, data, op, shapes):
        (sa, sb), out_shape = shapes.input_shapes, shapes.result_shape
        a, b = self.ints(data.draw, sa), self.ints(data.draw, sb)
        g = self.ints(data.draw, out_shape)
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        out = getattr(tensor, op)(ta, tb)
        (out * Tensor(g)).sum().backward()
        fa, fb = np.broadcast_to(a, out_shape), np.broadcast_to(b, out_shape)
        value, ga, gb = {"add": (fa + fb, g, g), "sub": (fa - fb, g, -g),
                         "mul": (fa * fb, g * fb, g * fa)}[op]
        assert out.shape == out_shape and np.array_equal(out.data, value)
        assert ta.grad.shape == sa and np.array_equal(ta.grad, self.summed_into(ga, sa))
        assert tb.grad.shape == sb and np.array_equal(tb.grad, self.summed_into(gb, sb))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), op=st.sampled_from(["tsum", "tmean"]), keepdims=st.booleans(),
           shape=hnp.array_shapes(min_dims=0, max_dims=4, min_side=1, max_side=4))
    def test_reductions(self, data, op, keepdims, shape):
        axis = data.draw(st.none() | hnp.valid_tuple_axes(len(shape))
                         | (st.integers(-len(shape), len(shape) - 1) if shape else st.nothing()))
        x = self.ints(data.draw, shape)
        axes = tuple(range(len(shape))) if axis is None else \
            tuple(a % len(shape) for a in (axis if isinstance(axis, tuple) else (axis,)))
        kept = tuple(1 if i in axes else n for i, n in enumerate(shape))
        out_shape = kept if keepdims else tuple(n for i, n in enumerate(shape) if i not in axes)
        count = math.prod(shape[i] for i in axes)
        # each input element's position in the kept-dims output
        index = np.ravel_multi_index(
            tuple(np.zeros_like(ix) if i in axes else ix
                  for i, ix in enumerate(np.indices(shape))), kept) if shape else np.zeros((), int)
        sums = np.bincount(np.ravel(index), weights=x.ravel(), minlength=math.prod(kept))
        g = self.ints(data.draw, out_shape)
        t = Tensor(x, requires_grad=True)
        out = getattr(tensor, op)(t, axis=axis, keepdims=keepdims)
        (out * Tensor(g)).sum().backward()
        scale = 1.0 if op == "tsum" else count
        assert out.shape == out_shape
        assert np.array_equal(out.data, (sums / scale).reshape(out_shape))
        assert t.grad.shape == shape
        assert np.array_equal(t.grad, np.ravel(g)[index] / scale)


class TestLayerNorm:
    """The layer-norm oracle the stages are held to, against hand values
    and finite differences; the blocks' own refusal of a bad gain."""

    def test_constant_input_is_bias(self, rng):
        x = np.full((4,), 7.3)
        gain = rng.standard_normal(4)
        bias = rng.standard_normal(4)
        out = layer_norm(Tensor(x), Tensor(gain), Tensor(bias))
        assert np.allclose(out.data, bias, atol=1e-12)

    def test_hand_computed(self):
        out = layer_norm(Tensor([1.0, 2.0, 3.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, [-1.2247, 0.0, 1.2247], atol=1e-3)

    def test_mismatched_gain(self, rng):
        x, gain, params = Tensor(np.zeros((2, 4))), np.ones(3), layer_params(rng, 4, 5)
        for i in (0, 10):  # the attention's norm, then the feed-forward's
            with pytest.raises(DimensionError, match=r"\(3,\)"):
                layer_node(x, *params[:i], gain, *params[i + 1:], heads=1)

    def test_gradcheck(self, rng):
        for _ in range(10):
            x = rng.standard_normal((3, 5))
            gain = rng.standard_normal(5)
            bias = rng.standard_normal(5)
            c = rng.standard_normal((3, 5))
            forward = lambda a, g, b: (layer_norm(a, g, b) * c).sum()
            grads = grad_of(forward, x, gain, bias)
            for i, g in enumerate(grads):
                assert relative_error(g, fd_of(forward, [x, gain, bias], i)) < 1e-5


class TestBackward:
    def test_sum_gradient_is_ones(self):
        w = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        w.sum().backward()
        assert np.array_equal(w.grad, np.ones((2, 2)))

    def test_square_gradient(self):
        w = Tensor([1.0, -2.0], requires_grad=True)
        (w * w).sum().backward()
        assert np.array_equal(w.grad, [2.0, -4.0])

    def test_non_scalar_rejected(self):
        with pytest.raises(ContractError):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    def test_double_backward_doubles_exactly(self, rng):
        w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        loss = ((w @ b.reshape((3, 1))).relu() * 2.0).sum()
        loss.backward()
        gw, gb = w.grad.copy(), b.grad.copy()
        loss.backward()
        assert np.array_equal(w.grad, 2.0 * gw)
        assert np.array_equal(b.grad, 2.0 * gb)

    def test_mlp_composite_gradcheck(self, rng):
        for _ in range(10):
            x = rng.standard_normal((2, 6))
            w1 = rng.standard_normal((6, 8)) * 0.5
            b1 = rng.standard_normal(8) * 0.1
            w2 = rng.standard_normal((8, 1)) * 0.5
            y = rng.standard_normal((2, 1))

            def forward(xx, ww1, bb1, ww2):
                h = tensor.relu(xx @ ww1 + bb1)
                d = h @ ww2 - y
                return (d * d).mean()

            grads = grad_of(forward, x, w1, b1, w2)
            for i, g in enumerate(grads):
                assert relative_error(g, fd_of(forward, [x, w1, b1, w2], i)) < 1e-5

    def test_zero_grad_resets(self):
        w = Tensor([2.0], requires_grad=True)
        (w * w).sum().backward()
        w.zero_grad()
        assert w.grad is None


class TestShapeOps:
    def test_reshape_swap_take_roundtrip_grads(self, rng):
        x = rng.standard_normal((2, 3, 4))
        c = rng.standard_normal((4, 3))
        forward = lambda t: (swapaxes_node(t.reshape((2, 3, 4)), -1, -2)[0] * c).sum()
        (g,) = grad_of(forward, x)
        assert relative_error(g, fd_of(forward, [x], 0)) < 1e-6

    def test_concat_grads(self, rng):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 3))
        d = rng.standard_normal((4, 3))
        forward = lambda x, y: (concat([x, y], axis=0) * d).sum()
        ga, gb = grad_of(forward, a, b)
        assert relative_error(ga, fd_of(forward, [a, b], 0)) < 1e-6
        assert relative_error(gb, fd_of(forward, [a, b], 1)) < 1e-6

    def test_detach_blocks_gradients(self):
        w = Tensor([3.0], requires_grad=True)
        (w.detach() * w).sum().backward()
        assert np.array_equal(w.grad, [3.0])  # only the live path contributes

    def test_no_grad_skips_graph(self):
        w = Tensor([1.0], requires_grad=True)
        with tensor.no_grad():
            out = w * 2.0
        assert out._parents == ()
        assert not out.requires_grad
