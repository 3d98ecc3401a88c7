"""Tape-based reverse-mode differentiation on float64 arrays.

The op set is exactly what the pair model needs: dense linear algebra,
ReLU, masked readouts, and one fused message-passing layer (bond-typed
messages, mean aggregation, root map, normalization and ReLU in one
entry with a hand-written backward). Every op appends one entry to a
:class:`Tape`; entries are created in execution order, so the tape is
already topologically sorted and :meth:`Tape.backward` is a single
reverse sweep.

An entry's backward function maps the output gradient to one gradient
per input and holds arrays only, never a :class:`Tensor`. Tensors point
at their tape and the tape points at nothing that points back, so a
tape and everything it recorded is freed by reference counting as soon
as the last tensor or trace holding it is dropped.

Train-mode normalization is a pure function of its inputs (batch
statistics are recomputed on every call); updating running statistics
is a separate explicit step, which keeps finite-difference probing of
the forward pass honest.

The message layer and the masked readout also take several graphs
packed as a disjoint union (``offsets`` marks where each graph's rows
begin). They then normalize, and read out, each graph over its own rows,
with the gradient flowing through each graph's own statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

class Tensor:
    """Immutable handle to a float64 array recorded on a tape."""

    __slots__ = ("value", "tape", "id")

    def __init__(self, value: np.ndarray, tape: "Tape", tensor_id: int):
        self.value = value
        self.tape = tape
        self.id = tensor_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Tensor(id={self.id}, shape={self.value.shape})"


@dataclass
class Parameter:
    """Named trainable array with a penalty group tag.

    ``group_tag`` is one of ``"CN_head"``, ``"UCN_head"``, ``"other"``;
    the head tags mark the blocks that group penalties act on.
    """

    name: str
    value: np.ndarray
    group_tag: str = "other"

    def __post_init__(self):
        if self.group_tag not in ("CN_head", "UCN_head", "other"):
            raise ValueError(f"unknown group tag {self.group_tag!r}")
        self.value = np.asarray(self.value, dtype=np.float64)


class Tape:
    """Ordered record of primitive ops; supports one reverse sweep per output."""

    def __init__(self):
        self._next_id = 0
        self._entries: list[tuple[int, tuple[int, ...], Callable]] = []

    def _new_tensor(self, value: np.ndarray) -> Tensor:
        t = Tensor(np.asarray(value, dtype=np.float64), self, self._next_id)
        self._next_id += 1
        return t

    def leaf(self, value: np.ndarray) -> Tensor:
        """Register an input tensor (parameter binding or feature matrix)."""
        return self._new_tensor(value)

    def constant(self, value) -> Tensor:
        return self._new_tensor(np.asarray(value, dtype=np.float64))

    def _record(self, inputs: tuple[Tensor, ...], value: np.ndarray, backward: Callable) -> Tensor:
        """Append an entry; ``backward(g)`` returns one gradient per input, in order."""
        for t in inputs:
            if t.tape is not self:
                raise ValueError("op inputs live on different tapes")
        out = self._new_tensor(value)
        self._entries.append((out.id, tuple(t.id for t in inputs), backward))
        return out

    def backward(self, output: Tensor) -> dict[int, np.ndarray]:
        """Gradients of a scalar output w.r.t. every tensor on the tape.

        Returns a map from tensor id to gradient array; tensors that the
        output does not depend on are absent.
        """
        if output.tape is not self:
            raise ValueError("output tensor is not on this tape")
        if output.value.size != 1:
            raise ValueError(f"backward needs a scalar output, got shape {output.value.shape}")
        grads: dict[int, np.ndarray] = {output.id: np.ones_like(output.value)}
        for out_id, input_ids, backward_fn in reversed(self._entries):
            g = grads.get(out_id)
            if g is None:
                continue
            for tensor_id, delta in zip(input_ids, backward_fn(g)):
                held = grads.get(tensor_id)
                if held is None:
                    grads[tensor_id] = delta.copy()  # deltas may alias g or each other
                else:
                    held += delta
        return grads


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1-D bias against a 2-D left operand."""
    broadcast = a.value.ndim == 2 and b.value.ndim == 1 and a.value.shape[1] == b.value.shape[0]
    if not broadcast and a.value.shape != b.value.shape:
        raise ValueError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")

    def backward(g):
        return g, g.sum(axis=0) if broadcast else g

    return a.tape._record((a, b), a.value + b.value, backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ValueError(f"sub shape mismatch: {a.value.shape} vs {b.value.shape}")

    def backward(g):
        return g, -g

    return a.tape._record((a, b), a.value - b.value, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ValueError(f"mul shape mismatch: {av.shape} vs {bv.shape}")

    def backward(g):
        return g * bv, g * av

    return a.tape._record((a, b), av * bv, backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        return (g * c,)

    return a.tape._record((a,), a.value * c, backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; the left operand may be a vector (treated as a row)."""
    av, bv = a.value, b.value
    if bv.ndim != 2:
        raise ValueError(f"matmul right operand must be 2-D, got {bv.shape}")
    if av.ndim not in (1, 2):
        raise ValueError(f"matmul left operand must be 1-D or 2-D, got {av.shape}")
    if av.shape[-1] != bv.shape[0]:
        raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")

    if av.ndim == 1:
        def backward(g):
            return bv @ g, np.outer(av, g)
    else:
        def backward(g):
            return g @ bv.T, av.T @ g

    return a.tape._record((a, b), av @ bv, backward)


def relu(x: Tensor) -> Tensor:
    mask = x.value > 0.0

    def backward(g):
        return (g * mask,)

    return x.tape._record((x,), np.where(mask, x.value, 0.0), backward)


def sum_all(x: Tensor) -> Tensor:
    shape = x.value.shape

    def backward(g):
        return (np.full(shape, float(g)),)

    return x.tape._record((x,), np.asarray(x.value.sum()), backward)


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two 1-D tensors, or two 2-D tensors row by row (along the last axis)."""
    av, bv = a.value, b.value
    if av.ndim not in (1, 2) or av.ndim != bv.ndim or av.shape[:-1] != bv.shape[:-1]:
        raise ValueError(f"concat shape mismatch: {av.shape} vs {bv.shape}")
    na = av.shape[-1]

    def backward(g):
        return g[..., :na], g[..., na:]

    return a.tape._record((a, b), np.concatenate([av, bv], axis=-1), backward)


def _segments(offsets, n: int) -> list[tuple[int, int]]:
    """Row ranges of the packed graphs; ``offsets`` None means one graph of ``n`` rows.

    ``offsets`` holds each graph's first row and then ``n``, so graph ``k``
    owns rows ``offsets[k]:offsets[k + 1]``; every graph needs a row.
    """
    if offsets is None:
        return [(0, n)]
    bounds = [int(o) for o in offsets]
    if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != n or any(
        a >= b for a, b in zip(bounds[:-1], bounds[1:])
    ):
        raise ValueError(f"graph offsets {bounds} do not split {n} rows into non-empty graphs")
    return list(zip(bounds[:-1], bounds[1:]))


def _segment_means(x: np.ndarray, segments) -> np.ndarray:
    """Mean of each graph's rows, one row per graph (as ``mean(axis=0)`` sums and divides)."""
    out = np.empty((len(segments), x.shape[1]))
    for row, (a, b) in zip(out, segments):
        np.add.reduce(x[a:b], axis=0, out=row)
        row /= b - a
    return out


def _per_row(stats: np.ndarray, segments) -> np.ndarray:
    """Per-graph rows expanded to the graphs' rows (broadcast when there is one graph)."""
    if len(stats) == 1:
        return stats
    return np.repeat(stats, [b - a for a, b in segments], axis=0)


def masked_mean(x: Tensor, mask: np.ndarray, offsets=None) -> Tensor:
    """Mean over the rows selected by a boolean mask; all-false gives zeros.

    With ``offsets`` (see :func:`message_layer`) the rows are several
    packed graphs and the result has one mean per graph, each over that
    graph's selected rows.
    """
    mask = np.asarray(mask, dtype=bool)
    shape = x.value.shape
    if mask.shape != (shape[0],):
        raise ValueError(f"mask length {mask.shape} does not match {shape[0]} rows")
    segments = _segments(offsets, shape[0])
    means = np.empty((len(segments), shape[1]))
    counts = np.empty((len(segments), 1))
    for row, count, (a, b) in zip(means, counts, segments):
        selected = mask[a:b]
        np.add.reduce(x.value[a:b][selected], axis=0, out=row)
        count[0] = max(np.count_nonzero(selected), 1)
    means /= counts

    def backward(g):
        gx = np.zeros(shape)
        for (a, b), row in zip(segments, g.reshape(means.shape) / counts):
            gx[a:b][mask[a:b]] = row
        return (gx,)

    return x.tape._record((x,), means if offsets is not None else means[0], backward)


def _normalize(x, gamma, beta, running, eps, segments=None):
    """Row normalization with batch statistics (``running is None``) or frozen ones.

    Batch statistics are taken per graph over ``segments`` (all rows when
    None), one row per graph. Returns the output, the normalized input,
    the inverse deviation and the statistics used.
    """
    if running is None:
        segments = segments or [(0, len(x))]
        mean = _segment_means(x, segments)
        centred = x - _per_row(mean, segments)
        var = _segment_means(centred * centred, segments)  # as x.var(axis=0) computes it
        inv = _per_row(1.0 / np.sqrt(var + eps), segments)
        x_hat = centred * inv
    else:
        mean, var = running
        inv = 1.0 / np.sqrt(var + eps)
        x_hat = (x - mean) * inv
    return gamma * x_hat + beta, x_hat, inv, mean, var


def _normalize_backward(g, gamma, x_hat, inv, batch_stats: bool, segments=None):
    """Gradients w.r.t. (x, gamma, beta); through each graph's statistics when they are the batch's."""
    g_gamma = (g * x_hat).sum(axis=0)
    g_beta = g.sum(axis=0)
    gxh = g * gamma
    if batch_stats:
        segments = segments or [(0, len(g))]

        def row_means(a):
            return _per_row(_segment_means(a, segments), segments)

        gx = inv * (gxh - row_means(gxh) - x_hat * row_means(gxh * x_hat))
    else:
        gx = gxh * inv
    return gx, g_gamma, g_beta


def _scatter_rows(rows: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """Sum of ``rows`` grouped by ``index`` into ``n`` rows; groups without rows give zeros."""
    width = rows.shape[1]
    flat = (index[:, None] * width + np.arange(width)).ravel()
    return np.bincount(flat, rows.ravel(), n * width).reshape(n, width)


def message_layer(
    h: Tensor,
    e: Tensor,
    edge_weight: Tensor,
    edge_bias: Tensor,
    root_weight: Tensor,
    root_bias: Tensor,
    gamma: Tensor,
    beta: Tensor,
    edge_index: np.ndarray,
    running: tuple[np.ndarray, np.ndarray] | None = None,
    eps: float = 1e-5,
    *,
    offsets=None,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """One bond-typed convolution layer, normalized and rectified, as one tape entry.

    Row ``(v, w)`` of ``edge_index`` is the edge along which atom ``v``
    receives from ``w``. Its message is ``sum_b [e_vw, 1]_b * W_b @ h_w``,
    where ``W_b`` is row ``b`` of ``edge_weight`` (the trailing 1 picks
    ``edge_bias``) read as a row-major H x H matrix. As in R-GCN, every
    atom's typed states ``W_b @ h_w`` come from one N x H by H x (B+1)H
    product; no per-edge matrix is formed. Each edge gathers its
    neighbour's row of typed states and weights it by ``[e, 1]``, and
    each atom takes the mean over the edges it receives along (atoms
    without bonds receive 0); memory is linear in atoms and edges. The
    root map ``h @ root_weight + root_bias`` is added, the sum is
    normalized with batch statistics when ``running`` is None (the
    gradient flows through them) or with the given ``(mean, var)``
    otherwise, scaled by ``gamma``, shifted by ``beta`` and passed
    through ReLU.

    The rows may be several graphs packed as a disjoint union: atoms
    stacked graph after graph, ``edge_index`` in the stacked numbering,
    and ``offsets`` holding each graph's first atom followed by the atom
    count. Messages never cross graphs, since no edge does; batch
    statistics are then taken per graph, so each graph is normalized as
    if it ran alone. Running statistics apply to every row alike.

    Returns the output and the mean and variance it normalized with:
    shape ``(H,)``, or ``(G, H)`` with one row per graph when batch
    statistics are taken over ``offsets``.
    """
    hv, ev = h.value, e.value
    n, hdim = hv.shape
    n_edges, width = ev.shape
    types = width + 1
    if edge_weight.value.shape != (width, hdim * hdim) or edge_bias.value.shape != (hdim * hdim,):
        raise ValueError(
            f"edge network {edge_weight.value.shape}/{edge_bias.value.shape} does not match "
            f"bond width {width} and hidden dim {hdim}"
        )
    edge_index = np.asarray(edge_index, dtype=np.int64).reshape(-1, 2)
    if edge_index.shape[0] != n_edges:
        raise ValueError("edge index length does not match edge count")
    receiver, neighbor = edge_index[:, 0], edge_index[:, 1]
    segments = _segments(offsets, n)

    # row b*H + i of stacked is row i of W_b, so (h @ stacked.T)[w, b*H + i] = (W_b @ h_w)[i]
    stacked = np.concatenate([edge_weight.value, edge_bias.value[None, :]]).reshape(types * hdim, hdim)
    gathered = (hv @ stacked.T)[neighbor].reshape(n_edges, types, hdim)
    weights = np.concatenate([ev, np.ones((n_edges, 1))], axis=1)  # [e, 1]
    messages = np.matmul(weights[:, None, :], gathered)[:, 0, :]
    inv_count = 1.0 / np.maximum(np.bincount(receiver, minlength=n), 1)

    root_wv, gamma_v = root_weight.value, gamma.value
    pre = hv @ root_wv + root_bias.value
    pre += _scatter_rows(messages, receiver, n) * inv_count[:, None]
    normed, x_hat, inv, mean, var = _normalize(pre, gamma_v, beta.value, running, eps, segments)
    if running is None and offsets is None:
        mean, var = mean[0], var[0]
    active = normed > 0.0
    batch_stats = running is None

    def backward(g):
        g_pre, g_gamma, g_beta = _normalize_backward(
            g * active, gamma_v, x_hat, inv, batch_stats, segments
        )
        g_messages = (g_pre * inv_count[:, None])[receiver]
        g_e = np.matmul(gathered[:, :width], g_messages[:, :, None])[:, :, 0]
        g_typed = _scatter_rows(
            (weights[:, :, None] * g_messages[:, None, :]).reshape(n_edges, types * hdim), neighbor, n
        )
        g_h = g_pre @ root_wv.T + g_typed @ stacked
        g_stacked = (g_typed.T @ hv).reshape(types, hdim * hdim)
        return (
            g_h, g_e, g_stacked[:width], g_stacked[width],
            hv.T @ g_pre, g_pre.sum(axis=0), g_gamma, g_beta,
        )

    inputs = (h, e, edge_weight, edge_bias, root_weight, root_bias, gamma, beta)
    return h.tape._record(inputs, np.where(active, normed, 0.0), backward), mean, var


# The primitives below are not used by the package since message_layer
# replaced them. They stay because the benchmark's tracer (perfbench/tracing.py)
# counts tape ops by looking each op up here by name; they go once it counts
# tape entries instead.


def mean_axis(x: Tensor, axis: int = 0) -> Tensor:
    n = x.value.shape[axis]

    def backward(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return x.tape._record((x,), x.value.mean(axis=axis), backward)


def edge_messages(wflat: Tensor, h: Tensor, neighbor_index: np.ndarray) -> Tensor:
    """Per-edge matrix-vector products against gathered node states.

    ``wflat`` has shape ``(E, H * H)``; row ``e`` is a row-major ``H x H``
    matrix applied to ``h[neighbor_index[e]]``. Output is ``(E, H)``.
    """
    e_count, sq = wflat.value.shape
    hshape = h.value.shape
    hdim = hshape[1]
    if sq != hdim * hdim:
        raise ValueError(f"edge weight width {sq} does not match hidden dim {hdim}")
    neighbor_index = np.asarray(neighbor_index, dtype=np.int64)
    if neighbor_index.shape != (e_count,):
        raise ValueError("neighbor index length does not match edge count")
    w = wflat.value.reshape(e_count, hdim, hdim)
    gathered = h.value[neighbor_index]

    def backward(g):
        gw = np.einsum("eh,ek->ehk", g, gathered).reshape(e_count, hdim * hdim)
        gh = np.zeros(hshape)
        np.add.at(gh, neighbor_index, np.einsum("ehk,eh->ek", w, g))
        return gw, gh

    return wflat.tape._record((wflat, h), np.einsum("ehk,ek->eh", w, gathered), backward)


def scatter_mean(messages: Tensor, segment_index: np.ndarray, num_segments: int) -> Tensor:
    """Mean of message rows grouped by segment; empty segments yield zeros."""
    segment_index = np.asarray(segment_index, dtype=np.int64)
    if segment_index.shape != (messages.value.shape[0],):
        raise ValueError("segment index length does not match message count")
    counts = np.bincount(segment_index, minlength=num_segments).astype(np.float64)
    totals = np.zeros((num_segments, messages.value.shape[1]))
    np.add.at(totals, segment_index, messages.value)
    safe = np.where(counts > 0, counts, 1.0)

    def backward(g):
        return (g[segment_index] / safe[segment_index, None],)

    return messages.tape._record((messages,), totals / safe[:, None], backward)


def batchnorm_train(
    x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Normalize over rows using the batch's own statistics.

    Returns the normalized tensor plus the biased batch mean and
    variance. Gradients flow through the batch statistics.
    """
    gamma_v = gamma.value
    out, x_hat, inv, mean, var = _normalize(x.value, gamma_v, beta.value, None, eps)

    def backward(g):
        return _normalize_backward(g, gamma_v, x_hat, inv, True)

    return x.tape._record((x, gamma, beta), out, backward), mean[0], var[0]


def batchnorm_eval(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float = 1e-5,
) -> Tensor:
    """Normalize with frozen statistics; an affine map of the input."""
    gamma_v = gamma.value
    out, x_hat, inv, _, _ = _normalize(x.value, gamma_v, beta.value, (running_mean, running_var), eps)

    def backward(g):
        return _normalize_backward(g, gamma_v, x_hat, inv, False)

    return x.tape._record((x, gamma, beta), out, backward)
