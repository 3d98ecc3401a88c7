"""Tape-based reverse-mode differentiation on float64 arrays.

The op set is exactly what the pair model needs, each a fat op with a
hand-written backward: a linear map, one message-passing layer
(bond-typed messages, mean aggregation, root map, normalization and ReLU),
the readout stack (masked readouts, heads, combine and output layers) and
the weighted squared errors of the loss. Each op call appends one entry
to a :class:`Tape`. An entry has one output or, like the readout stack,
several; entries are created in execution order, so the tape is already
topologically sorted and :meth:`Tape.backward` is a single reverse sweep.
Smaller primitives (sum, product, ReLU, concatenation, normalization)
remain for composing and checking.

An entry's backward function maps the output gradient to one gradient
per input and holds arrays only, never a :class:`Tensor`. Tensors point
at their tape and the tape points at nothing that points back, so a
tape and everything it recorded is freed by reference counting as soon
as the last tensor or trace holding it is dropped.

Train-mode normalization is a pure function of its inputs (batch
statistics are recomputed on every call); updating running statistics
is a separate explicit step, which keeps finite-difference probing of
the forward pass honest.

The message layer and the readout stack take graphs packed as a
disjoint union (``offsets`` marks where each graph's rows begin); one
graph is a pack of one. They normalize, and read out, each graph over
its own rows, with the gradient flowing through each graph's own
statistics, and give one row per graph. A :class:`GraphIndex` holds a
forward's index arrays, built once and read by every layer and its
backward.
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
    """Ordered record of ops; supports one reverse sweep per output.

    An entry's backward returns one gradient per input: the incoming
    gradient itself, or an array that shares no memory with it or with
    any other gradient (so not a view of the incoming gradient). An
    entry with several outputs gets a tuple of incoming gradients, None
    for an output that received none, and may return None for an input
    that gets no gradient.
    """

    def __init__(self):
        self._next_id = 0
        # (output id, or a tuple of ids for several outputs; input ids; backward)
        self._entries: list[tuple[int | tuple[int, ...], tuple[int, ...], Callable]] = []

    def _new_tensor(self, value: np.ndarray) -> Tensor:
        t = Tensor(np.asarray(value, dtype=np.float64), self, self._next_id)
        self._next_id += 1
        return t

    def leaf(self, value: np.ndarray) -> Tensor:
        """Register an input tensor (parameter binding or feature matrix)."""
        return self._new_tensor(value)

    def constant(self, value) -> Tensor:
        return self._new_tensor(np.asarray(value, dtype=np.float64))

    def _check_inputs(self, inputs: tuple[Tensor, ...]) -> tuple[int, ...]:
        for t in inputs:
            if t.tape is not self:
                raise ValueError("op inputs live on different tapes")
        return tuple(t.id for t in inputs)

    def _record(self, inputs: tuple[Tensor, ...], value: np.ndarray, backward: Callable) -> Tensor:
        """Append an entry; ``backward(g)`` returns one gradient per input, in order."""
        input_ids = self._check_inputs(inputs)
        out = self._new_tensor(value)
        self._entries.append((out.id, input_ids, backward))
        return out

    def _record_outputs(
        self, inputs: tuple[Tensor, ...], values: tuple[np.ndarray, ...], backward: Callable
    ) -> tuple[Tensor, ...]:
        """Append one entry with several outputs; ``backward(gs)`` takes one gradient (or None) per output."""
        input_ids = self._check_inputs(inputs)
        outs = tuple(self._new_tensor(v) for v in values)
        self._entries.append((tuple(t.id for t in outs), input_ids, backward))
        return outs

    def backward(self, output: Tensor) -> dict[int, np.ndarray]:
        """Gradients of a scalar output w.r.t. every tensor on the tape.

        Returns a map from tensor id to gradient array; tensors that the
        output does not depend on are absent. No two gradients share
        memory: a delta is stored as returned unless it is the incoming
        gradient itself, and sums are taken out of place.
        """
        if output.tape is not self:
            raise ValueError("output tensor is not on this tape")
        if output.value.size != 1:
            raise ValueError(f"backward needs a scalar output, got shape {output.value.shape}")
        grads: dict[int, np.ndarray] = {output.id: np.ones_like(output.value)}
        for out_id, input_ids, backward_fn in reversed(self._entries):
            g = grads.get(out_id)
            if g is None:
                if out_id.__class__ is tuple:
                    self._sweep_outputs(out_id, input_ids, backward_fn, grads)
                continue
            for tensor_id, delta in zip(input_ids, backward_fn(g)):
                held = grads.get(tensor_id)
                if held is not None:
                    grads[tensor_id] = held + delta
                elif delta is g:
                    grads[tensor_id] = delta.copy()
                else:
                    grads[tensor_id] = delta
        return grads

    @staticmethod
    def _sweep_outputs(out_ids, input_ids, backward_fn, grads) -> None:
        """The sweep's step for an entry with several outputs."""
        gs = tuple([grads.get(i) for i in out_ids])
        incoming = {id(g) for g in gs if g is not None}
        if not incoming:
            return
        for tensor_id, delta in zip(input_ids, backward_fn(gs)):
            if delta is None:
                continue
            held = grads.get(tensor_id)
            if held is not None:
                grads[tensor_id] = held + delta
            elif id(delta) in incoming:
                grads[tensor_id] = delta.copy()
            else:
                grads[tensor_id] = delta


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


def _affine_grads(x: np.ndarray, w: np.ndarray, g: np.ndarray):
    """Gradients of ``x @ w + b`` for rows ``x``, computed as :func:`matmul` and :func:`add` do.

    ``ndarray.dot`` gives the same products as ``@`` on 2-D operands with
    less call overhead, which matters for the one-row readouts.
    """
    return g.dot(w.T), x.T.dot(g), g.sum(axis=0)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` as one entry; ``x`` holds one row per item."""
    xv, wv, bv = x.value, weight.value, bias.value
    if wv.ndim != 2 or xv.ndim != 2 or xv.shape[1] != wv.shape[0] or bv.shape != wv.shape[1:]:
        raise ValueError(f"linear shape mismatch: {xv.shape} @ {wv.shape} + {bv.shape}")

    def backward(g):
        return _affine_grads(xv, wv, g)

    return x.tape._record((x, weight, bias), xv.dot(wv) + bv, backward)


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
        return g[..., :na].copy(), g[..., na:].copy()

    return a.tape._record((a, b), np.concatenate([av, bv], axis=-1), backward)


def _segments(offsets, n: int) -> list[tuple[int, int]]:
    """Row ranges of the packed graphs; ``offsets`` None means one graph of ``n`` rows.

    ``offsets`` holds each graph's first row and then ``n``, so graph ``k``
    owns rows ``offsets[k]:offsets[k + 1]``; every graph needs a row.
    """
    if offsets is None:
        return [(0, n)]
    bounds = np.asarray(offsets, dtype=np.int64).tolist()
    if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != n or any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError(f"graph offsets {bounds} do not split {n} rows into non-empty graphs")
    return list(zip(bounds, bounds[1:]))


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


def _masked_means(x: np.ndarray, mask: np.ndarray, segments) -> tuple[np.ndarray, np.ndarray]:
    """Each graph's mean over its masked rows, one row per graph, and the divisors (at least 1)."""
    means = np.empty((len(segments), x.shape[1]))
    counts = np.empty((len(segments), 1))
    for row, count, (a, b) in zip(means, counts, segments):
        selected = mask[a:b]
        np.add.reduce(x[a:b][selected], axis=0, out=row)
        count[0] = max(np.count_nonzero(selected), 1)
    means /= counts
    return means, counts


def _masked_means_backward(g: np.ndarray, mask: np.ndarray, counts: np.ndarray, segments) -> np.ndarray:
    """Gradient w.r.t. the rows of :func:`_masked_means`; unmasked rows get zeros."""
    rows = _per_row(g.reshape(len(counts), -1) / counts, segments)
    return np.where(mask[:, None], rows, 0.0)


def _checked_mask(mask, n: int) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n,):
        raise ValueError(f"mask length {mask.shape} does not match {n} rows")
    return mask


def masked_mean(x: Tensor, mask: np.ndarray, offsets=None) -> Tensor:
    """Mean over the rows selected by a boolean mask; all-false gives zeros.

    With ``offsets`` (see :func:`message_layer`) the rows are several
    packed graphs and the result has one mean per graph, each over that
    graph's selected rows.
    """
    mask = _checked_mask(mask, x.value.shape[0])
    segments = _segments(offsets, x.value.shape[0])
    means, counts = _masked_means(x.value, mask, segments)

    def backward(g):
        return (_masked_means_backward(g, mask, counts, segments),)

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


class GraphIndex:
    """Index arrays of graphs packed as a disjoint union, for one forward.

    Row ``(v, w)`` of ``edge_index`` is the edge along which atom ``v``
    receives from ``w``; ``offsets`` holds each graph's first atom and
    then the atom count, None for a pack of one. Built once per forward,
    it holds what every message layer and its backward read: the
    receiver and neighbour arrays, the inverse in-degrees, the graphs'
    row ranges and, once first used, the scatter indices.
    """

    __slots__ = ("num_atoms", "num_edges", "receiver", "neighbor", "inv_count", "segments",
                 "_scatter_index")

    def __init__(self, edge_index, num_atoms: int, offsets=None):
        edge_index = np.asarray(edge_index, dtype=np.int64).reshape(-1, 2)
        self.num_atoms = num_atoms
        self.num_edges = len(edge_index)
        self.receiver = np.ascontiguousarray(edge_index[:, 0])
        self.neighbor = np.ascontiguousarray(edge_index[:, 1])
        # column of 1 / in-degree; atoms without bonds divide by 1
        self.inv_count = (1.0 / np.maximum(np.bincount(self.receiver, minlength=num_atoms), 1))[:, None]
        self.segments = _segments(offsets, num_atoms)
        self._scatter_index: dict[tuple[bool, int], np.ndarray] = {}

    def _scatter(self, rows: np.ndarray, to_receivers: bool) -> np.ndarray:
        n, width = self.num_atoms, rows.shape[1]
        flat = self._scatter_index.get((to_receivers, width))
        if flat is None:
            index = self.receiver if to_receivers else self.neighbor
            flat = (index[:, None] * width + np.arange(width)).ravel()
            self._scatter_index[to_receivers, width] = flat
        return np.bincount(flat, rows.ravel(), n * width).reshape(n, width)

    def sum_to_receivers(self, rows: np.ndarray) -> np.ndarray:
        """Sum of per-edge ``rows`` into each edge's receiving atom; atoms without edges get zeros."""
        return self._scatter(rows, True)

    def sum_to_neighbors(self, rows: np.ndarray) -> np.ndarray:
        """Sum of per-edge ``rows`` into each edge's sending neighbour."""
        return self._scatter(rows, False)


def message_layer(
    h: Tensor,
    e: Tensor,
    edge_weight: Tensor,
    edge_bias: Tensor,
    root_weight: Tensor,
    root_bias: Tensor,
    gamma: Tensor,
    beta: Tensor,
    graph: GraphIndex,
    running: tuple[np.ndarray, np.ndarray] | None = None,
    eps: float = 1e-5,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """One bond-typed convolution layer, normalized and rectified, as one tape entry.

    ``graph`` indexes the edges (see :class:`GraphIndex`): along edge
    ``(v, w)`` atom ``v`` receives the message ``sum_b [e_vw, 1]_b * W_b @ h_w``,
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

    The rows are graphs packed as a disjoint union (one graph is a pack
    of one): atoms stacked graph after graph, edges in the stacked
    numbering, and ``graph.segments`` holding each graph's rows. Messages
    never cross graphs, since no edge does; batch statistics are taken
    per graph, so each graph is normalized as if it ran alone. Running
    statistics apply to every row alike.

    Returns the output and the mean and variance it normalized with:
    batch statistics have shape ``(G, H)``, one row per graph; running
    ones are returned as given.
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
    if graph.num_atoms != n or graph.num_edges != n_edges:
        raise ValueError(
            f"graph index of {graph.num_atoms} atoms and {graph.num_edges} edges does not match "
            f"{n} atom rows and {n_edges} edge rows"
        )
    receiver, neighbor, inv_count, segments = graph.receiver, graph.neighbor, graph.inv_count, graph.segments

    # row b*H + i of stacked is row i of W_b, so (h @ stacked.T)[w, b*H + i] = (W_b @ h_w)[i]
    stacked = np.concatenate([edge_weight.value, edge_bias.value[None, :]]).reshape(types * hdim, hdim)
    gathered = (hv @ stacked.T)[neighbor].reshape(n_edges, types, hdim)
    weights = np.concatenate([ev, np.ones((n_edges, 1))], axis=1)  # [e, 1]
    messages = np.matmul(weights[:, None, :], gathered)[:, 0, :]

    root_wv, gamma_v = root_weight.value, gamma.value
    pre = hv @ root_wv + root_bias.value
    pre += graph.sum_to_receivers(messages) * inv_count
    normed, x_hat, inv, mean, var = _normalize(pre, gamma_v, beta.value, running, eps, segments)
    active = normed > 0.0
    batch_stats = running is None

    def backward(g):
        g_pre, g_gamma, g_beta = _normalize_backward(
            g * active, gamma_v, x_hat, inv, batch_stats, segments
        )
        g_messages = (g_pre * inv_count)[receiver]
        g_e = np.matmul(gathered[:, :width], g_messages[:, :, None])[:, :, 0]
        g_typed = graph.sum_to_neighbors(
            (weights[:, :, None] * g_messages[:, None, :]).reshape(n_edges, types * hdim)
        )
        g_h = g_pre @ root_wv.T + g_typed @ stacked
        g_stacked = (g_typed.T @ hv).reshape(types, hdim * hdim)
        return (
            g_h, g_e, g_stacked[:width], g_stacked[width],
            hv.T @ g_pre, g_pre.sum(axis=0), g_gamma, g_beta,
        )

    inputs = (h, e, edge_weight, edge_bias, root_weight, root_bias, gamma, beta)
    return h.tape._record(inputs, np.where(active, normed, 0.0), backward), mean, var


def _plus(a, b):
    """Sum of two gradients where either may be absent (None)."""
    if a is None:
        return b
    return a if b is None else a + b


def readout(
    h: Tensor,
    common_mask,
    uncommon_mask,
    head_cn_weight: Tensor,
    head_cn_bias: Tensor,
    head_ucn_weight: Tensor,
    head_ucn_bias: Tensor,
    combine_weight: Tensor,
    combine_bias: Tensor,
    out_weight: Tensor,
    out_bias: Tensor,
    graph: GraphIndex,
) -> tuple[Tensor, Tensor, Tensor, Tensor, Tensor]:
    """The readout stack as one tape entry with five outputs.

    ``r_cn`` and ``r_ucn`` are the means of ``h`` over each graph's rows
    in the common and uncommon masks (zeros for an empty mask), as
    :func:`masked_mean` takes them. The heads map them to
    ``a_cn = r_cn @ W_cn + b_cn`` and ``a_ucn = r_ucn @ W_ucn + b_ucn``;
    the combine layer maps ``[a_cn, a_ucn]`` and the output layer maps
    the result to ``y_hat``. Returns ``(r_cn, r_ucn, a_cn, a_ucn, y_hat)``
    with one row per graph: ``(G, H)`` and ``(G, 1)``, so ``(1, H)`` and
    ``(1, 1)`` for one graph. The backward takes a gradient for any
    subset of the outputs and computes what :func:`masked_mean`,
    :func:`matmul`, :func:`add` and :func:`concat` would.
    """
    hv = h.value
    n, hdim = hv.shape
    common = _checked_mask(common_mask, n)
    uncommon = _checked_mask(uncommon_mask, n)
    segments = graph.segments
    if graph.num_atoms != n:
        raise ValueError(f"graph index of {graph.num_atoms} atoms does not match {n} rows")
    r_cn, n_cn = _masked_means(hv, common, segments)
    if uncommon is common:  # standalone prediction passes one all-true mask twice
        r_ucn, n_ucn = r_cn.copy(), n_cn
    else:
        r_ucn, n_ucn = _masked_means(hv, uncommon, segments)
    w_cn, w_ucn, w_c, w_o = (t.value for t in (head_cn_weight, head_ucn_weight, combine_weight, out_weight))
    a_cn = r_cn.dot(w_cn) + head_cn_bias.value
    a_ucn = r_ucn.dot(w_ucn) + head_ucn_bias.value
    both = np.concatenate([a_cn, a_ucn], axis=1)
    combined = both.dot(w_c) + combine_bias.value
    y_hat = combined.dot(w_o) + out_bias.value

    def backward(gs):
        g_rcn, g_rucn, g_acn, g_aucn, g_y = gs
        g_wo = g_bo = g_wc = g_bc = None
        if g_y is not None:
            g_combined, g_wo, g_bo = _affine_grads(combined, w_o, g_y)
            g_both, g_wc, g_bc = _affine_grads(both, w_c, g_combined)
            g_acn = _plus(g_acn, g_both[:, :hdim])
            g_aucn = _plus(g_aucn, g_both[:, hdim:])
        g_wcn = g_bcn = g_wucn = g_bucn = g_h = None
        if g_acn is not None:
            g_r, g_wcn, g_bcn = _affine_grads(r_cn, w_cn, g_acn)
            g_rcn = _plus(g_rcn, g_r)
        if g_aucn is not None:
            g_r, g_wucn, g_bucn = _affine_grads(r_ucn, w_ucn, g_aucn)
            g_rucn = _plus(g_rucn, g_r)
        if g_rucn is not None:
            g_h = _masked_means_backward(g_rucn, uncommon, n_ucn, segments)
        if g_rcn is not None:
            g_h = _plus(g_h, _masked_means_backward(g_rcn, common, n_cn, segments))
        return g_h, g_wcn, g_bcn, g_wucn, g_bucn, g_wc, g_bc, g_wo, g_bo

    inputs = (h, head_cn_weight, head_cn_bias, head_ucn_weight, head_ucn_bias,
              combine_weight, combine_bias, out_weight, out_bias)
    return h.tape._record_outputs(inputs, (r_cn, r_ucn, a_cn, a_ucn, y_hat), backward)


def squared_error(groups) -> Tensor:
    """Weighted sums of squared errors as one scalar entry.

    ``groups`` is a sequence of ``(weight, terms)``, each term a pair of a
    tensor and its labels (one per entry of the tensor). The value is the
    sum over groups of ``weight`` times the group's sum of
    ``sum((tensor - labels)**2)``, summed in order, as ``add``, ``scale``
    and ``sum_all(mul(d, d))`` over ``d = sub(tensor, labels)`` compute it.
    """
    preds, diffs, weights = [], [], []
    total = None
    for weight, terms in groups:
        group = None
        for pred, labels in terms:
            d = pred.value - np.reshape(np.asarray(labels, dtype=np.float64), pred.value.shape)
            s = (d * d).sum()
            group = s if group is None else group + s
            preds.append(pred)
            diffs.append(d)
            weights.append(float(weight))
        if group is not None:
            group = group * float(weight)
            total = group if total is None else total + group
    if total is None:
        raise ValueError("squared_error needs at least one term")

    def backward(g):
        g = float(g)
        return tuple(d * (2.0 * (g * w)) for d, w in zip(diffs, weights))

    return preds[0].tape._record(tuple(preds), np.asarray(total), backward)


# The primitives below are not used by the package since message_layer
# replaced them, nor are add ... masked_mean above since linear, readout and
# squared_error did. They stay because the benchmark's tracer
# (perfbench/tracing.py) counts tape ops by looking each op up here by name;
# they go once it counts tape entries instead.


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
