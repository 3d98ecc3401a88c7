"""Tape-based reverse-mode differentiation on float64 arrays.

The op set is exactly what the pair model needs: dense linear algebra,
ReLU, graph segment means, masked readouts, and batch normalization.
Every op appends one entry to a :class:`Tape`; entries are created in
execution order, so the tape is already topologically sorted and
:meth:`Tape.backward` is a single reverse sweep.

Train-mode batch normalization is a pure function of its inputs (batch
statistics are recomputed on every call); updating running statistics
is a separate explicit step, which keeps finite-difference probing of
the forward pass honest.
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
        for out_id, _, backward_fn in reversed(self._entries):
            g = grads.get(out_id)
            if g is not None:
                backward_fn(g, grads)
        return grads


def _accumulate(grads: dict[int, np.ndarray], tensor_id: int, delta: np.ndarray) -> None:
    held = grads.get(tensor_id)
    if held is None:
        grads[tensor_id] = delta.copy()
    else:
        held += delta


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1-D bias against a 2-D left operand."""
    broadcast = a.value.ndim == 2 and b.value.ndim == 1 and a.value.shape[1] == b.value.shape[0]
    if not broadcast and a.value.shape != b.value.shape:
        raise ValueError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")

    def backward(g, grads):
        _accumulate(grads, a.id, g)
        _accumulate(grads, b.id, g.sum(axis=0) if broadcast else g)

    return a.tape._record((a, b), a.value + b.value, backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise ValueError(f"sub shape mismatch: {a.value.shape} vs {b.value.shape}")

    def backward(g, grads):
        _accumulate(grads, a.id, g)
        _accumulate(grads, b.id, -g)

    return a.tape._record((a, b), a.value - b.value, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.value.shape != b.value.shape:
        raise ValueError(f"mul shape mismatch: {a.value.shape} vs {b.value.shape}")

    def backward(g, grads):
        _accumulate(grads, a.id, g * b.value)
        _accumulate(grads, b.id, g * a.value)

    return a.tape._record((a, b), a.value * b.value, backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g, grads):
        _accumulate(grads, a.id, g * c)

    return a.tape._record((a,), a.value * c, backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; the left operand may be a vector (treated as a row)."""
    av, bv = a.value, b.value
    if bv.ndim != 2:
        raise ValueError(f"matmul right operand must be 2-D, got {bv.shape}")
    if av.ndim == 1:
        if av.shape[0] != bv.shape[0]:
            raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")

        def backward(g, grads):
            _accumulate(grads, a.id, bv @ g)
            _accumulate(grads, b.id, np.outer(av, g))

        return a.tape._record((a, b), av @ bv, backward)
    if av.ndim == 2:
        if av.shape[1] != bv.shape[0]:
            raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")

        def backward(g, grads):
            _accumulate(grads, a.id, g @ bv.T)
            _accumulate(grads, b.id, av.T @ g)

        return a.tape._record((a, b), av @ bv, backward)
    raise ValueError(f"matmul left operand must be 1-D or 2-D, got {av.shape}")


def relu(x: Tensor) -> Tensor:
    mask = x.value > 0.0

    def backward(g, grads):
        _accumulate(grads, x.id, g * mask)

    return x.tape._record((x,), np.where(mask, x.value, 0.0), backward)


def sum_all(x: Tensor) -> Tensor:
    shape = x.value.shape

    def backward(g, grads):
        _accumulate(grads, x.id, np.full(shape, float(g)))

    return x.tape._record((x,), np.asarray(x.value.sum()), backward)


def mean_axis(x: Tensor, axis: int = 0) -> Tensor:
    n = x.value.shape[axis]

    def backward(g, grads):
        _accumulate(grads, x.id, np.repeat(np.expand_dims(g / n, axis), n, axis=axis))

    return x.tape._record((x,), x.value.mean(axis=axis), backward)


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two 1-D tensors."""
    if a.value.ndim != 1 or b.value.ndim != 1:
        raise ValueError("concat expects 1-D tensors")
    na = a.value.shape[0]

    def backward(g, grads):
        _accumulate(grads, a.id, g[:na])
        _accumulate(grads, b.id, g[na:])

    return a.tape._record((a, b), np.concatenate([a.value, b.value]), backward)


def edge_messages(wflat: Tensor, h: Tensor, neighbor_index: np.ndarray) -> Tensor:
    """Per-edge matrix-vector products against gathered node states.

    ``wflat`` has shape ``(E, H * H)``; row ``e`` is a row-major ``H x H``
    matrix applied to ``h[neighbor_index[e]]``. Output is ``(E, H)``.
    """
    e_count, sq = wflat.value.shape
    hdim = h.value.shape[1]
    if sq != hdim * hdim:
        raise ValueError(f"edge weight width {sq} does not match hidden dim {hdim}")
    neighbor_index = np.asarray(neighbor_index, dtype=np.int64)
    if neighbor_index.shape != (e_count,):
        raise ValueError("neighbor index length does not match edge count")
    w = wflat.value.reshape(e_count, hdim, hdim)
    gathered = h.value[neighbor_index]
    out = np.einsum("ehk,ek->eh", w, gathered)

    def backward(g, grads):
        gw = np.einsum("eh,ek->ehk", g, gathered).reshape(e_count, hdim * hdim)
        _accumulate(grads, wflat.id, gw)
        gh_rows = np.einsum("ehk,eh->ek", w, g)
        gh = np.zeros_like(h.value)
        np.add.at(gh, neighbor_index, gh_rows)
        _accumulate(grads, h.id, gh)

    return wflat.tape._record((wflat, h), out, backward)


def scatter_mean(messages: Tensor, segment_index: np.ndarray, num_segments: int) -> Tensor:
    """Mean of message rows grouped by segment; empty segments yield zeros."""
    segment_index = np.asarray(segment_index, dtype=np.int64)
    if segment_index.shape != (messages.value.shape[0],):
        raise ValueError("segment index length does not match message count")
    counts = np.bincount(segment_index, minlength=num_segments).astype(np.float64)
    totals = np.zeros((num_segments, messages.value.shape[1]))
    np.add.at(totals, segment_index, messages.value)
    safe = np.where(counts > 0, counts, 1.0)
    out = totals / safe[:, None]

    def backward(g, grads):
        _accumulate(grads, messages.id, g[segment_index] / safe[segment_index, None])

    return messages.tape._record((messages,), out, backward)


def masked_mean(x: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over the rows selected by a boolean mask; all-false gives zeros."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (x.value.shape[0],):
        raise ValueError(f"mask length {mask.shape} does not match {x.value.shape[0]} rows")
    k = max(int(mask.sum()), 1)

    def backward(g, grads):
        gx = np.zeros_like(x.value)
        gx[mask] = g / k
        _accumulate(grads, x.id, gx)

    return x.tape._record((x,), x.value[mask].sum(axis=0) / k, backward)


def batchnorm_train(
    x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Normalize over rows using the batch's own statistics.

    Returns the normalized tensor plus the biased batch mean and
    variance, so the caller can fold them into running statistics as a
    separate step. Gradients flow through the batch statistics.
    """
    xv = x.value
    n = xv.shape[0]
    mean = xv.mean(axis=0)
    var = xv.var(axis=0)
    inv = 1.0 / np.sqrt(var + eps)
    x_hat = (xv - mean) * inv
    out = gamma.value * x_hat + beta.value

    def backward(g, grads):
        _accumulate(grads, gamma.id, (g * x_hat).sum(axis=0))
        _accumulate(grads, beta.id, g.sum(axis=0))
        gxh = g * gamma.value
        gx = inv * (gxh - gxh.mean(axis=0) - x_hat * (gxh * x_hat).mean(axis=0))
        _accumulate(grads, x.id, gx)

    assert n >= 1
    return x.tape._record((x, gamma, beta), out, backward), mean, var


def batchnorm_eval(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float = 1e-5,
) -> Tensor:
    """Normalize with frozen statistics; an affine map of the input."""
    inv = 1.0 / np.sqrt(running_var + eps)
    x_hat = (x.value - running_mean) * inv
    out = gamma.value * x_hat + beta.value

    def backward(g, grads):
        _accumulate(grads, gamma.id, (g * x_hat).sum(axis=0))
        _accumulate(grads, beta.id, g.sum(axis=0))
        _accumulate(grads, x.id, g * (gamma.value * inv))

    return x.tape._record((x, gamma, beta), out, backward)
