"""Pair losses, group penalties, and their proximal operators.

A training pair contributes a squared-error term on the main affinity
prediction of each compound, plus node-information terms that force the
masked readouts themselves to be predictive: each head's readout is
scalarized by a dedicated linear map and regressed on the same label.
The group penalties act on the two head blocks (head plus scalarize
parameters, flattened per group) and are handled by proximal steps, not
by gradients.

Variants:

==========  =====================================================
``ucn``     squared error + uncommon-readout term only
``n``       squared error + both readout terms
``n-gl``    ``n`` with a group lasso prox on the head blocks
``n-sgl``   ``n`` with a sparse group lasso prox on the head blocks
==========  =====================================================

For a block of size p, the group lasso prox at step t is
``(1 - t*lam*sqrt(p)/||b||)_+ * b``; the sparse variant soft-thresholds
elementwise at ``t*alpha*lam`` first and then applies the group prox
with the remaining ``(1-alpha)*lam`` weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import ForwardTrace, MpnnModel

VARIANTS = ("ucn", "n", "n-gl", "n-sgl")


@dataclass(frozen=True)
class LossConfig:
    variant: str = "n"
    lam: float = 1e-3
    alpha: float = 0.5
    node_loss_weight: float = 1.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}; expected one of {VARIANTS}")
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.node_loss_weight < 0:
            raise ValueError("node_loss_weight must be non-negative")

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "lam": self.lam,
            "alpha": self.alpha,
            "node_loss_weight": self.node_loss_weight,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LossConfig":
        return cls(**d)


def _squared_error(y_hat: Tensor, y) -> Tensor:
    """Sum of squared differences; ``y`` holds one label per entry of ``y_hat``."""
    labels = np.reshape(np.asarray(y, dtype=np.float64), y_hat.value.shape)
    d = ad.sub(y_hat, y_hat.tape.constant(labels))
    return ad.sum_all(ad.mul(d, d))


def _labelled(trace_i: ForwardTrace, trace_j: ForwardTrace | None, y_i: float, y_j: float):
    """The pair as (trace, labels) parts: two one-graph traces, or one packed trace of both."""
    if trace_j is None:
        if trace_i.num_graphs != 2:
            raise ValueError(f"a packed pair trace holds 2 graphs, not {trace_i.num_graphs}")
        return [(trace_i, (y_i, y_j))]
    if trace_i.tape is not trace_j.tape:
        raise ValueError("pair traces must share one tape")
    return [(trace_i, (y_i,)), (trace_j, (y_j,))]


def _summed(terms: list[Tensor]) -> Tensor:
    total = terms[0]
    for term in terms[1:]:
        total = ad.add(total, term)
    return total


def _readout_term(trace: ForwardTrace, head: str, y) -> Tensor:
    s = trace.binding.linear(f"scalarize_{head}", getattr(trace, f"a_{head}"))
    return _squared_error(s, y)


def _mse(parts) -> Tensor:
    return _summed([_squared_error(trace.y_hat, y) for trace, y in parts])


def _node(parts, variant: str) -> Tensor:
    if variant not in VARIANTS:
        raise ValueError(f"unknown loss variant {variant!r}")
    total = _summed([_readout_term(trace, "ucn", y) for trace, y in parts])
    if variant != "ucn":
        total = ad.add(total, _summed([_readout_term(trace, "cn", y) for trace, y in parts]))
    return total


def loss_mse(trace_i: ForwardTrace, trace_j: ForwardTrace | None, y_i: float, y_j: float) -> Tensor:
    """Squared error of both main predictions against their labels.

    ``trace_j`` is None when ``trace_i`` holds both compounds packed.
    """
    return _mse(_labelled(trace_i, trace_j, y_i, y_j))


def loss_node(
    trace_i: ForwardTrace,
    trace_j: ForwardTrace | None,
    y_i: float,
    y_j: float,
    variant: str = "n",
) -> Tensor:
    """Node-information loss over the masked readouts of both compounds.

    Both head activations come from the traces; only the scalarize maps
    are added here. The ``ucn`` variant keeps just the uncommon terms.
    ``trace_j`` is None when ``trace_i`` holds both compounds packed.
    """
    return _node(_labelled(trace_i, trace_j, y_i, y_j), variant)


def pair_loss(
    trace_i: ForwardTrace,
    trace_j: ForwardTrace | None,
    y_i: float,
    y_j: float,
    config: LossConfig,
) -> Tensor:
    """Smooth objective for one pair: squared error plus weighted node loss.

    Takes the two compounds' one-graph traces on one tape, or, with
    ``trace_j`` None, one trace of both compounds packed in pair order.
    Both give the same value up to float summation order.
    """
    parts = _labelled(trace_i, trace_j, y_i, y_j)
    return ad.add(_mse(parts), ad.scale(_node(parts, config.variant), config.node_loss_weight))


def penalty_group_lasso(beta_cn: np.ndarray, beta_ucn: np.ndarray, lam: float) -> float:
    """lam * (sqrt(p_cn)*||b_cn|| + sqrt(p_ucn)*||b_ucn||) over the flattened head blocks."""
    value = 0.0
    for beta in (beta_cn, beta_ucn):
        beta = np.asarray(beta, dtype=np.float64)
        value += np.sqrt(beta.size) * np.linalg.norm(beta)
    return float(lam * value)


def penalty_sparse_group_lasso(
    beta_cn: np.ndarray, beta_ucn: np.ndarray, lam: float, alpha: float
) -> float:
    """Convex mix of the group penalty and an elementwise l1 penalty."""
    group_part = penalty_group_lasso(beta_cn, beta_ucn, lam)
    l1 = float(np.abs(beta_cn).sum() + np.abs(beta_ucn).sum())
    return (1.0 - alpha) * group_part + alpha * lam * l1


def prox_group_lasso(block: np.ndarray, step: float, lam: float) -> np.ndarray:
    """Block soft-threshold: minimizes ``0.5*||z-b||^2 + step*lam*sqrt(p)*||z||``, p the block size."""
    block = np.asarray(block, dtype=np.float64)
    threshold = step * lam * np.sqrt(block.size)
    if threshold == 0.0:
        return block.copy()
    norm = np.linalg.norm(block)
    if norm <= threshold:
        return np.zeros_like(block)
    return (1.0 - threshold / norm) * block


def prox_sparse_group_lasso(block: np.ndarray, step: float, lam: float, alpha: float) -> np.ndarray:
    """Elementwise soft-threshold, then the group prox on what survives.

    With ``alpha = 0`` this reduces exactly to :func:`prox_group_lasso`.
    """
    block = np.asarray(block, dtype=np.float64)
    soft = step * alpha * lam
    if soft > 0.0:
        block = np.sign(block) * np.maximum(np.abs(block) - soft, 0.0)
    return prox_group_lasso(block, step, (1.0 - alpha) * lam)


def apply_prox(model: MpnnModel, config: LossConfig, step: float) -> None:
    """Proximal update of both head blocks, per the config's variant.

    Each block is the group's parameters flattened in parameter order;
    the result is written back into the parameter arrays in place.
    """
    if config.variant not in ("n-gl", "n-sgl"):
        return
    for tag in ("CN_head", "UCN_head"):
        values = [model.params[name].value for name in model.group_names(tag)]
        block = np.concatenate(values, axis=None)
        if config.variant == "n-gl":
            block = prox_group_lasso(block, step, config.lam)
        else:
            block = prox_sparse_group_lasso(block, step, config.lam, config.alpha)
        offset = 0
        for value in values:
            value[...] = block[offset : offset + value.size].reshape(value.shape)
            offset += value.size
