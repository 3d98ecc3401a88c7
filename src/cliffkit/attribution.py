"""Atom attribution maps for trained pair models.

All four methods explain the standalone prediction path (all-true
masks, eval mode), so a compound's map does not depend on which pair it
appears in. Class activation mapping is adapted to this architecture:
the stack from the pooled embedding through the heads, combine, and
output layers is linear, so its composed coefficient vector plays the
role of the class weights. Gradient-based methods differentiate the
same scalar output.

Methods producing bond-level values (gradient times input, integrated
gradients) keep them separate in the map; ``node_level`` folds each
directed edge value half onto each endpoint, conserving the total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ForwardTrace, MpnnModel, forward, forward_from_arrays
from .molgraph import MolecularGraph
from .pairs import CliffPair

METHODS = ("cam", "gradcam", "gradinput", "ig")


@dataclass(frozen=True)
class AttributionConfig:
    ig_steps: int = 64

    def __post_init__(self):
        if self.ig_steps < 1:
            raise ValueError("ig_steps must be positive")


DEFAULT_CONFIG = AttributionConfig()


@dataclass(frozen=True)
class AttributionMap:
    """Per-atom (and optionally per-directed-edge) relevance values."""

    method: str
    node_values: np.ndarray
    edge_values: np.ndarray | None

    def node_level(self, edge_index: np.ndarray | None = None) -> np.ndarray:
        """Node values with any edge values redistributed onto endpoints."""
        if self.edge_values is None:
            return self.node_values
        if edge_index is None:
            raise ValueError("edge_index is required to fold edge values")
        return redistribute_edges(self.node_values, self.edge_values, edge_index)


def redistribute_edges(
    node_values: np.ndarray, edge_values: np.ndarray, edge_index: np.ndarray
) -> np.ndarray:
    """Split every directed edge value 50/50 onto its endpoints.

    The sum of the result equals ``node_values.sum() + edge_values.sum()``
    exactly up to float addition order.
    """
    edge_index = np.asarray(edge_index, dtype=np.int64).reshape(-1, 2)
    if edge_values.shape[0] != edge_index.shape[0]:
        raise ValueError("edge value count does not match edge index")
    out = np.asarray(node_values, dtype=np.float64).copy()
    half = 0.5 * np.asarray(edge_values, dtype=np.float64)
    np.add.at(out, edge_index[:, 0], half)
    np.add.at(out, edge_index[:, 1], half)
    return out


def _effective_readout_weights(model: MpnnModel) -> np.ndarray:
    """Coefficients of the linear map from the pooled embedding to the output."""
    h = model.config.hidden_dim
    w_cn = model.params["head_cn.weight"].value
    w_ucn = model.params["head_ucn.weight"].value
    w_cmb = model.params["combine.weight"].value
    w_out = model.params["out.weight"].value
    return ((w_cn @ w_cmb[:h, :] + w_ucn @ w_cmb[h:, :]) @ w_out).ravel()


def _input_gradients(trace: ForwardTrace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    grads = trace.tape.backward(trace.y_hat)
    gx = grads.get(trace.x.id)
    ge = grads.get(trace.e.id)
    gh = grads.get(trace.h.id)
    n, w = trace.x.value.shape
    return (
        gx if gx is not None else np.zeros((n, w)),
        ge if ge is not None else np.zeros_like(trace.e.value),
        gh if gh is not None else np.zeros_like(trace.h.value),
    )


def _integrated_gradients(
    model: MpnnModel,
    x_array: np.ndarray,
    e_array: np.ndarray,
    edge_index: np.ndarray,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Average input gradients along the zero-baseline path, times the input.

    Right-endpoint Riemann rule over ``steps`` points: the path scales
    both atom and bond features jointly from zero to the real input.
    """
    n = x_array.shape[0]
    mask = np.ones(n, dtype=bool)
    sum_gx = np.zeros_like(x_array)
    sum_ge = np.zeros_like(e_array)
    for s in range(1, steps + 1):
        t = s / steps
        trace = forward_from_arrays(model, t * x_array, t * e_array, edge_index, mask, mask)
        gx, ge, _ = _input_gradients(trace)
        sum_gx += gx
        sum_ge += ge
    node = (x_array * sum_gx / steps).sum(axis=1)
    edge = (e_array * sum_ge / steps).sum(axis=1)
    return node, edge


def attribute_all(
    model: MpnnModel,
    graph: MolecularGraph,
    methods=METHODS,
    config: AttributionConfig = DEFAULT_CONFIG,
) -> dict[str, AttributionMap]:
    """All requested maps for one compound, sharing a single forward pass."""
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown attribution method {m!r}; expected one of {METHODS}")
    trace = forward(model, graph)
    x_array, e_array = trace.x.value, trace.e.value
    need_grads = any(m in methods for m in ("gradcam", "gradinput"))
    if need_grads:
        gx, ge, gh = _input_gradients(trace)
    out: dict[str, AttributionMap] = {}
    for method in methods:
        if method == "cam":
            weights = _effective_readout_weights(model)
            node = trace.h.value @ weights
            out[method] = AttributionMap(method, node, None)
        elif method == "gradcam":
            alpha = gh.mean(axis=0)
            out[method] = AttributionMap(method, trace.h.value @ alpha, None)
        elif method == "gradinput":
            node = (gx * x_array).sum(axis=1)
            edge = (ge * e_array).sum(axis=1)
            out[method] = AttributionMap(method, node, edge)
        elif method == "ig":
            node, edge = _integrated_gradients(
                model, x_array, e_array, trace.edge_index, config.ig_steps
            )
            out[method] = AttributionMap(method, node, edge)
    return out


def attribute(
    model: MpnnModel,
    graph: MolecularGraph,
    method: str,
    config: AttributionConfig = DEFAULT_CONFIG,
) -> AttributionMap:
    """One attribution map; see :func:`attribute_all` for batch computation."""
    return attribute_all(model, graph, (method,), config)[method]


@dataclass(frozen=True)
class GroundTruthColoring:
    """Reference atom labels for a pair: which atoms should carry the cliff."""

    values_i: np.ndarray
    values_j: np.ndarray


def ground_truth(pair: CliffPair) -> GroundTruthColoring:
    """+1 on the uncommon atoms of the more active compound, -1 on the
    uncommon atoms of the less active one, 0 on the shared core."""
    if pair.y_i == pair.y_j:
        raise ValueError(f"pair {pair.pair_id} has equal activities; no direction exists")
    sign_i = 1.0 if pair.y_i > pair.y_j else -1.0
    values_i = np.where(pair.uncommon_mask_i, sign_i, 0.0)
    values_j = np.where(pair.uncommon_mask_j, -sign_i, 0.0)
    return GroundTruthColoring(values_i, values_j)
