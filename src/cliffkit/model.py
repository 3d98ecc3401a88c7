"""Edge-conditioned message passing network over molecular graphs.

The forward pass embeds atom features, runs a fixed number of
bond-typed convolution layers, then reads the graph out twice through
boolean atom masks: one readout over the atoms a pair has in common,
one over the rest. Two group-tagged head layers process the readouts
and a combine/output stack produces the scalar affinity.

A convolution layer holds one hidden x hidden matrix per bond feature
plus a bias matrix; a bond's message is their sum, weighted by its
feature row, applied to the neighbour's state. It is computed in R-GCN
form: each matrix is applied to every atom's state once, and the
results are gathered and weighted per bond, so no per-bond matrix is
formed. Each layer (messages, mean over neighbours, root map,
normalization, ReLU) is the single tape entry ``ad.message_layer``.

Masks are per-pair inputs. Standalone prediction uses all-true masks,
so a single compound is scored without reference to any partner.

One forward takes one graph or several packed as a disjoint union
(atoms stacked graph after graph, with each graph's first atom in
``offsets``, as PyTorch Geometric's ``Batch`` packs graphs). No edge
crosses graphs; train-mode normalization and both readouts are taken
per graph, so a packed graph gets the result it would get alone, up to
float summation order. Eval mode applies the running statistics to
every atom alike. Training packs the two compounds of a pair.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape, Tensor
from .molgraph import ATOM_FEATURE_WIDTH, BOND_FEATURE_WIDTH, MolecularGraph

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
# a message layer's parameters, in the order ad.message_layer takes them
_CONV_PARAMS = (
    "edge_net.weight", "edge_net.bias", "root.weight", "root.bias", "bn.scale", "bn.shift",
)


class CompatibilityError(ValueError):
    """Configuration does not match the data or checkpoint it is used with."""


class UninitializedStatsError(RuntimeError):
    """Eval-mode normalization was requested before any training batch."""


@dataclass(frozen=True)
class ModelConfig:
    hidden_dim: int = 64
    message_layers: int = 3
    atom_feature_width: int = ATOM_FEATURE_WIDTH
    bond_feature_width: int = BOND_FEATURE_WIDTH

    def __post_init__(self):
        if self.hidden_dim < 1 or self.message_layers < 1:
            raise ValueError("hidden_dim and message_layers must be positive")

    def to_dict(self) -> dict:
        return {
            "hidden_dim": self.hidden_dim,
            "message_layers": self.message_layers,
            "atom_feature_width": self.atom_feature_width,
            "bond_feature_width": self.bond_feature_width,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass
class BnRunningState:
    """Running mean/variance for one normalization layer."""

    mean: np.ndarray
    var: np.ndarray
    updates: int = 0


def _layer_specs(config: ModelConfig) -> list[tuple[str, tuple[int, ...], int, str]]:
    """(name, shape, fan_in, group_tag) for every parameter, in fixed order."""
    h = config.hidden_dim
    specs: list[tuple[str, tuple[int, ...], int, str]] = [
        ("node_embed.weight", (config.atom_feature_width, h), config.atom_feature_width, "other"),
        ("node_embed.bias", (h,), config.atom_feature_width, "other"),
    ]
    for layer in range(config.message_layers):
        specs += [  # each bond feature's h x h edge block maps a hidden state: fan-in h
            (f"conv{layer}.edge_net.weight", (config.bond_feature_width, h * h), h, "other"),
            (f"conv{layer}.edge_net.bias", (h * h,), h, "other"),
            (f"conv{layer}.root.weight", (h, h), h, "other"),
            (f"conv{layer}.root.bias", (h,), h, "other"),
            (f"conv{layer}.bn.scale", (h,), 0, "other"),
            (f"conv{layer}.bn.shift", (h,), 0, "other"),
        ]
    specs += [
        ("head_cn.weight", (h, h), h, "CN_head"),
        ("head_cn.bias", (h,), h, "CN_head"),
        ("head_ucn.weight", (h, h), h, "UCN_head"),
        ("head_ucn.bias", (h,), h, "UCN_head"),
        ("scalarize_cn.weight", (h, 1), h, "CN_head"),
        ("scalarize_cn.bias", (1,), h, "CN_head"),
        ("scalarize_ucn.weight", (h, 1), h, "UCN_head"),
        ("scalarize_ucn.bias", (1,), h, "UCN_head"),
        ("combine.weight", (2 * h, h), 2 * h, "other"),
        ("combine.bias", (h,), 2 * h, "other"),
        ("out.weight", (h, 1), h, "other"),
        ("out.bias", (1,), h, "other"),
    ]
    return specs


@dataclass
class MpnnModel:
    config: ModelConfig
    params: dict[str, Parameter]
    bn_state: list[BnRunningState] = field(default_factory=list)

    def parameter_vector_size(self) -> int:
        return sum(p.value.size for p in self.params.values())

    def group_names(self, tag: str) -> list[str]:
        return [name for name, p in self.params.items() if p.group_tag == tag]

    def bn_initialized(self) -> bool:
        return all(state.updates > 0 for state in self.bn_state)

    def copy(self) -> "MpnnModel":
        params = {
            name: Parameter(name, p.value.copy(), p.group_tag) for name, p in self.params.items()
        }
        bn = [BnRunningState(s.mean.copy(), s.var.copy(), s.updates) for s in self.bn_state]
        return MpnnModel(self.config, params, bn)

    def digest(self) -> str:
        """Stable hex digest over config, parameters, and running statistics."""
        hasher = hashlib.sha256()
        hasher.update(json.dumps(self.config.to_dict(), sort_keys=True).encode())
        for name, p in self.params.items():
            hasher.update(name.encode())
            hasher.update(np.ascontiguousarray(p.value).tobytes())
        for state in self.bn_state:
            hasher.update(np.ascontiguousarray(state.mean).tobytes())
            hasher.update(np.ascontiguousarray(state.var).tobytes())
            hasher.update(str(state.updates).encode())
        return hasher.hexdigest()


def init_parameters(config: ModelConfig, seed: int) -> MpnnModel:
    """Fresh model; linear layers drawn uniform in +-1/sqrt(fan_in), norms at identity."""
    rng = np.random.default_rng(seed)
    params: dict[str, Parameter] = {}
    for name, shape, fan_in, tag in _layer_specs(config):
        if name.endswith(".bn.scale"):
            value = np.ones(shape)
        elif name.endswith(".bn.shift"):
            value = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(fan_in)
            value = rng.uniform(-bound, bound, size=shape)
        params[name] = Parameter(name, value, tag)
    bn = [
        BnRunningState(np.zeros(config.hidden_dim), np.ones(config.hidden_dim))
        for _ in range(config.message_layers)
    ]
    return MpnnModel(config, params, bn)


class ModelBinding:
    """Parameters of one model registered as leaves on one tape."""

    def __init__(self, model: MpnnModel, tape: Tape):
        self.model = model
        self.tape = tape
        self.leaves: dict[str, Tensor] = {
            name: tape.leaf(p.value) for name, p in model.params.items()
        }

    def __getitem__(self, name: str) -> Tensor:
        return self.leaves[name]

    def linear(self, prefix: str, x: Tensor) -> Tensor:
        return ad.add(ad.matmul(x, self.leaves[f"{prefix}.weight"]), self.leaves[f"{prefix}.bias"])

    def gradient_by_name(self, grads: dict[int, np.ndarray]) -> dict[str, np.ndarray]:
        out = {}
        for name, leaf in self.leaves.items():
            g = grads.get(leaf.id)
            out[name] = np.zeros_like(leaf.value) if g is None else g
        return out


@dataclass
class ForwardTrace:
    """Everything one forward pass produced, still attached to its tape.

    A one-graph trace holds vectors: readouts and head outputs of shape
    ``(H,)``, ``y_hat`` of shape ``(1,)`` and, per layer, batch statistics
    of shape ``(H,)``. A trace of G packed graphs (``offsets`` set) holds
    one row per graph in each: ``(G, H)``, ``(G, 1)`` and ``(G, H)``.
    """

    tape: Tape
    binding: ModelBinding
    x: Tensor
    e: Tensor
    edge_index: np.ndarray
    h: Tensor
    r_cn: Tensor
    r_ucn: Tensor
    a_cn: Tensor
    a_ucn: Tensor
    y_hat: Tensor
    bn_batch: list[tuple[np.ndarray, np.ndarray]]
    train: bool
    offsets: np.ndarray | None = None

    @property
    def num_graphs(self) -> int:
        return 1 if self.offsets is None else len(self.offsets) - 1

    @property
    def predictions(self) -> np.ndarray:
        """One prediction per graph, in packing order."""
        return self.y_hat.value.reshape(-1)

    @property
    def prediction(self) -> float:
        if self.num_graphs != 1:
            raise ValueError(f"trace holds {self.num_graphs} graphs; read predictions")
        return float(self.y_hat.value.reshape(-1)[0])


def _check_masks(n: int, common_mask, uncommon_mask) -> tuple[np.ndarray, np.ndarray]:
    common = np.asarray(common_mask, dtype=bool)
    uncommon = np.asarray(uncommon_mask, dtype=bool)
    if common.shape != (n,) or uncommon.shape != (n,):
        raise ValueError(f"masks must have length {n}")
    return common, uncommon


def forward_from_arrays(
    model: MpnnModel,
    x_array: np.ndarray,
    e_array: np.ndarray,
    edge_index: np.ndarray,
    common_mask,
    uncommon_mask,
    train: bool = False,
    tape: Tape | None = None,
    binding: ModelBinding | None = None,
    *,
    offsets=None,
) -> ForwardTrace:
    """Forward pass from raw feature arrays (the graph-level entry wraps this).

    The arrays describe one graph, or, with ``offsets``, several graphs
    packed as a disjoint union: atom rows stacked graph after graph,
    edge rows likewise with ``edge_index`` in the stacked numbering, and
    ``offsets`` holding each graph's first atom followed by the total
    atom count. A packed forward gives every graph the result it would
    get alone, up to float summation order.

    Pass an existing tape/binding pair to put several forwards, and a
    loss over them, on one tape. Train mode normalizes each graph with
    its own batch statistics and reports them in the trace; committing
    them to the running estimates is the caller's move.
    """
    cfg = model.config
    if x_array.shape[1] != cfg.atom_feature_width or e_array.shape[1] != cfg.bond_feature_width:
        raise CompatibilityError(
            f"feature widths {x_array.shape[1]}/{e_array.shape[1]} do not match "
            f"model config {cfg.atom_feature_width}/{cfg.bond_feature_width}"
        )
    n = x_array.shape[0]
    common, uncommon = _check_masks(n, common_mask, uncommon_mask)
    if not train and not model.bn_initialized():
        raise UninitializedStatsError(
            "eval-mode forward before any training batch; running statistics are unset"
        )
    if tape is None:
        tape = Tape()
    if binding is None:
        binding = ModelBinding(model, tape)
    elif binding.tape is not tape:
        raise ValueError("binding belongs to a different tape")

    x = tape.leaf(np.asarray(x_array, dtype=np.float64))
    e = tape.leaf(np.asarray(e_array, dtype=np.float64))
    edge_index = np.asarray(edge_index, dtype=np.int64).reshape(-1, 2)

    h = binding.linear("node_embed", x)
    bn_batch: list[tuple[np.ndarray, np.ndarray]] = []
    for layer in range(cfg.message_layers):
        state = model.bn_state[layer]
        h, mean, var = ad.message_layer(
            h, e, *(binding[f"conv{layer}.{name}"] for name in _CONV_PARAMS), edge_index,
            running=None if train else (state.mean, state.var), eps=BN_EPS, offsets=offsets,
        )
        if train:
            bn_batch.append((mean, var))

    r_cn = ad.masked_mean(h, common, offsets)
    r_ucn = ad.masked_mean(h, uncommon, offsets)
    a_cn = binding.linear("head_cn", r_cn)
    a_ucn = binding.linear("head_ucn", r_ucn)
    combined = binding.linear("combine", ad.concat(a_cn, a_ucn))
    y_hat = binding.linear("out", combined)
    return ForwardTrace(
        tape=tape,
        binding=binding,
        x=x,
        e=e,
        edge_index=edge_index,
        h=h,
        r_cn=r_cn,
        r_ucn=r_ucn,
        a_cn=a_cn,
        a_ucn=a_ucn,
        y_hat=y_hat,
        bn_batch=bn_batch,
        train=train,
        offsets=offsets,
    )


def forward(
    model: MpnnModel,
    graph,
    common_mask=None,
    uncommon_mask=None,
    train: bool = False,
    tape: Tape | None = None,
    binding: ModelBinding | None = None,
) -> ForwardTrace:
    """Run the network on one graph, or on a sequence of graphs in one packed forward.

    Masks default to all-true. For a sequence of graphs each mask
    argument is a sequence with one mask (or None) per graph, and the
    trace holds one prediction and one pair of readouts per graph.
    Features are read from each graph's cache.
    """
    if isinstance(graph, MolecularGraph):
        graphs, masks, offsets = [graph], [(common_mask, uncommon_mask)], None
    else:
        graphs = list(graph)
        n = len(graphs)
        common = [None] * n if common_mask is None else list(common_mask)
        uncommon = [None] * n if uncommon_mask is None else list(uncommon_mask)
        if not graphs or len(common) != n or len(uncommon) != n:
            raise ValueError(f"{n} graphs need one common and one uncommon mask each")
        masks = list(zip(common, uncommon))
        offsets = np.cumsum([0] + [g.num_atoms for g in graphs])
    checked = [
        _check_masks(g.num_atoms, *(np.ones(g.num_atoms, dtype=bool) if m is None else m for m in pair))
        for g, pair in zip(graphs, masks)
    ]
    features = [g.features for g in graphs]
    return forward_from_arrays(
        model,
        np.concatenate([x for x, _, _ in features]),
        np.concatenate([e for _, e, _ in features]),
        np.concatenate([index + start for (_, _, index), start in zip(features, [0] if offsets is None else offsets)]),
        np.concatenate([common for common, _ in checked]),
        np.concatenate([uncommon for _, uncommon in checked]),
        train=train, tape=tape, binding=binding, offsets=offsets,
    )


def commit_bn_stats(model: MpnnModel, trace: ForwardTrace) -> None:
    """Fold a train-mode forward's batch statistics into the running estimates.

    A packed trace's graphs are folded in packing order, each as one
    update, exactly as committing their one-graph traces in turn would.
    """
    if not trace.train:
        raise ValueError("only train-mode traces carry batch statistics")
    for layer, (means, variances) in enumerate(trace.bn_batch):
        state = model.bn_state[layer]
        for mean, var in zip(np.atleast_2d(means), np.atleast_2d(variances)):
            state.mean = (1.0 - BN_MOMENTUM) * state.mean + BN_MOMENTUM * mean
            state.var = (1.0 - BN_MOMENTUM) * state.var + BN_MOMENTUM * var
            state.updates += 1


def predict_affinity(model: MpnnModel, graph: MolecularGraph) -> float:
    """Standalone affinity for one compound: all-true masks, eval mode."""
    return forward(model, graph).prediction
