import gc
import weakref

import numpy as np
import pytest

from cliffkit import autodiff as ad
from cliffkit.autodiff import Tape
from cliffkit.losses import LossConfig
from cliffkit.model import (
    BN_EPS,
    CompatibilityError,
    ModelBinding,
    ModelConfig,
    UninitializedStatsError,
    commit_bn_stats,
    forward,
    forward_from_arrays,
    init_parameters,
    predict_affinity,
)
from cliffkit.molgraph import (
    ATOM_FEATURE_WIDTH, BOND_FEATURE_WIDTH, Bond, MolecularGraph, atom_features, bond_features, parse_smiles,
)
from cliffkit.pairs import CompoundRecord, build_pair, max_common_substructure
from cliffkit.training import _pair_update


def permuted(graph, perm):
    """Relabel atoms so old index i becomes perm[i]."""
    atoms = [None] * graph.num_atoms
    for i, a in enumerate(graph.atoms):
        atoms[perm[i]] = a
    bonds = []
    for b in graph.bonds:
        i, j = sorted((perm[b.i], perm[b.j]))
        bonds.append(Bond(i, j, b.order, b.in_ring))
    return MolecularGraph(tuple(atoms), tuple(bonds))


def test_init_is_seed_deterministic_and_bounded():
    cfg = ModelConfig(hidden_dim=8)
    a = init_parameters(cfg, seed=5)
    b = init_parameters(cfg, seed=5)
    c = init_parameters(cfg, seed=6)
    assert a.digest() == b.digest() != c.digest()
    for name, p in a.params.items():
        if name.endswith(".bn.scale"):
            assert np.all(p.value == 1.0)
        elif name.endswith(".bn.shift"):
            assert np.all(p.value == 0.0)
        else:
            fan_in = {"node_embed": 26, "edge_net": 8}.get(name.split(".")[-2])
            if fan_in is None:
                continue
            assert np.all(np.abs(p.value) <= 1.0 / np.sqrt(fan_in))


def test_group_tags_partition_parameters():
    model = init_parameters(ModelConfig(hidden_dim=4), seed=0)
    cn = set(model.group_names("CN_head"))
    ucn = set(model.group_names("UCN_head"))
    assert cn == {"head_cn.weight", "head_cn.bias", "scalarize_cn.weight", "scalarize_cn.bias"}
    assert ucn == {"head_ucn.weight", "head_ucn.bias", "scalarize_ucn.weight", "scalarize_ucn.bias"}
    assert len(model.group_names("other")) == len(model.params) - 8


def test_parameter_count_closed_form():
    for h in (4, 16, 64):
        cfg = ModelConfig(hidden_dim=h)
        model = init_parameters(cfg, seed=0)
        # node embed + 3 conv layers (bond-typed edge_net, root, norm) + heads + combine + out
        expect = (
            (26 * h + h)
            + 3 * ((5 * h * h + h * h) + (h * h + h) + 2 * h)
            + 2 * (h * h + h)
            + 2 * (h + 1)
            + (2 * h * h + h)
            + (h + 1)
        )
        assert model.parameter_vector_size() == expect
    assert model.parameter_vector_size() == 105_091  # h = 64, the CLI default


def _reference_prediction(model, graph, common, embed, nets):
    """The network in plain numpy, with each layer's edge matrices from a bond
    embedding ``e @ We + be`` mapped by ``@ Wn + bn``, edge by edge."""
    P = {name: p.value for name, p in model.params.items()}
    hdim = model.config.hidden_dim
    e, idx = bond_features(graph)
    h = atom_features(graph) @ P["node_embed.weight"] + P["node_embed.bias"]
    we, be = embed
    for layer, (wn, bn) in enumerate(nets):
        pre = h @ P[f"conv{layer}.root.weight"] + P[f"conv{layer}.root.bias"]
        agg = np.zeros_like(pre)
        count = np.zeros(len(pre))
        for (receiver, neighbor), row in zip(idx, e):
            matrix = ((row @ we + be) @ wn + bn).reshape(hdim, hdim)
            agg[receiver] += matrix @ h[neighbor]
            count[receiver] += 1
        pre = pre + agg / np.maximum(count, 1)[:, None]
        normed = (pre - pre.mean(axis=0)) / np.sqrt(pre.var(axis=0) + BN_EPS)
        h = np.maximum(P[f"conv{layer}.bn.scale"] * normed + P[f"conv{layer}.bn.shift"], 0.0)
    a_cn = h[common].mean(axis=0) @ P["head_cn.weight"] + P["head_cn.bias"]
    a_ucn = h[~common].mean(axis=0) @ P["head_ucn.weight"] + P["head_ucn.bias"]
    combined = np.concatenate([a_cn, a_ucn]) @ P["combine.weight"] + P["combine.bias"]
    return float((combined @ P["out.weight"] + P["out.bias"])[0])


def test_bond_typed_edge_net_composes_the_two_layer_edge_network():
    # a linear bond embedding followed by a linear hidden-to-matrix layer is
    # one affine map of the bond row: the same function class as edge_net
    rng = np.random.default_rng(7)
    cfg = ModelConfig(hidden_dim=6)
    h, w = cfg.hidden_dim, cfg.bond_feature_width
    model = init_parameters(cfg, seed=3)
    for layer in range(cfg.message_layers):
        for part in ("scale", "shift"):
            model.params[f"conv{layer}.bn.{part}"].value = rng.uniform(0.5, 1.5, size=h)
    embed = (rng.normal(size=(w, h)), rng.normal(size=h))
    nets = []
    for layer in range(cfg.message_layers):
        wn, bn = rng.normal(size=(h, h * h)) / h, rng.normal(size=h * h) / h
        model.params[f"conv{layer}.edge_net.weight"].value = embed[0] @ wn
        model.params[f"conv{layer}.edge_net.bias"].value = embed[1] @ wn + bn
        nets.append((wn, bn))
    for smi in ("CC(=O)Oc1ccccc1", "C1CC1C#N", "OC=CCl"):
        g = parse_smiles(smi)
        common = np.arange(g.num_atoms) % 2 == 0
        got = forward(model, g, common, ~common, train=True).prediction
        assert abs(got - _reference_prediction(model, g, common, embed, nets)) < 1e-10


def test_zero_model_predicts_zero():
    model = init_parameters(ModelConfig(hidden_dim=6), seed=0)
    for p in model.params.values():
        if not p.name.endswith(".bn.scale"):
            p.value[...] = 0.0
    g = parse_smiles("CC(=O)Oc1ccccc1")
    trace = forward(model, g, train=True)
    assert trace.prediction == 0.0


def test_permutation_invariance_of_prediction():
    rng = np.random.default_rng(11)
    model = init_parameters(ModelConfig(hidden_dim=8), seed=2)
    for smi in ("CC(=O)Oc1ccccc1", "C1CC1CC2CC2", "ClCBr"):
        g = parse_smiles(smi)
        base = forward(model, g, train=True)
        commit_bn_stats(model, base)
        for _ in range(4):
            perm = rng.permutation(g.num_atoms)
            g2 = permuted(g, perm)
            other = forward(model, g2, train=True)
            assert abs(base.prediction - other.prediction) < 1e-10
    # eval mode too, once stats exist
    g = parse_smiles("CC(=O)Oc1ccccc1")
    p1 = predict_affinity(model, g)
    p2 = predict_affinity(model, permuted(g, rng.permutation(g.num_atoms)))
    assert abs(p1 - p2) < 1e-10


def test_masked_readouts_differ_and_respect_masks():
    model = init_parameters(ModelConfig(hidden_dim=8), seed=3)
    g = parse_smiles("CCCCO")
    common = np.array([1, 1, 1, 0, 0], dtype=bool)
    tr = forward(model, g, common, ~common, train=True)
    h = tr.h.value
    assert np.allclose(tr.r_cn.value, h[common].mean(axis=0), atol=1e-12)
    assert np.allclose(tr.r_ucn.value, h[~common].mean(axis=0), atol=1e-12)


def test_single_atom_graph_runs():
    model = init_parameters(ModelConfig(hidden_dim=8), seed=4)
    g = parse_smiles("C")
    trace = forward(model, g, train=True)
    assert np.isfinite(trace.prediction)
    assert trace.h.value.shape == (1, 8)


def test_one_forward_records_at_most_5_tape_entries():
    # node embedding 1, one per message layer, the readout stack 1
    model = init_parameters(ModelConfig(hidden_dim=4), seed=0)
    trace = forward(model, parse_smiles("CC(=O)Oc1ccccc1"), train=True)
    assert len(trace.tape._entries) <= 5


def test_one_graph_without_masks_reads_out_once(monkeypatch):
    # one all-true mask serves both readouts; given masks are read out one each
    calls = []
    real = ad._masked_means
    monkeypatch.setattr(ad, "_masked_means", lambda *args: calls.append(1) or real(*args))
    model = init_parameters(ModelConfig(hidden_dim=4), seed=0)
    graph = parse_smiles("CC(=O)Oc1ccccc1")
    trace = forward(model, graph, train=True)
    assert len(calls) == 1
    everywhere = np.ones(graph.num_atoms, dtype=bool)
    masked = forward(model, graph, everywhere, everywhere.copy(), train=True)
    assert len(calls) == 3
    assert np.array_equal(trace.y_hat.value, masked.y_hat.value)
    assert np.array_equal(trace.r_ucn.value, masked.r_ucn.value)


# an aromatic ester with a half-common mask, and the bond-free "C" with an
# all-false uncommon mask
PACKED_GRAPHS = (parse_smiles("CC(=O)Oc1ccccc1"), parse_smiles("C"))
PACKED_COMMON = (np.arange(10) % 2 == 0, np.ones(1, dtype=bool))
PACKED_UNCOMMON = (~PACKED_COMMON[0], np.zeros(1, dtype=bool))


def _weighted_sum(trace, weights):
    """A scalar of the trace's per-graph outputs, so every output gets a gradient."""
    total = None
    for name in ("y_hat", "r_cn", "r_ucn", "a_cn", "a_ucn"):
        out = getattr(trace, name)
        term = ad.sum_all(ad.mul(out, trace.tape.constant(weights[name].reshape(out.shape))))
        total = term if total is None else ad.add(total, term)
    return total


def _close(a, b, tol=1e-12):
    """Relative agreement, or absolute where the values are below ``tol``."""
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    return np.abs(a - b).max(initial=0.0) <= tol * max(scale, 1.0)


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
def test_packed_forward_equals_single_forwards(train):
    rng = np.random.default_rng(12)
    model = init_parameters(ModelConfig(hidden_dim=6), seed=5)
    for layer in range(model.config.message_layers):
        model.params[f"conv{layer}.bn.shift"].value = rng.normal(size=6)
    commit_bn_stats(model, forward(model, PACKED_GRAPHS[0], train=True))
    h = model.config.hidden_dim
    weights = [{"y_hat": rng.normal(size=1), **{k: rng.normal(size=h) for k in
                ("r_cn", "r_ucn", "a_cn", "a_ucn")}} for _ in PACKED_GRAPHS]

    packed = forward(model, PACKED_GRAPHS, PACKED_COMMON, PACKED_UNCOMMON, train=train)
    packed_grads = packed.tape.backward(_weighted_sum(
        packed, {k: np.stack([w[k] for w in weights]) for k in weights[0]}))
    tape = Tape()
    binding = ModelBinding(model, tape)
    singles = [forward(model, g, c, u, train=train, tape=tape, binding=binding)
               for g, c, u in zip(PACKED_GRAPHS, PACKED_COMMON, PACKED_UNCOMMON)]
    single_grads = tape.backward(ad.add(*(_weighted_sum(t, w) for t, w in zip(singles, weights))))

    assert packed.num_graphs == 2 and packed.y_hat.value.shape == (2, 1)
    assert np.array_equal(packed.offsets, [0, 10, 11])
    assert len(packed.bn_batch) == (3 if train else 0)
    for k, single in enumerate(singles):
        for name in ("y_hat", "r_cn", "r_ucn", "a_cn", "a_ucn"):
            assert _close(getattr(packed, name).value[k], getattr(single, name).value), name
        for (means, variances), (mean, var) in zip(packed.bn_batch, single.bn_batch):
            assert _close(means[k], mean) and _close(variances[k], var)
    assert np.array_equal(packed.r_ucn.value[1], np.zeros(h))  # the all-false mask
    assert _close(packed.predictions, [t.prediction for t in singles])
    rows, edges = (0, 10, 11), (0, 20, 20)
    for k, single in enumerate(singles):
        assert _close(packed_grads[packed.x.id][rows[k]:rows[k + 1]], single_grads[single.x.id])
        if edges[k + 1] > edges[k]:
            assert _close(packed_grads[packed.e.id][edges[k]:edges[k + 1]], single_grads[single.e.id])
    by_name = packed.binding.gradient_by_name(packed_grads)
    for name, grad in binding.gradient_by_name(single_grads).items():
        assert _close(by_name[name], grad), name


# the parameters of the readout stack, and one feeding the atom states it reads
_PROBED = ("head_cn.weight", "head_cn.bias", "head_ucn.weight", "head_ucn.bias", "combine.weight",
           "combine.bias", "out.weight", "out.bias", "conv2.bn.shift")


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("graphs", ["one-graph", "bond-free", "packed"])
def test_forward_gradients_match_central_differences(train, graphs):
    rng = np.random.default_rng(13)
    model = init_parameters(ModelConfig(hidden_dim=4), seed=6)
    for layer in range(model.config.message_layers):  # off ReLU's kink for the one-atom graph
        model.params[f"conv{layer}.bn.shift"].value = rng.normal(size=4)
    commit_bn_stats(model, forward(model, PACKED_GRAPHS[0], train=True))
    picked = {"one-graph": [0], "bond-free": [1], "packed": [0, 1]}[graphs]
    graph = [PACKED_GRAPHS[k] for k in picked]
    masks = [PACKED_COMMON[k] for k in picked], [PACKED_UNCOMMON[k] for k in picked]
    if len(picked) == 1:
        graph, masks = graph[0], (masks[0][0], masks[1][0])
    trace = forward(model, graph, *masks, train=train)
    weights = {name: rng.normal(size=getattr(trace, name).value.shape)
               for name in ("y_hat", "r_cn", "r_ucn", "a_cn", "a_ucn")}
    grads = trace.binding.gradient_by_name(trace.tape.backward(_weighted_sum(trace, weights)))

    def value(probe):
        out = forward(probe, graph, *masks, train=train)
        return sum(float((getattr(out, name).value * w).sum()) for name, w in weights.items())

    step = 1e-6
    for name in _PROBED:
        flat = model.params[name].value.ravel()
        for idx in range(flat.size):
            probe = model.copy()
            probe.params[name].value.ravel()[idx] = flat[idx] + step
            up = value(probe)
            probe.params[name].value.ravel()[idx] = flat[idx] - step
            numeric = (up - value(probe)) / (2 * step)
            analytic = grads[name].ravel()[idx]
            assert abs(numeric - analytic) <= 1e-5 * max(abs(numeric), abs(analytic), 1.0), (name, idx)


def test_committing_a_packed_trace_folds_the_graphs_in_order():
    model = init_parameters(ModelConfig(hidden_dim=6), seed=5)
    packed = forward(model, PACKED_GRAPHS, PACKED_COMMON, PACKED_UNCOMMON, train=True)
    singles = [forward(model, g, c, u, train=True)
               for g, c, u in zip(PACKED_GRAPHS, PACKED_COMMON, PACKED_UNCOMMON)]
    one, two = model.copy(), model.copy()
    commit_bn_stats(one, packed)
    for trace in singles:
        commit_bn_stats(two, trace)
    for a, b in zip(one.bn_state, two.bn_state):
        assert a.updates == b.updates == 2
        assert _close(a.mean, b.mean) and _close(a.var, b.var)


def test_one_graph_is_a_pack_of_one():
    model = init_parameters(ModelConfig(hidden_dim=4), seed=0)
    n = PACKED_GRAPHS[0].num_atoms
    for trace in (forward(model, PACKED_GRAPHS[0], train=True),
                  forward(model, PACKED_GRAPHS[:1], train=True)):
        assert trace.num_graphs == 1 and np.array_equal(trace.offsets, [0, n])
        assert trace.y_hat.value.shape == (1, 1)
        assert all(getattr(trace, name).value.shape == (1, 4) for name in ("r_cn", "r_ucn", "a_cn", "a_ucn"))
        assert all(mean.shape == var.shape == (1, 4) for mean, var in trace.bn_batch)
        assert trace.prediction == trace.predictions[0]
    x, e, edge_index = PACKED_GRAPHS[0].features
    mask = np.ones(n, dtype=bool)
    arrays = forward_from_arrays(model, x, e, edge_index, mask, mask, train=True)
    assert np.array_equal(arrays.offsets, [0, n]) and arrays.y_hat.value.shape == (1, 1)
    packed = forward(model, PACKED_GRAPHS, train=True)
    with pytest.raises(ValueError, match="2 graphs"):
        packed.prediction
    with pytest.raises(ValueError, match="mask each"):
        forward(model, PACKED_GRAPHS, PACKED_COMMON[:1], train=True)
    with pytest.raises(ValueError, match="length"):
        forward(model, PACKED_GRAPHS, PACKED_COMMON[::-1], train=True)


def test_pair_update_records_at_most_8_tape_entries():
    # one packed forward (5), the two scalarize maps (2) and the squared errors (1)
    model = init_parameters(ModelConfig(hidden_dim=4), seed=0)
    ri, rj = (CompoundRecord(cid, "T", smi, parse_smiles(smi), y)
              for cid, smi, y in (("a", "CC(=O)Oc1ccccc1", 6.0), ("b", "CC(=O)Nc1ccccc1", 7.5)))
    pair = build_pair(ri, rj, max_common_substructure(ri.graph, rj.graph))
    _, _, trace = _pair_update(model, pair, LossConfig(variant="n-sgl"))
    assert len(trace.tape._entries) <= 8


def test_tape_is_freed_by_reference_counting():
    model = init_parameters(ModelConfig(hidden_dim=4), seed=0)
    g = parse_smiles("CC(=O)Oc1ccccc1")
    gc.disable()
    try:
        trained = forward(model, g, train=True)
        trained.tape.backward(trained.y_hat)
        commit_bn_stats(model, trained)
        evaluated = forward(model, g)
        refs = [weakref.ref(trained.tape), weakref.ref(evaluated.tape)]
        del trained, evaluated
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_eval_before_any_training_raises():
    model = init_parameters(ModelConfig(hidden_dim=4), seed=0)
    g = parse_smiles("CCO")
    with pytest.raises(UninitializedStatsError):
        forward(model, g, train=False)


def test_commit_bn_stats_momentum():
    model = init_parameters(ModelConfig(hidden_dim=4), seed=0)
    g = parse_smiles("CCO")
    trace = forward(model, g, train=True)
    before_mean = [s.mean.copy() for s in model.bn_state]
    commit_bn_stats(model, trace)
    for state, old, (batch_mean, batch_var) in zip(model.bn_state, before_mean, trace.bn_batch):
        assert np.allclose(state.mean, 0.9 * old + 0.1 * batch_mean, atol=1e-12)
        assert state.updates == 1
    with pytest.raises(ValueError, match="train-mode"):
        commit_bn_stats(model, forward(model, g, train=False))


def test_feature_width_mismatch_is_compatibility_error():
    model = init_parameters(ModelConfig(hidden_dim=4), seed=0)
    g = parse_smiles("CCO")
    x = atom_features(g)
    e, idx = bond_features(g)
    with pytest.raises(CompatibilityError):
        forward_from_arrays(model, x[:, :-1], e, idx, np.ones(3, bool), np.ones(3, bool), train=True)
    with pytest.raises(CompatibilityError):
        forward_from_arrays(model, x, e[:, :-1], idx, np.ones(3, bool), np.ones(3, bool), train=True)


def test_mask_length_validation():
    model = init_parameters(ModelConfig(hidden_dim=4), seed=0)
    g = parse_smiles("CCO")
    with pytest.raises(ValueError, match="length"):
        forward(model, g, np.ones(2, bool), np.ones(3, bool), train=True)


def test_copy_is_deep():
    model = init_parameters(ModelConfig(hidden_dim=4), seed=0)
    clone = model.copy()
    clone.params["out.bias"].value[...] = 99.0
    assert model.params["out.bias"].value[0] != 99.0
    assert model.digest() != clone.digest()


def test_config_roundtrip():
    cfg = ModelConfig(hidden_dim=16, message_layers=2)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    # the feature widths are the build's: recorded, checked on load, never set
    assert (cfg.to_dict()["atom_feature_width"], cfg.bond_feature_width) == (ATOM_FEATURE_WIDTH, BOND_FEATURE_WIDTH)
    with pytest.raises(CompatibilityError, match="feature widths"):
        ModelConfig.from_dict({**cfg.to_dict(), "bond_feature_width": BOND_FEATURE_WIDTH + 1})
    with pytest.raises(TypeError):
        ModelConfig(hidden_dim=16, atom_feature_width=12)
