import numpy as np
import pytest

from cliffkit.attribution import (
    AttributionConfig,
    METHODS,
    attribute,
    attribute_all,
    ground_truth,
    redistribute_edges,
)
from cliffkit.evaluation import collect_node_values
from cliffkit.model import ModelConfig, MpnnModel, commit_bn_stats, forward, forward_from_arrays, init_parameters
from cliffkit.molgraph import atom_features, bond_features, parse_smiles
from cliffkit.pairs import build_pair, CompoundRecord, max_common_substructure


def ready_model(hidden=8, seed=0, smi="CC(=O)Oc1ccccc1"):
    """Initialized model with committed normalization statistics."""
    model = init_parameters(ModelConfig(hidden_dim=hidden), seed=seed)
    trace = forward(model, parse_smiles(smi), train=True)
    commit_bn_stats(model, trace)
    return model


def eval_prediction(model, x, e, idx):
    n = x.shape[0]
    mask = np.ones(n, dtype=bool)
    return forward_from_arrays(model, x, e, idx, mask, mask).prediction


def test_attribute_all_shapes():
    model = ready_model()
    g = parse_smiles("CCO")
    maps = attribute_all(model, g, config=AttributionConfig(ig_steps=8))
    assert set(maps) == set(METHODS)
    for method, amap in maps.items():
        assert amap.node_values.shape == (3,)
        if method in ("cam", "gradcam"):
            assert amap.edge_values is None
        else:
            assert amap.edge_values.shape == (4,)  # two bonds, both directions


def test_attribution_does_not_hash_the_model(monkeypatch):
    model = ready_model()
    a = CompoundRecord("A", "T", "CCCO", parse_smiles("CCCO"), 8.0)
    b = CompoundRecord("B", "T", "CCCN", parse_smiles("CCCN"), 6.0)
    pair = build_pair(a, b, max_common_substructure(a.graph, b.graph))

    def refuse(self):
        raise AssertionError("attribution must not hash the model")

    monkeypatch.setattr(MpnnModel, "digest", refuse)
    config = AttributionConfig(ig_steps=4)
    assert set(attribute_all(model, pair.graph_i, config=config)) == set(METHODS)
    values = collect_node_values([pair], model, METHODS, config)
    assert set(values) == {"A", "B"}
    assert all(set(v) == set(METHODS) for v in values.values())


def test_unknown_method_rejected():
    model = ready_model()
    with pytest.raises(ValueError, match="unknown attribution method"):
        attribute(model, parse_smiles("CC"), "saliency")


def test_cam_completeness_against_affine_tail():
    # with all-true masks the readout tail is affine, so the mean CAM value
    # plus the bias terms reconstructs the prediction exactly
    model = ready_model(seed=3)
    h = model.config.hidden_dim
    g = parse_smiles("CC(=O)Oc1ccccc1")
    cam = attribute(model, g, "cam")
    w_cmb = model.params["combine.weight"].value
    w_out = model.params["out.weight"].value
    const = (
        (
            model.params["head_cn.bias"].value @ w_cmb[:h]
            + model.params["head_ucn.bias"].value @ w_cmb[h:]
            + model.params["combine.bias"].value
        )
        @ w_out
        + model.params["out.bias"].value
    )[0]
    x = atom_features(g)
    e, idx = bond_features(g)
    pred = eval_prediction(model, x, e, idx)
    assert abs(cam.node_values.mean() + const - pred) < 1e-10


def test_gradcam_equals_cam_scaled_by_atom_count():
    # prediction is mean(h) @ w_eff + const, so dy/dh is w_eff / n at every
    # atom and the gradcam weights are exactly cam's divided by n
    model = ready_model(seed=4)
    g = parse_smiles("CCCO")
    maps = attribute_all(model, g, ("cam", "gradcam"))
    assert np.allclose(
        maps["gradcam"].node_values, maps["cam"].node_values / g.num_atoms, atol=1e-12
    )


def test_gradinput_matches_manual_backward():
    model = ready_model(seed=5)
    g = parse_smiles("CCN")
    x = atom_features(g)
    e, idx = bond_features(g)
    mask = np.ones(3, dtype=bool)
    trace = forward_from_arrays(model, x, e, idx, mask, mask)
    grads = trace.tape.backward(trace.y_hat)
    gi = attribute(model, g, "gradinput")
    assert np.allclose(gi.node_values, (grads[trace.x.id] * x).sum(axis=1), atol=1e-12)
    assert np.allclose(gi.edge_values, (grads[trace.e.id] * e).sum(axis=1), atol=1e-12)


def test_ig_is_exact_on_an_affine_network():
    # single atom, no bonds, normalization shifts pushed high so the relu
    # path stays active along the whole zero-to-input segment: the network
    # is affine there and one integration step already lands exactly
    model = ready_model(hidden=4, seed=6, smi="C")
    for layer in range(model.config.message_layers):
        model.params[f"conv{layer}.bn.shift"].value[...] = 10.0
    g = parse_smiles("C")
    x = atom_features(g)
    e, idx = bond_features(g)
    f_x = eval_prediction(model, x, e, idx)
    f_0 = eval_prediction(model, 0.0 * x, e, idx)
    for steps in (1, 4, 64):
        ig = attribute(model, g, "ig", AttributionConfig(ig_steps=steps))
        assert abs(ig.node_values.sum() - (f_x - f_0)) < 1e-9
    gi = attribute(model, g, "gradinput")
    assert np.allclose(ig.node_values, gi.node_values, atol=1e-9)


def test_ig_completeness_converges_with_steps():
    model = ready_model(seed=7)
    g = parse_smiles("CC(=O)Oc1ccccc1")
    x = atom_features(g)
    e, idx = bond_features(g)
    delta = eval_prediction(model, x, e, idx) - eval_prediction(model, 0 * x, 0 * e, idx)

    def completeness_error(steps):
        amap = attribute(model, g, "ig", AttributionConfig(ig_steps=steps))
        total = amap.node_values.sum() + amap.edge_values.sum()
        return abs(total - delta)

    e8, e1024 = completeness_error(8), completeness_error(1024)
    assert e1024 < max(e8, 1e-12)
    assert e1024 <= 1e-3 * max(1.0, abs(delta))


def test_ig_zero_input_gives_zero_attributions():
    model = ready_model(seed=8)
    g = parse_smiles("CC")
    x = atom_features(g)
    e, idx = bond_features(g)
    # attribution of the zero input against the zero baseline is identically zero
    n, _ = x.shape
    from cliffkit.attribution import _integrated_gradients

    node, edge = _integrated_gradients(model, 0 * x, 0 * e, idx, steps=4)
    assert np.all(node == 0.0) and np.all(edge == 0.0)


def test_attribution_is_pair_independent():
    # maps use the full-graph forward, so the same compound under the same
    # model attributes identically no matter which pair it came from
    model = ready_model(seed=9)
    g = parse_smiles("CCCCO")
    a = attribute(model, g, "cam").node_values
    b = attribute(model, g, "cam").node_values
    assert np.array_equal(a, b)


def test_redistribute_edges_mass_and_placement():
    node = np.array([1.0, 2.0, 3.0])
    edge = np.array([0.5, 0.5, -1.0, -1.0])
    idx = np.array([[0, 1], [1, 0], [1, 2], [2, 1]])
    out = redistribute_edges(node, edge, idx)
    assert np.allclose(out, [1.5, 2.0 + 0.25 + 0.25 - 0.5 - 0.5, 2.0])
    assert abs(out.sum() - (node.sum() + edge.sum())) < 1e-12
    with pytest.raises(ValueError, match="does not match"):
        redistribute_edges(node, edge[:3], idx)


def test_redistribute_mass_conservation_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n, m = int(rng.integers(2, 10)), int(rng.integers(1, 15))
        node = rng.standard_normal(n)
        edge = rng.standard_normal(m)
        idx = rng.integers(0, n, size=(m, 2))
        out = redistribute_edges(node, edge, idx)
        assert abs(out.sum() - (node.sum() + edge.sum())) < 1e-12


def test_node_level_folds_edges():
    model = ready_model(seed=10)
    g = parse_smiles("CCO")
    _, idx = bond_features(g)
    amap = attribute(model, g, "ig", AttributionConfig(ig_steps=8))
    folded = amap.node_level(idx)
    assert folded.shape == (3,)
    assert abs(folded.sum() - (amap.node_values.sum() + amap.edge_values.sum())) < 1e-12
    with pytest.raises(ValueError, match="edge_index"):
        amap.node_level()
    cam = attribute(model, g, "cam")
    assert np.array_equal(cam.node_level(), cam.node_values)


def test_ground_truth_signs():
    a = CompoundRecord("A", "T", "CCCO", parse_smiles("CCCO"), 8.0)
    b = CompoundRecord("B", "T", "CCCN", parse_smiles("CCCN"), 6.0)
    pair = build_pair(a, b, max_common_substructure(a.graph, b.graph))
    truth = ground_truth(pair)
    assert np.array_equal(truth.values_i, [0, 0, 0, 1.0])   # more active: +1 on O
    assert np.array_equal(truth.values_j, [0, 0, 0, -1.0])  # less active: -1 on N
    import dataclasses

    flat = dataclasses.replace(pair, y_i=6.0, y_j=6.0)
    with pytest.raises(ValueError, match="equal activities"):
        ground_truth(flat)
    flipped = dataclasses.replace(pair, y_i=5.0)
    truth2 = ground_truth(flipped)
    assert truth2.values_i[3] == -1.0 and truth2.values_j[3] == 1.0


def test_ig_steps_validation():
    with pytest.raises(ValueError):
        AttributionConfig(ig_steps=0)
