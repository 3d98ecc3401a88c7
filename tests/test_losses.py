import numpy as np
import pytest
from scipy import optimize

from cliffkit import autodiff as ad
from cliffkit.autodiff import Tape
from cliffkit.losses import (
    LossConfig,
    apply_prox,
    loss_mse,
    loss_node,
    pair_loss,
    penalty_group_lasso,
    penalty_sparse_group_lasso,
    prox_group_lasso,
    prox_sparse_group_lasso,
)
from cliffkit.model import ModelBinding, ModelConfig, forward, init_parameters
from cliffkit.molgraph import parse_smiles


def make_traces(model, smi_i="CCO", smi_j="CCN", masks=None):
    tape = Tape()
    binding = ModelBinding(model, tape)
    gi, gj = parse_smiles(smi_i), parse_smiles(smi_j)
    if masks is None:
        masks = (None, None, None, None)
    ti = forward(model, gi, masks[0], masks[1], train=True, tape=tape, binding=binding)
    tj = forward(model, gj, masks[2], masks[3], train=True, tape=tape, binding=binding)
    return ti, tj


def zero_model(hidden=4):
    model = init_parameters(ModelConfig(hidden_dim=hidden), seed=0)
    for p in model.params.values():
        if not p.name.endswith(".bn.scale"):
            p.value[...] = 0.0
    return model


def test_loss_mse_matches_hand_arithmetic():
    model = init_parameters(ModelConfig(hidden_dim=4), seed=1)
    ti, tj = make_traces(model)
    got = float(loss_mse(ti, tj, 2.0, -1.0).value)
    want = (ti.prediction - 2.0) ** 2 + (tj.prediction + 1.0) ** 2
    assert abs(got - want) < 1e-12
    exact = float(loss_mse(ti, tj, ti.prediction, tj.prediction).value)
    assert exact == 0.0


def test_loss_mse_rejects_split_tapes():
    model = init_parameters(ModelConfig(hidden_dim=4), seed=1)
    ti, _ = make_traces(model)
    _, tj = make_traces(model)
    with pytest.raises(ValueError, match="share one tape"):
        loss_mse(ti, tj, 0.0, 0.0)


def test_loss_node_zero_model_zero_labels():
    ti, tj = make_traces(zero_model())
    assert float(loss_node(ti, tj, 0.0, 0.0, "n").value) == 0.0


def test_loss_node_empty_uncommon_fallback():
    # identical compounds: all atoms common, uncommon masks empty
    n = parse_smiles("CCO").num_atoms
    all_true = np.ones(n, dtype=bool)
    none = np.zeros(n, dtype=bool)
    ti, tj = make_traces(zero_model(), "CCO", "CCO", masks=(all_true, none, all_true, none))
    assert np.array_equal(ti.r_ucn.value, np.zeros((1, 4)))
    got = float(loss_node(ti, tj, 1.0, 2.0, "ucn").value)
    assert got == 5.0  # (0-1)^2 + (0-2)^2 through the zero-readout fallback


def test_loss_node_n_dominates_ucn():
    model = init_parameters(ModelConfig(hidden_dim=4), seed=2)
    ti, tj = make_traces(model)
    full = float(loss_node(ti, tj, 1.0, 2.0, "n").value)
    ucn_only = float(loss_node(ti, tj, 1.0, 2.0, "ucn").value)
    assert full >= ucn_only


@pytest.mark.parametrize("variant", ["ucn", "n", "n-sgl"])
def test_packed_pair_loss_matches_two_traces(variant):
    model = init_parameters(ModelConfig(hidden_dim=4), seed=3)
    config = LossConfig(variant=variant, node_loss_weight=0.7)
    masks = (np.array([1, 1, 0], bool), np.array([0, 0, 1], bool),
             np.array([1, 1, 1], bool), np.array([0, 0, 0], bool))
    ti, tj = make_traces(model, "CCO", "CCN", masks)
    two = pair_loss(ti, tj, 1.0, 2.5, config)
    two_grads = ti.binding.gradient_by_name(ti.tape.backward(two))
    packed = forward(model, (parse_smiles("CCO"), parse_smiles("CCN")),
                     masks[0::2], masks[1::2], train=True)
    one = pair_loss(packed, None, 1.0, 2.5, config)
    one_grads = packed.binding.gradient_by_name(packed.tape.backward(one))
    assert abs(float(one.value) - float(two.value)) <= 1e-12 * abs(float(two.value))
    for name, grad in two_grads.items():
        assert np.allclose(one_grads[name], grad, rtol=1e-12, atol=1e-12), name
    with pytest.raises(ValueError, match="2 graphs"):
        pair_loss(ti, None, 1.0, 2.5, config)


def _unfused_pair_loss(parts, config):
    """The pair loss from primitive ops, one entry per sub, mul, sum_all, add and scale."""
    def squared(t, y):
        d = ad.sub(t, t.tape.constant(np.reshape(y, t.value.shape)))
        return ad.sum_all(ad.mul(d, d))

    def summed(terms):
        total = terms[0]
        for term in terms[1:]:
            total = ad.add(total, term)
        return total

    def scalarized(trace, head, y):
        leaves = trace.binding.leaves
        return squared(ad.add(ad.matmul(getattr(trace, f"a_{head}"), leaves[f"scalarize_{head}.weight"]),
                              leaves[f"scalarize_{head}.bias"]), y)

    mse = summed([squared(trace.y_hat, y) for trace, y in parts])
    node = summed([scalarized(trace, "ucn", y) for trace, y in parts])
    if config.variant != "ucn":
        node = ad.add(node, summed([scalarized(trace, "cn", y) for trace, y in parts]))
    return ad.add(mse, ad.scale(node, config.node_loss_weight))


@pytest.mark.parametrize("variant", ["ucn", "n", "n-sgl"])
@pytest.mark.parametrize("packed", [True, False], ids=["packed", "two-traces"])
def test_fused_pair_loss_matches_unfused_composition(variant, packed):
    model = init_parameters(ModelConfig(hidden_dim=4), seed=4)
    config = LossConfig(variant=variant, node_loss_weight=0.3)
    masks = (np.array([1, 0, 1], bool), np.array([0, 1, 0], bool),
             np.array([1, 1, 0], bool), np.array([0, 0, 1], bool))
    results = []
    for fused in (True, False):
        if packed:
            trace = forward(model, (parse_smiles("CCO"), parse_smiles("CCN")),
                            masks[0::2], masks[1::2], train=True)
            traces, parts = (trace, None), [(trace, (1.0, 2.5))]
        else:
            traces = make_traces(model, "CCO", "CCN", masks)
            parts = [(traces[0], (1.0,)), (traces[1], (2.5,))]
        tape = traces[0].tape
        before = len(tape._entries)
        loss = pair_loss(*traces, 1.0, 2.5, config) if fused else _unfused_pair_loss(parts, config)
        if fused:  # one linear entry per scalarize map and trace, then one for all squared errors
            heads = 1 if variant == "ucn" else 2
            assert len(tape._entries) - before == heads * len(parts) + 1
        grads = tape.backward(loss)
        results.append((float(loss.value), traces[0].binding.gradient_by_name(grads),
                        [grads[t.y_hat.id] for t in traces if t is not None]))
    (value, grads, y_grads), (want, want_grads, want_y_grads) = results
    assert abs(value - want) <= 1e-12 * abs(want)
    for name, grad in want_grads.items():
        assert np.allclose(grads[name], grad, rtol=1e-12, atol=1e-15), name
    for got, expected in zip(y_grads, want_y_grads):
        assert np.array_equal(got, expected)  # 2 * weight * residual, as the primitives give it


def test_pair_loss_composition():
    model = init_parameters(ModelConfig(hidden_dim=4), seed=3)
    config = LossConfig(variant="n", node_loss_weight=0.25)
    ti, tj = make_traces(model)
    total = float(pair_loss(ti, tj, 1.0, 2.5, config).value)
    mse = float(loss_mse(ti, tj, 1.0, 2.5).value)
    node = float(loss_node(ti, tj, 1.0, 2.5, "n").value)
    assert abs(total - (mse + 0.25 * node)) < 1e-12


def test_loss_config_validation():
    with pytest.raises(ValueError, match="variant"):
        LossConfig(variant="gl")
    with pytest.raises(ValueError, match="lam"):
        LossConfig(lam=-1.0)
    with pytest.raises(ValueError, match="alpha"):
        LossConfig(alpha=1.5)
    cfg = LossConfig(variant="n-sgl", lam=0.01, alpha=0.3)
    assert LossConfig.from_dict(cfg.to_dict()) == cfg


def test_group_lasso_penalty_hand_values():
    assert abs(penalty_group_lasso([3.0, 4.0], [0.0], 1.0) - np.sqrt(2) * 5.0) < 1e-12
    assert penalty_group_lasso([0.0, 0.0], [0.0], 1.0) == 0.0
    # positive homogeneity
    doubled = penalty_group_lasso([6.0, 8.0], [0.0], 1.0)
    assert abs(doubled - 2 * penalty_group_lasso([3.0, 4.0], [0.0], 1.0)) < 1e-12


def test_sparse_group_lasso_penalty_hand_values():
    beta_cn, beta_ucn = [3.0, 4.0], [0.0]
    want = 0.5 * np.sqrt(2) * 5.0 + 0.5 * 7.0
    assert abs(penalty_sparse_group_lasso(beta_cn, beta_ucn, 1.0, 0.5) - want) < 1e-12
    assert penalty_sparse_group_lasso(beta_cn, beta_ucn, 1.0, 0.0) == penalty_group_lasso(
        beta_cn, beta_ucn, 1.0
    )
    pure_l1 = penalty_sparse_group_lasso([1.0, -2.0], [], 1.0, 1.0)
    assert abs(pure_l1 - 3.0) < 1e-12


def test_sgl_alpha_mixing_identity():
    rng = np.random.default_rng(0)
    beta_cn, beta_ucn = rng.standard_normal(5), rng.standard_normal(3)
    for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
        got = penalty_sparse_group_lasso(beta_cn, beta_ucn, 0.7, alpha)
        l1 = np.abs(beta_cn).sum() + np.abs(beta_ucn).sum()
        want = (1 - alpha) * penalty_group_lasso(beta_cn, beta_ucn, 0.7) + alpha * 0.7 * l1
        assert abs(got - want) < 1e-12


def test_prox_group_lasso_annihilation_and_identity():
    block = np.array([0.1, -0.2])
    assert np.array_equal(prox_group_lasso(block, 1.0, 10.0), np.zeros(2))
    out = prox_group_lasso(block, 1.0, 0.0)
    assert np.array_equal(out, block) and out is not block


def numeric_prox(objective, z, size):
    best = None
    for trial in range(3):
        x0 = z if trial == 0 else z * (0.5 * trial)
        res = optimize.minimize(objective, x0, method="Nelder-Mead",
                                options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000})
        if best is None or res.fun < best.fun:
            best = res
    return best.x


def test_prox_group_lasso_matches_numeric_minimizer():
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = rng.standard_normal(3) * rng.uniform(0.1, 2.0)
        t, lam = rng.uniform(0.01, 0.5), rng.uniform(0.0, 1.0)
        got = prox_group_lasso(z, t, lam)

        def obj(b):
            return 0.5 * np.sum((b - z) ** 2) + t * lam * np.sqrt(z.size) * np.linalg.norm(b)

        want = numeric_prox(obj, z, z.size)
        assert np.max(np.abs(got - want)) < 1e-6


def test_prox_sparse_group_lasso_matches_numeric_minimizer():
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = rng.standard_normal(3) * rng.uniform(0.1, 2.0)
        t, lam, alpha = rng.uniform(0.01, 0.5), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
        got = prox_sparse_group_lasso(z, t, lam, alpha)

        def obj(b):
            group = (1 - alpha) * lam * np.sqrt(z.size) * np.linalg.norm(b)
            l1 = alpha * lam * np.abs(b).sum()
            return 0.5 * np.sum((b - z) ** 2) + t * (group + l1)

        want = numeric_prox(obj, z, z.size)
        assert np.max(np.abs(got - want)) < 1e-6


def test_prox_sgl_alpha_zero_is_group_lasso_bitwise():
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.standard_normal(6)
        t, lam = rng.uniform(0.001, 1.0), rng.uniform(0.0, 2.0)
        a = prox_sparse_group_lasso(z, t, lam, 0.0)
        b = prox_group_lasso(z, t, lam)
        assert np.array_equal(a, b)


def test_prox_nonexpansive():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        t, lam, alpha = rng.uniform(0.01, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
        pa = prox_sparse_group_lasso(a, t, lam, alpha)
        pb = prox_sparse_group_lasso(b, t, lam, alpha)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_proximal_gradient_descends_frozen_objective():
    # least squares plus group lasso; small fixed step must never increase the objective
    rng = np.random.default_rng(5)
    A = rng.standard_normal((8, 4))
    b = rng.standard_normal(8)
    lam, t = 0.3, 0.01
    z = rng.standard_normal(4)

    def objective(v):
        return 0.5 * np.sum((A @ v - b) ** 2) + lam * np.sqrt(v.size) * np.linalg.norm(v)

    prev = objective(z)
    for _ in range(200):
        z = prox_group_lasso(z - t * (A.T @ (A @ z - b)), t, lam)
        cur = objective(z)
        assert cur <= prev + 1e-10
        prev = cur


def test_apply_prox_updates_head_blocks_in_place():
    model = init_parameters(ModelConfig(hidden_dim=4), seed=7)
    arrays = {n: p.value for n, p in model.params.items()}
    heads = [n for n, p in model.params.items() if p.group_tag != "other"]
    # one prox step equals the prox of each group's flattened block
    step, config = 0.1, LossConfig(variant="n-sgl", lam=0.5, alpha=0.3)
    want = {}
    for tag in ("CN_head", "UCN_head"):
        names = model.group_names(tag)
        block = np.concatenate([model.params[n].value.ravel() for n in names])
        block = prox_sparse_group_lasso(block, step, config.lam, config.alpha)
        offset = 0
        for n in names:
            want[n] = block[offset : offset + arrays[n].size].reshape(arrays[n].shape)
            offset += arrays[n].size
    apply_prox(model, config, step)
    for n in heads:
        assert model.params[n].value is arrays[n]
        assert np.array_equal(arrays[n], want[n])
    # heavy penalty wipes both head blocks, everything else untouched
    keep = {n: p.value.copy() for n, p in model.params.items() if p.group_tag == "other"}
    apply_prox(model, LossConfig(variant="n-gl", lam=100.0), step=1.0)
    assert all(np.all(arrays[n] == 0.0) for n in heads)
    for name, value in keep.items():
        assert np.array_equal(model.params[name].value, value)
    # plain variant is a no-op
    model2 = init_parameters(ModelConfig(hidden_dim=4), seed=7)
    before2 = model2.digest()
    apply_prox(model2, LossConfig(variant="n", lam=100.0), step=1.0)
    assert model2.digest() == before2
