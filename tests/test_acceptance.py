"""End-to-end checks over the whole package, one per release gate.

Every test prints one ``[acceptance] <name>: PASS/FAIL`` line on the real
stdout so the lines survive pytest capture, then asserts. Random draws are
fixed-seed, so each check is reproducible bit for bit.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import rankdata

from cliffkit import autodiff as ad
from cliffkit.attribution import METHODS, AttributionConfig, attribute
from cliffkit.autodiff import Tape
from cliffkit.cli import main
from cliffkit.evaluation import (
    DEFAULT_THRESHOLDS,
    wilcoxon_signed_rank,
    threshold_sweep,
)
from cliffkit.losses import (
    LossConfig,
    pair_loss,
    prox_group_lasso,
    prox_sparse_group_lasso,
)
from cliffkit.model import (
    ModelBinding,
    ModelConfig,
    commit_bn_stats,
    forward,
    forward_from_arrays,
    init_parameters,
)
from cliffkit.molgraph import (
    ATOM_FEATURE_WIDTH,
    BOND_FEATURE_WIDTH,
    Atom,
    Bond,
    DOUBLE,
    MolecularGraph,
    SINGLE,
    atom_features,
    bond_features,
    parse_smiles,
)
from cliffkit.pairs import (
    CliffPair,
    PairGenConfig,
    SyntheticConfig,
    generate_cliff_pairs,
    generate_synthetic_dataset,
    max_common_substructure,
    read_pairs_jsonl,
    split_pairs,
)
from cliffkit.training import TrainConfig, evaluate_split, train


_terminal = None


@pytest.fixture(autouse=True)
def _capture_terminal(request):
    # pytest's own writer bypasses output capture, so the summary lines
    # below stay visible in a normal run
    global _terminal
    _terminal = request.config.pluginmanager.getplugin("terminalreporter")
    yield


def _report(name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {name}: {status} ({detail})"
    if _terminal is not None:
        _terminal.write_line(line)
    else:
        print(line, flush=True)
    assert ok, f"{name}: {detail}"


def _model_config(hidden: int, layers: int = 3) -> ModelConfig:
    return ModelConfig(
        hidden_dim=hidden,
        message_layers=layers,
        atom_feature_width=ATOM_FEATURE_WIDTH,
        bond_feature_width=BOND_FEATURE_WIDTH,
    )


# ---------------------------------------------------------------------------
# substructure search vs exhaustive reference

def _brute_mcs_size(g1, g2):
    def atom_ok(a, b):
        x, y = g1.atoms[a], g2.atoms[b]
        return x.element == y.element and x.aromatic == y.aromatic

    def consistent(a, b, mapping):
        for a2, b2 in mapping.items():
            e1 = g1.bond_between(a, a2)
            e2 = g2.bond_between(b, b2)
            if (e1 is None) != (e2 is None):
                return False
            if e1 is not None and e1.order != e2.order:
                return False
        return True

    best = 0
    seen = set()

    def extend(mapping):
        nonlocal best
        key = frozenset(mapping.items())
        if key in seen:
            return
        seen.add(key)
        best = max(best, len(mapping))
        frontier = {n for a in mapping for n in g1.neighbors(a) if n not in mapping}
        used2 = set(mapping.values())
        for a in frontier:
            for b in range(g2.num_atoms):
                if b in used2 or not atom_ok(a, b) or not consistent(a, b, mapping):
                    continue
                mapping[a] = b
                extend(mapping)
                del mapping[a]

    for a in range(g1.num_atoms):
        for b in range(g2.num_atoms):
            if atom_ok(a, b):
                extend({a: b})
    return best


def _random_molecule(rng, max_atoms=9, min_atoms=2):
    n = int(rng.integers(min_atoms, max_atoms + 1))
    elements = rng.choice(["C", "C", "C", "N", "O", "S"], size=n)
    atoms = tuple(Atom(str(e)) for e in elements)
    orders = [SINGLE, SINGLE, SINGLE, DOUBLE]
    edges = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges[(j, i)] = orders[rng.integers(len(orders))]
    for _ in range(int(rng.integers(0, 3))):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (i, j) not in edges:
            edges[(i, j)] = orders[rng.integers(len(orders))]
    bonds = tuple(Bond(i, j, o) for (i, j), o in sorted(edges.items()))
    return MolecularGraph(atoms, bonds)


def test_substructure_search_matches_exhaustive_reference():
    rng = np.random.default_rng(11)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        g1, g2 = _random_molecule(rng), _random_molecule(rng)
        res = max_common_substructure(g1, g2)
        if res.truncated or res.size != _brute_mcs_size(g1, g2):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 60.0
    _report(
        "substructure-search-equivalence", ok,
        f"200 random pairs, {mismatches} mismatches, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# analytic gradients vs central finite differences

def _pair_objective(model, x_arr, e_arr, edge_index, masks, targets, config):
    (ci, ui), (cj, uj) = masks
    tape = Tape()
    binding = ModelBinding(model, tape)
    ti = forward_from_arrays(model, x_arr, e_arr, edge_index, ci, ui,
                             train=True, tape=tape, binding=binding)
    tj = forward_from_arrays(model, x_arr, e_arr, edge_index, cj, uj,
                             train=True, tape=tape, binding=binding)
    loss = pair_loss(ti, tj, targets[0], targets[1], config)
    return loss, tape, binding, ti, tj


def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    h = 1e-6
    config = LossConfig(variant="n", lam=0.0, alpha=0.5, node_loss_weight=0.7)
    worst = 0.0
    started = time.perf_counter()
    for _ in range(50):
        mc = _model_config(int(rng.integers(2, 4)), int(rng.integers(1, 3)))
        model = init_parameters(mc, seed=int(rng.integers(0, 10_000)))
        graph = _random_molecule(rng, max_atoms=7, min_atoms=4)
        n = graph.num_atoms
        x_arr = atom_features(graph)
        e_arr, edge_index = bond_features(graph)
        masks = []
        for _ in range(2):
            common = np.zeros(n, dtype=bool)
            common[rng.choice(n, size=n // 2 + 1, replace=False)] = True
            masks.append((common, ~common))
        targets = (float(rng.normal()), float(rng.normal()))

        def value(xa=x_arr, ea=e_arr):
            loss, *_ = _pair_objective(model, xa, ea, edge_index, masks, targets, config)
            return float(loss.value)

        loss, tape, binding, ti, tj = _pair_objective(
            model, x_arr, e_arr, edge_index, masks, targets, config)
        grads = tape.backward(loss)
        by_name = binding.gradient_by_name(grads)

        def rel_err(analytic, numeric):
            return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)

        for name, p in model.params.items():
            flat = p.value.ravel()
            g = by_name[name].ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = value()
                flat[k] = orig - h
                down = value()
                flat[k] = orig
                worst = max(worst, rel_err(g[k], (up - down) / (2 * h)))
        # input features: both traces consume the same arrays
        gx = grads.get(ti.x.id, 0) + grads.get(tj.x.id, 0)
        ge = grads.get(ti.e.id, 0) + grads.get(tj.e.id, 0)
        for arr, grad, kw in ((x_arr, gx, "xa"), (e_arr, ge, "ea")):
            flat = arr.ravel()
            gflat = np.asarray(grad).ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = value()
                flat[k] = orig - h
                down = value()
                flat[k] = orig
                worst = max(worst, rel_err(gflat[k], (up - down) / (2 * h)))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 120.0
    _report(
        "gradient-finite-difference", ok,
        f"50 instances, max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# integrated gradients completeness

def test_integrated_gradients_completeness():
    rng = np.random.default_rng(37)
    fine_beats_coarse = 0
    worst = 0.0
    for _ in range(20):
        mc = _model_config(int(rng.integers(3, 7)), int(rng.integers(1, 4)))
        model = init_parameters(mc, seed=int(rng.integers(0, 10_000)))
        graph = _random_molecule(rng, max_atoms=9, min_atoms=5)
        trace = forward(model, graph, train=True)
        commit_bn_stats(model, trace)
        x_arr = atom_features(graph)
        e_arr, edge_index = bond_features(graph)
        ones = np.ones(graph.num_atoms, dtype=bool)
        f_x = forward_from_arrays(model, x_arr, e_arr, edge_index, ones, ones).prediction
        f_0 = forward_from_arrays(
            model, np.zeros_like(x_arr), np.zeros_like(e_arr), edge_index, ones, ones
        ).prediction
        delta = f_x - f_0
        errors = {}
        for steps in (8, 1024):
            amap = attribute(model, graph, "ig", AttributionConfig(ig_steps=steps))
            total = float(amap.node_values.sum() + amap.edge_values.sum())
            errors[steps] = abs(total - delta)
        worst = max(worst, errors[1024] / max(1.0, abs(delta)))
        if errors[1024] < errors[8]:
            fine_beats_coarse += 1
    ok = worst <= 1e-3 and fine_beats_coarse >= 18
    _report(
        "integrated-gradients-completeness", ok,
        f"20 instances, worst scaled error {worst:.2e}, "
        f"1024-step beats 8-step in {fine_beats_coarse}/20",
    )


# ---------------------------------------------------------------------------
# proximal operators vs direct numerical minimization

def _numeric_argmin(objective, p, starts):
    best = None
    for s0 in starts:
        res = minimize(
            objective, s0, method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 40_000, "maxfev": 40_000},
        )
        if best is None or res.fun < best.fun:
            best = res
    return best.x


def test_prox_operators_match_numerical_minimization():
    rng = np.random.default_rng(41)
    worst_gl = 0.0
    worst_sgl = 0.0
    bitwise = True
    for _ in range(100):
        p = int(rng.integers(1, 6))
        block = rng.normal(0.0, 1.0, size=p) * rng.uniform(0.05, 3.0)
        step = float(rng.uniform(1e-3, 0.1))
        lam = float(rng.uniform(0.01, 2.0))
        alpha = float(rng.uniform(0.0, 1.0))
        root_p = math.sqrt(p)

        got_gl = prox_group_lasso(block, step, lam)
        ref_gl = _numeric_argmin(
            lambda z: 0.5 * np.sum((z - block) ** 2)
            + step * lam * root_p * np.linalg.norm(z),
            p, [block, np.zeros(p), 0.5 * block],
        )
        worst_gl = max(worst_gl, float(np.max(np.abs(got_gl - ref_gl))))

        got_sgl = prox_sparse_group_lasso(block, step, lam, alpha)
        ref_sgl = _numeric_argmin(
            lambda z: 0.5 * np.sum((z - block) ** 2)
            + step * lam * (alpha * np.abs(z).sum()
                            + (1.0 - alpha) * root_p * np.linalg.norm(z)),
            p, [block, np.zeros(p), 0.5 * block],
        )
        worst_sgl = max(worst_sgl, float(np.max(np.abs(got_sgl - ref_sgl))))

        same = prox_sparse_group_lasso(block, step, lam, 0.0)
        bitwise = bitwise and np.array_equal(same, prox_group_lasso(block, step, lam))
    ok = worst_gl <= 1e-6 and worst_sgl <= 1e-6 and bitwise
    _report(
        "prox-numeric-oracle", ok,
        f"100 blocks, worst abs diff gl {worst_gl:.2e} sgl {worst_sgl:.2e}, "
        f"alpha=0 bitwise {bitwise}",
    )


# ---------------------------------------------------------------------------
# signed-rank test vs sign enumeration

def _enumerated_p(diffs):
    d = np.asarray(diffs, dtype=np.float64)
    d = d[d != 0.0]
    n = d.size
    ranks = rankdata(np.abs(d))
    w_obs = min(ranks[d > 0].sum(), ranks[d < 0].sum())
    count = 0
    for bits in range(2 ** n):
        signs = np.array([(bits >> k) & 1 for k in range(n)], dtype=bool)
        w = min(ranks[signs].sum(), ranks[~signs].sum())
        if w <= w_obs + 1e-9:
            count += 1
    return count / 2 ** n


def test_signed_rank_exactness_against_enumeration():
    rng = np.random.default_rng(53)
    worst = 0.0
    checked = 0
    for n in range(5, 13):
        for _ in range(3):
            # integer magnitudes keep x - y free of rounding noise
            mags = rng.integers(1, 6, size=n).astype(np.float64)
            signs = rng.choice([-1.0, 1.0], size=n)
            x = mags * signs
            y = np.zeros(n)
            result = wilcoxon_signed_rank(x, y)
            worst = max(worst, abs(result.p_value - _enumerated_p(x - y)))
            checked += 1
    all_positive = wilcoxon_signed_rank(np.arange(1.0, 7.0), np.zeros(6))
    six_ok = abs(all_positive.p_value - 0.03125) <= 1e-12
    ok = worst <= 1e-12 and six_ok
    _report(
        "signed-rank-exactness", ok,
        f"{checked} draws over n=5..12, worst gap {worst:.1e}, "
        f"n=6 all-positive p {all_positive.p_value}",
    )


# ---------------------------------------------------------------------------
# zero penalty reduces to the plain variant bitwise

def test_zero_penalty_training_reproduces_plain_variant():
    data = generate_synthetic_dataset(SyntheticConfig(n_decorations=12, seed=1))
    pairs = generate_cliff_pairs(
        list(data.compounds), PairGenConfig(min_pairs_per_target=10))
    split = split_pairs(list(pairs), seed=0)
    tc = TrainConfig(learning_rate=3e-3, max_epochs=4, patience=4, seed=0)
    results = {}
    for variant in ("n", "n-gl"):
        model = init_parameters(_model_config(4), seed=0)
        lc = LossConfig(variant=variant, lam=0.0, alpha=0.5, node_loss_weight=1.0)
        results[variant] = train(model, split, lc, tc)
    best_n, report_n = results["n"]
    best_gl, report_gl = results["n-gl"]
    same_params = all(
        np.array_equal(best_n.params[k].value, best_gl.params[k].value)
        for k in best_n.params
    )
    same_bn = all(
        np.array_equal(a.mean, b.mean) and np.array_equal(a.var, b.var)
        for a, b in zip(best_n.bn_state, best_gl.bn_state)
    )
    same_curves = (report_n.train_loss == report_gl.train_loss
                   and report_n.val_rmse == report_gl.val_rmse)
    digests_equal = best_n.digest() == best_gl.digest()
    ok = same_params and same_bn and same_curves and digests_equal
    _report(
        "penalty-free-reduction", ok,
        f"digests equal {digests_equal}, params {same_params}, "
        f"bn {same_bn}, curves {same_curves}",
    )


# ---------------------------------------------------------------------------
# planted-effect study shared by the two behavioural criteria

FLEET_SEEDS = (0, 1, 2, 3, 4)
FLEET_DATASET = SyntheticConfig(
    n_scaffolds=4, n_decorations=15, noise_sd=0.1, seed=0, scaffolds_per_target=4)
FLEET_TRAIN = dict(learning_rate=7e-3, max_epochs=60, patience=12, beta2=0.99)
FLEET_HIDDEN = 8
SGL_LAM = 1e-4
GL_LAM = 0.3


@pytest.fixture(scope="session")
def trained_fleet():
    data = generate_synthetic_dataset(FLEET_DATASET)
    pairs = generate_cliff_pairs(
        list(data.compounds), PairGenConfig(min_pairs_per_target=50))
    split = split_pairs(list(pairs), seed=0)
    targets = {p.target_id for p in pairs}
    started = time.perf_counter()
    models = {}
    rmses = {}
    for key, variant, lam in (
        ("n", "n", 0.0),
        ("ucn", "ucn", 0.0),
        ("sgl", "n-sgl", SGL_LAM),
        ("gl", "n-gl", GL_LAM),
    ):
        models[key] = []
        rmses[key] = []
        for seed in FLEET_SEEDS:
            model = init_parameters(_model_config(FLEET_HIDDEN), seed=seed)
            lc = LossConfig(variant=variant, lam=lam, alpha=0.5, node_loss_weight=1.0)
            tc = TrainConfig(seed=seed, **FLEET_TRAIN)
            best, _ = train(model, split, lc, tc)
            models[key].append(best)
            rmses[key].append(evaluate_split(best, split.test).rmse)
    return {
        "targets": targets,
        "n_compounds": len(data.compounds),
        "pairs": pairs,
        "split": split,
        "models": models,
        "rmses": rmses,
        "train_seconds": time.perf_counter() - started,
    }


def test_masked_variant_ordering_on_planted_dataset(trained_fleet):
    fleet = trained_fleet
    means = {k: float(np.mean(v)) for k, v in fleet["rmses"].items()}
    shape_ok = (
        len(fleet["targets"]) == 1
        and fleet["n_compounds"] >= 60
        and len(fleet["pairs"]) >= 200
    )
    ordering_ok = means["ucn"] > means["n"]
    sgl_ok = means["n"] >= means["sgl"] - 0.01
    time_ok = fleet["train_seconds"] < 600.0
    ok = shape_ok and ordering_ok and sgl_ok and time_ok
    _report(
        "masked-variant-rmse-ordering", ok,
        f"mean test rmse n {means['n']:.4f} ucn {means['ucn']:.4f} "
        f"sgl {means['sgl']:.4f}, {len(fleet['pairs'])} pairs, "
        f"{fleet['train_seconds']:.0f}s training",
    )


def test_group_penalty_improves_direction_agreement(trained_fleet):
    fleet = trained_fleet
    config = AttributionConfig(ig_steps=64)
    started = time.perf_counter()
    cells = {m: ([], []) for m in METHODS}
    for s in range(len(FLEET_SEEDS)):
        report = threshold_sweep(
            list(fleet["split"].test),
            fleet["models"]["n"][s],
            fleet["models"]["gl"][s],
            METHODS, DEFAULT_THRESHOLDS, config,
        )
        for method, sweep in report.methods.items():
            for cell in sweep.cells:
                if cell.n_pairs and cell.mean_a is not None:
                    cells[method][0].append(cell.mean_a)
                    cells[method][1].append(cell.mean_b)
    elapsed = time.perf_counter() - started
    gained = 0
    significant = 0
    details = []
    for method in METHODS:
        a = np.array(cells[method][0])
        b = np.array(cells[method][1])
        if b.mean() >= a.mean():
            gained += 1
        try:
            p = wilcoxon_signed_rank(a, b).p_value
        except Exception:
            p = None
        if p is not None and p < 0.1 and b.mean() > a.mean():
            significant += 1
        details.append(f"{method} {a.mean():.3f}->{b.mean():.3f}"
                       + (f" p={p:.3g}" if p is not None else ""))
    ok = gained >= 3 and significant >= 2 and elapsed < 300.0
    _report(
        "group-penalty-direction-gain", ok,
        f"{gained}/4 methods gained, {significant} significant, "
        f"{elapsed:.0f}s sweeps; " + "; ".join(details),
    )


# ---------------------------------------------------------------------------
# byte-identical reruns of every subcommand

def test_subcommand_reruns_are_byte_identical(tmp_path, monkeypatch):
    def run_all(root):
        monkeypatch.chdir(root)
        assert main(["synth", "--out", "compounds.csv", "--decorations", "16",
                     "--seed", "0", "--planted-out", "planted.json"]) == 0
        assert main(["pairs", "--compounds", "compounds.csv", "--out", "pairs.jsonl",
                     "--min-pairs-per-target", "10"]) == 0
        for variant, out in (("n", "n.ckpt"), ("n-gl", "gl.ckpt")):
            assert main(["train", "--pairs", "pairs.jsonl", "--out", out,
                         "--variant", variant, "--lam", "0.001", "--seed", "0",
                         "--hidden-dim", "4", "--max-epochs", "3",
                         "--patience", "3", "--lr", "0.003"]) == 0
        assert main(["eval", "--pairs", "pairs.jsonl",
                     "--checkpoint", "n.ckpt", "--checkpoint", "gl.ckpt",
                     "--out", "report.json", "--csv", "sweep.csv",
                     "--attributions-out", "attr.jsonl",
                     "--methods", "cam,gradinput", "--ig-steps", "8"]) == 0
        pairs, _ = read_pairs_jsonl("pairs.jsonl")
        report = json.loads(open("report.json").read())
        assert main(["render", "--pairs", "pairs.jsonl", "--attributions", "attr.jsonl",
                     "--pair-id", pairs[0].pair_id, "--out", "panel",
                     "--model-ref", report["models"][0]["model_digest"][:12]]) == 0

    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        d.mkdir()
        run_all(d)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    differing = [
        name for name in names
        if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes()
    ]
    ok = not differing
    _report(
        "rerun-byte-identity", ok,
        f"{len(names)} files from 5 subcommands, differing: {differing or 'none'}",
    )


# ---------------------------------------------------------------------------
# split arithmetic at a known size

def test_split_sizes_at_known_pair_count():
    graph = parse_smiles("CC")
    mask = np.ones(2, dtype=bool)
    pairs = [
        CliffPair(
            pair_id=f"P{k:04d}", target_id="T", compound_i=f"A{k}", compound_j=f"B{k}",
            smiles_i="CC", smiles_j="CC", graph_i=graph, graph_j=graph,
            y_i=2.0, y_j=0.5, mcs_fraction=1.0, mapping=((0, 0), (1, 1)),
            common_mask_i=mask, common_mask_j=mask, mcs_truncated=False,
        )
        for k in range(1377)
    ]
    split = split_pairs(pairs, ratios=(0.7, 0.1, 0.2), seed=0)
    ok = split.sizes == (963, 138, 276)
    _report("split-arithmetic", ok, f"1377 pairs -> {split.sizes}")
