"""The benchmark at reduced size: each workload passes its own checks, and
each check rejects a deliberately corrupted output."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from cliffkit import model as M
from cliffkit import pairs as P
from cliffkit.training import checkpoint_bytes

from perfbench import analogs, bench, checks, tracing
from perfbench.workloads import EXPLAIN_MODELS, Explain, Mine, Train

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class SmallMine(Mine):
    """One target, two quick cores, six analogs each."""

    pair_config = P.PairGenConfig(min_pairs_per_target=5)

    def make_table(self):
        full = analogs.generate_table(self.seed)
        keep = [a for a in full.analogs
                if a.core in ("oxindole", "pyridinylpyrimidine") and int(a.compound_id[-2:]) % 2 == 0]
        return analogs.AnalogTable(tuple(keep))


class SmallTrain(Train):
    data = dict(n_scaffolds=1, n_decorations=12)
    pair_config = P.PairGenConfig(min_pairs_per_target=10)
    model_config = M.ModelConfig(hidden_dim=4)
    epochs = 1


class SmallExplain(Explain):
    data = dict(n_scaffolds=2, n_decorations=10)
    pair_config = P.PairGenConfig(min_pairs_per_target=10)
    epochs = 1
    check_steps = 256


def _run(workload, traced=False):
    workload.setup()
    if traced:
        with tracing.Tracer() as tracer:
            result = workload.run(tracer)
    else:
        tracer = None
        result = workload.run(None)
    return result, tracer


@pytest.fixture(scope="module")
def mined(tmp_path_factory):
    workload = SmallMine(0, str(tmp_path_factory.mktemp("mine")))
    result, tracer = _run(workload, traced=True)
    return workload, result, tracer


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    workload = SmallTrain(0, str(tmp_path_factory.mktemp("train")))
    result, _ = _run(workload)
    return workload, result


@pytest.fixture(scope="module")
def explained(tmp_path_factory):
    workload = SmallExplain(0, str(tmp_path_factory.mktemp("explain")))
    result, tracer = _run(workload, traced=True)
    return workload, result, tracer


# ---------------------------------------------------------------------------
# inputs

def test_tables_are_drug_sized_and_reproducible(tmp_path):
    table = analogs.generate_table(3)
    again = analogs.generate_table(3)
    assert table == again and table != analogs.generate_table(4)
    assert {a.target_id for a in table.analogs} == set(analogs.TARGETS)
    for a in table.analogs:
        assert analogs.MIN_ATOMS <= a.heavy_atoms <= analogs.MAX_ATOMS
        assert P.parse_smiles(a.smiles).num_atoms == a.heavy_atoms
    # the activity design fixes the number of candidates at every seed
    counts = set()
    for seed in range(3):
        path = str(tmp_path / f"{seed}.csv")
        analogs.generate_table(seed).write_csv(path)
        counts.add(len(checks.gated_candidates(checks.csv_activities(path), P.PairGenConfig())))
    assert counts == {432}
    # every seed can fill every slot: the 18-atom core needs a 2-atom R1 in
    # both activity classes
    for seed in range(300):
        analogs.generate_table(seed)


# ---------------------------------------------------------------------------
# mine

def _mine_problems(workload, pairs=None, read_back=None):
    _, got_pairs, got_back, _ = workload.outcome
    return checks.mine_problems(
        workload.table, workload.csv_path,
        got_pairs if pairs is None else pairs,
        got_back if read_back is None else read_back,
        workload.pair_config)


def test_mine_passes_its_checks(mined):
    workload, result, tracer = mined
    assert result.failed == 0 and result.ops > 0
    assert workload.outcome[1], "the reduced table keeps some pairs"
    assert workload.problems() == []
    figures = bench.layer_metrics(tracer, workload.layer_figures())
    assert figures["pairs.candidates"][0] > 0 and figures["pairs.mcs_calls"][0] > 0
    assert 0 < figures["pairs.kept_ratio"][0] <= 1


def test_mine_checks_reject_corruption(mined):
    workload, _, _ = mined
    pairs = workload.outcome[1]
    p = pairs[0]

    flipped = p.common_mask_i.copy()
    flipped[0] = not flipped[0]
    assert any("masks disagree" in m for m in
               _mine_problems(workload, pairs=[dataclasses.replace(p, common_mask_i=flipped)] + pairs[1:]))

    a, _ = p.mapping[0]
    other = next(k for k, atom in enumerate(p.graph_j.atoms) if atom.element != p.graph_i.atoms[a].element)
    relabelled = ((a, other),) + p.mapping[1:]
    assert any("element" in m for m in
               _mine_problems(workload, pairs=[dataclasses.replace(p, mapping=relabelled)] + pairs[1:]))

    shrunk = dataclasses.replace(p, mapping=p.mapping[:-1])
    assert any("fraction" in m for m in _mine_problems(workload, pairs=[shrunk] + pairs[1:]))

    moved = dataclasses.replace(p, y_j=p.y_i + 0.5)
    assert any("activit" in m for m in _mine_problems(workload, pairs=[moved] + pairs[1:]))

    by_id = {a.compound_id: a for a in workload.table.analogs}
    certain = next(q for q in pairs if by_id[q.compound_i].core == by_id[q.compound_j].core)
    rest = [q for q in pairs if q is not certain]
    assert any("missing" in m for m in _mine_problems(workload, pairs=rest, read_back=rest))
    assert any("round trip" in m for m in _mine_problems(workload, read_back=pairs[:-1]))


def test_mapping_check_sees_a_disconnected_or_unequal_mapping():
    g = P.parse_smiles("CCOCC")
    assert checks.mapping_problems(g, g, ((0, 0), (1, 1), (2, 2))) == []
    assert any("connected" in m for m in checks.mapping_problems(g, g, ((0, 0), (4, 4))))
    assert checks.mapping_problems(g, P.parse_smiles("CCNCC"), ((1, 1), (2, 2)))


# ---------------------------------------------------------------------------
# train

def test_train_passes_its_checks(trained):
    workload, result = trained
    assert result.failed == 0 and result.ops == len(workload.split.train)
    assert workload.problems() == []


def test_train_checks_reject_corruption(trained):
    workload, _ = trained
    best, report, evaluation, loaded, loaded_loss, blob = workload.outcome
    (tag, analytic, numeric), *_ = workload.gradient_checks(best, samples=1, directions=1)
    assert checks.gradient_problems(analytic, numeric, tag) == []
    assert checks.gradient_problems(analytic * 1.01 + 1e-3, numeric, tag)

    rmse, pcc = workload._test_metrics()
    test = workload.split.test
    assert checks.split_metric_problems(evaluation, test, rmse, pcc) == []
    assert checks.split_metric_problems(evaluation, test, rmse * (1 + 1e-9), pcc)
    assert checks.split_metric_problems(evaluation, test, rmse, pcc + 1e-6)
    shuffled = dataclasses.replace(evaluation, targets=evaluation.targets[::-1].copy())
    assert checks.split_metric_problems(shuffled, test, rmse, pcc)

    reserialized = checkpoint_bytes(loaded, loaded_loss)
    assert checks.checkpoint_problems(best, loaded, blob, reserialized) == []
    assert checks.checkpoint_problems(best, loaded, blob, reserialized[:-1] + bytes([reserialized[-1] ^ 1]))
    tampered = loaded.copy()
    name = next(iter(tampered.params))
    tampered.params[name].value.flat[0] = np.nextafter(tampered.params[name].value.flat[0], 1.0)
    assert checks.checkpoint_problems(best, tampered, blob, reserialized)


# ---------------------------------------------------------------------------
# explain

def test_explain_passes_its_checks(explained):
    workload, result, tracer = explained
    assert result.failed == 0 and result.ops == len(workload.requests) == len(result.latencies_ms)
    assert workload.problems() == []
    metrics = bench.layer_metrics(tracer, workload.layer_figures())
    assert metrics["attribution.requests"][0] == len(workload.requests)
    # one standalone forward, one for the shared maps, one per IG step
    assert metrics["attribution.forward_calls_per_request"][0] == 2 + 64


def test_explain_checks_reject_corruption(explained):
    workload, _, _ = explained
    key, cid, (prediction, maps, svg) = workload.answers[0]
    offset = checks.readout_offset(workload.models[key])
    cam = maps["cam"].node_values
    assert checks.cam_offset_problems(prediction, cam, offset, "x") == []
    assert checks.cam_offset_problems(prediction, cam + 1e-3, offset, "x")

    answered = [(key, cid, (prediction, maps, svg))]
    (tag, analytic, numeric), *_ = workload.gradinput_checks(answered, requests=1, atoms=1)
    assert checks.gradient_problems(analytic, numeric, tag) == []
    atom = int(tag.rsplit(" ", 1)[1])
    values = maps["gradinput"].node_values
    shuffled = np.roll(values, 1)
    assert shuffled[atom] != values[atom]
    assert checks.gradient_problems(float(shuffled[atom]), numeric, tag)

    (tag, total, delta, allowed), *_ = workload.completeness_checks()
    assert checks.completeness_problems(total, delta, allowed, tag) == []
    assert checks.completeness_problems(total + 2 * allowed, delta, allowed, tag)

    n = workload.graphs[cid].num_atoms
    assert checks.svg_problems(svg, n, "x") == []
    assert checks.svg_problems(svg, n + 1, "x")
    assert checks.svg_problems(svg[:-10], n, "x")

    a, b = (k for k, _, _ in EXPLAIN_MODELS)
    test = list(workload.split.test)
    report = workload.report
    assert checks.sweep_problems(report, test, workload.values[a], workload.values[b]) == []
    method, sweep = next(iter(report.methods.items()))
    cell = sweep.cells[0]
    bad_cell = dataclasses.replace(cell, mean_b=cell.mean_b + 0.25)
    bad = dataclasses.replace(report, methods={**report.methods, method: dataclasses.replace(
        sweep, cells=(bad_cell,) + sweep.cells[1:])})
    assert checks.sweep_problems(bad, test, workload.values[a], workload.values[b])


def test_enumerated_wilcoxon_matches_the_package():
    from cliffkit.evaluation import wilcoxon_signed_rank

    rng = np.random.default_rng(0)
    for n in (5, 8, 10):
        x, y = rng.normal(size=n), rng.normal(size=n)
        x[0] = y[0] + 1.0
        x[1] = y[1] + 1.0  # a tie among the absolute differences
        w, p = checks.enumerated_wilcoxon(x, y)
        got = wilcoxon_signed_rank(x, y)
        assert got.statistic == pytest.approx(w) and got.p_value == pytest.approx(p, abs=1e-12)
    assert checks.enumerated_wilcoxon([1, 2, 3], [1, 2, 4]) is None


# ---------------------------------------------------------------------------
# tracing and the command

def test_tracer_restores_the_package():
    import cliffkit
    from cliffkit import attribution, autodiff, training

    before = (M.forward, training.forward, attribution.forward_from_arrays, autodiff.Tape.backward,
              cliffkit.parse_smiles, autodiff.matmul)
    with tracing.Tracer() as tracer:
        assert training.forward is not before[1]
        m = M.init_parameters(M.ModelConfig(hidden_dim=4), seed=0)
        m.bn_state[0].updates = m.bn_state[1].updates = m.bn_state[2].updates = 1
        M.predict_affinity(m, cliffkit.parse_smiles("CCO"))
    after = (M.forward, training.forward, attribution.forward_from_arrays, autodiff.Tape.backward,
             cliffkit.parse_smiles, autodiff.matmul)
    assert all(x is y for x, y in zip(before, after))
    assert tracer.calls["model.forward_eval"] == 1 and tracer.calls["molgraph.parse"] == 1
    assert tracer.calls["molgraph.featurize"] == 2
    assert all(t >= 0 for t in tracer.self_s.values())
    names = {s[2] for s in tracer.spans}
    assert names == {"molgraph.parse", "molgraph.featurize", "model.forward_eval"}


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    per_layer = bench.layer_metrics(tracing.Tracer(), {})
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in per_layer.values()]
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(bench.END_TO_END.values())
    assert [w["name"] for w in spec["workloads"]] == ["mine", "train", "explain"]


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mine", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and "correct" not in done.stdout
