"""Correctness checks on the outputs of each workload.

Each check returns a list of problems (empty when the output is right).
None of them compares against stored output: they recompute what the
output must satisfy from the inputs, from how the inputs were built, or
from an independent calculation.
"""

from __future__ import annotations

import itertools
import math
import xml.etree.ElementTree as ET

import numpy as np

from .analogs import AnalogTable, core_lower_bound

# ---------------------------------------------------------------------------
# mine

def csv_activities(path: str) -> dict[str, tuple[str, float]]:
    """compound id -> (target, pIC50) read straight from the CSV text."""
    out = {}
    with open(path) as fh:
        next(fh)
        for line in fh:
            cid, target, _, ic50 = line.rstrip("\n").split(",")
            out[cid] = (target, 9.0 - math.log10(float(ic50)))
    return out


def gated_candidates(activities: dict[str, tuple[str, float]], config) -> list[tuple[str, str]]:
    """Same-target id pairs (lower id first) whose activity gap passes the gate."""
    by_target: dict[str, list[str]] = {}
    for cid, (target, _) in activities.items():
        by_target.setdefault(target, []).append(cid)
    out = []
    for target in sorted(by_target):
        ids = sorted(by_target[target])
        for a, b in itertools.combinations(ids, 2):
            if abs(activities[a][1] - activities[b][1]) >= config.min_activity_delta:
                out.append((a, b))
    return out


def mapping_problems(g1, g2, mapping) -> list[str]:
    """Is ``mapping`` a connected induced common subgraph with equal labels?"""
    problems = []
    left = [a for a, _ in mapping]
    right = [b for _, b in mapping]
    if len(set(left)) != len(left) or len(set(right)) != len(right):
        return ["mapping is not one-to-one"]
    if any(not 0 <= a < g1.num_atoms for a in left) or any(not 0 <= b < g2.num_atoms for b in right):
        return ["mapping index out of range"]
    bonds1 = {(b.i, b.j): b.order for b in g1.bonds}
    bonds2 = {(b.i, b.j): b.order for b in g2.bonds}
    for a, b in mapping:
        x, y = g1.atoms[a], g2.atoms[b]
        if x.element != y.element or x.aromatic != y.aromatic:
            problems.append(f"atoms {a}/{b} differ in element or aromatic flag")
    for (a, b), (a2, b2) in itertools.combinations(mapping, 2):
        o1 = bonds1.get((min(a, a2), max(a, a2)))
        o2 = bonds2.get((min(b, b2), max(b, b2)))
        if o1 != o2:
            problems.append(f"bond {a}-{a2} / {b}-{b2} is {o1} vs {o2}")
    if mapping:
        adjacent = {a: set() for a in left}
        for i, j in bonds1:
            if i in adjacent and j in adjacent:
                adjacent[i].add(j)
                adjacent[j].add(i)
        seen = {left[0]}
        frontier = [left[0]]
        while frontier:
            for nxt in adjacent[frontier.pop()] - seen:
                seen.add(nxt)
                frontier.append(nxt)
        if len(seen) != len(left):
            problems.append("mapped atoms are not connected")
    return problems


def mine_problems(table: AnalogTable, csv_path: str, pairs, read_back, config) -> list[str]:
    """Every check of one mined table."""
    problems: list[str] = []
    analogs = {a.compound_id: a for a in table.analogs}
    activities = csv_activities(csv_path)
    candidates = gated_candidates(activities, config)
    candidate_set = set(candidates)
    keys = [(p.target_id, p.pair_id) for p in pairs]
    if keys != sorted(keys):
        problems.append("pairs are not in (target, pair id) order")
    emitted = set()
    for p in pairs:
        tag = p.pair_id
        a, b = analogs.get(p.compound_i), analogs.get(p.compound_j)
        if a is None or b is None:
            problems.append(f"{tag}: unknown compound")
            continue
        emitted.add((p.compound_i, p.compound_j))
        if (p.compound_i, p.compound_j) not in candidate_set:
            problems.append(f"{tag}: not a same-target candidate past the activity gate")
        if not a.target_id == b.target_id == p.target_id:
            problems.append(f"{tag}: compounds from different targets")
        if (p.y_i, p.y_j) != (activities[a.compound_id][1], activities[b.compound_id][1]):
            problems.append(f"{tag}: activities differ from the table")
        if abs(p.y_i - p.y_j) < config.min_activity_delta:
            problems.append(f"{tag}: activity gap below the gate")
        n_i, n_j = p.graph_i.num_atoms, p.graph_j.num_atoms
        if (n_i, n_j) != (a.heavy_atoms, b.heavy_atoms):
            problems.append(f"{tag}: parsed atom counts differ from the built analogs")
        size = len(p.mapping)
        if p.mcs_fraction != size / max(n_i, n_j) or p.mcs_fraction < config.min_mcs_fraction:
            problems.append(f"{tag}: overlap fraction {p.mcs_fraction} wrong or below the gate")
        problems += [f"{tag}: {m}" for m in mapping_problems(p.graph_i, p.graph_j, p.mapping)]
        mask_i = np.zeros(n_i, dtype=bool)
        mask_j = np.zeros(n_j, dtype=bool)
        for x, y in p.mapping:
            mask_i[x] = mask_j[y] = True
        if not (np.array_equal(p.common_mask_i, mask_i) and np.array_equal(p.common_mask_j, mask_j)):
            problems.append(f"{tag}: masks disagree with the mapping")
        bound = core_lower_bound(a, b)
        if bound is not None and not p.mcs_truncated and size < bound:
            problems.append(f"{tag}: common substructure {size} below the built core {bound}")
        if size > min(n_i, n_j):
            problems.append(f"{tag}: common substructure larger than a molecule")
    # Same-core candidates whose built core alone passes the overlap gate must
    # come out, unless their target fell below the per-target minimum.
    certain: dict[str, list[tuple[str, str]]] = {}
    for i, j in candidates:
        a, b = analogs[i], analogs[j]
        bound = core_lower_bound(a, b)
        if bound is not None and bound >= config.min_mcs_fraction * max(a.heavy_atoms, b.heavy_atoms):
            certain.setdefault(a.target_id, []).append((i, j))
    kept_targets = {p.target_id for p in pairs}
    for target, must in certain.items():
        if target in kept_targets or len(must) >= config.min_pairs_per_target:
            missing = [m for m in must if m not in emitted]
            if missing:
                problems.append(f"{target}: {len(missing)} certain pairs missing, e.g. {missing[0]}")
    problems += round_trip_problems(pairs, read_back)
    return problems


def round_trip_problems(pairs, read_back) -> list[str]:
    if len(pairs) != len(read_back):
        return [f"JSONL round trip returned {len(read_back)} of {len(pairs)} pairs"]
    problems = []
    for p, q in zip(pairs, read_back):
        same = (
            p == q
            and p.graph_i == q.graph_i
            and p.graph_j == q.graph_j
            and np.array_equal(p.common_mask_i, q.common_mask_i)
            and np.array_equal(p.common_mask_j, q.common_mask_j)
        )
        if not same:
            problems.append(f"{p.pair_id}: changed by the JSONL round trip")
    return problems


# ---------------------------------------------------------------------------
# train

def gradient_problems(analytic: float, numeric: float, tag: str, rtol: float = 1e-5) -> list[str]:
    """Directional derivative from the tape against central differences."""
    if abs(analytic - numeric) > rtol * max(1.0, abs(analytic), abs(numeric)):
        return [f"{tag}: gradient {analytic!r} vs finite difference {numeric!r}"]
    return []


def split_metric_problems(evaluation, pairs, rmse: float, pcc: float) -> list[str]:
    """Program RMSE and PCC against numpy and scipy on the same predictions."""
    from scipy.stats import pearsonr

    problems = []
    labels = [y for p in pairs for y in (p.y_i, p.y_j)]
    if list(evaluation.targets) != labels:
        problems.append("evaluation targets are not the pairs' labels in order")
    pred = np.asarray(evaluation.predictions, dtype=np.float64)
    if pred.shape != (len(labels),) or not np.all(np.isfinite(pred)):
        return problems + ["predictions missing or not finite"]
    ref_rmse = float(np.sqrt(np.mean((pred - np.asarray(labels)) ** 2)))
    ref_pcc = float(pearsonr(pred, labels).statistic)
    if not math.isclose(rmse, ref_rmse, rel_tol=1e-12):
        problems.append(f"rmse {rmse!r} vs recomputed {ref_rmse!r}")
    if not math.isclose(pcc, ref_pcc, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"pcc {pcc!r} vs scipy {ref_pcc!r}")
    return problems


def checkpoint_problems(model, loaded, blob: bytes, reserialized: bytes) -> list[str]:
    problems = []
    if list(model.params) != list(loaded.params):
        problems.append("checkpoint changed the parameter set")
    for name, p in model.params.items():
        q = loaded.params.get(name)
        if q is None or q.value.dtype != p.value.dtype or q.value.tobytes() != p.value.tobytes() \
                or q.value.shape != p.value.shape or q.group_tag != p.group_tag:
            problems.append(f"checkpoint changed parameter {name}")
    for k, (a, b) in enumerate(zip(model.bn_state, loaded.bn_state)):
        if a.mean.tobytes() != b.mean.tobytes() or a.var.tobytes() != b.var.tobytes() or a.updates != b.updates:
            problems.append(f"checkpoint changed normalization state {k}")
    if len(model.bn_state) != len(loaded.bn_state):
        problems.append("checkpoint changed the number of normalization layers")
    if blob != reserialized:
        problems.append("saving the loaded checkpoint gives other bytes")
    return problems


# ---------------------------------------------------------------------------
# explain

def readout_offset(model) -> float:
    """Constant part of the linear map from the pooled embedding to the output.

    With all-true masks both readouts equal the mean embedding r, so
    ``y = r . w + c``; ``c`` collects every bias pushed through the heads,
    combine and output layers.
    """
    p = {name: param.value for name, param in model.params.items()}
    combine_in = np.concatenate([p["head_cn.bias"], p["head_ucn.bias"]])
    hidden = combine_in @ p["combine.weight"] + p["combine.bias"]
    return float((hidden @ p["out.weight"] + p["out.bias"])[0])


def cam_offset_problems(prediction: float, cam_values: np.ndarray, offset: float, tag: str) -> list[str]:
    got = prediction - float(np.mean(cam_values))
    if abs(got - offset) > 1e-9 * max(1.0, abs(prediction)):
        return [f"{tag}: prediction minus mean cam is {got!r}, model offset {offset!r}"]
    return []


def completeness_problems(total: float, delta: float, allowed: float, tag: str) -> list[str]:
    """Integrated gradients sum to f(x) - f(0), up to the quadrature error."""
    if abs(total - delta) > allowed:
        return [f"{tag}: attributions sum to {total!r}, f(x) - f(0) is {delta!r} (allowed error {allowed:.2e})"]
    return []


def enumerated_wilcoxon(x, y) -> tuple[float, float] | None:
    """(W, two-sided p) by listing every sign assignment; None below 5 pairs."""
    from scipy.stats import rankdata

    d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    d = d[d != 0.0]
    if d.size < 5:
        return None
    ranks = rankdata(np.abs(d))
    w_plus = ranks[d > 0].sum()
    w = min(w_plus, ranks.sum() - w_plus)
    hits = 0
    for signs in itertools.product((0, 1), repeat=d.size):
        plus = float(np.dot(signs, ranks))
        if min(plus, ranks.sum() - plus) <= w + 1e-9:
            hits += 1
    return float(w), hits / 2 ** d.size


def direction_score(pair, values_i, values_j) -> int:
    u_i, u_j = pair.uncommon_mask_i, pair.uncommon_mask_j
    s_i = float(values_i[u_i].mean()) if u_i.any() else 0.0
    s_j = float(values_j[u_j].mean()) if u_j.any() else 0.0
    gap = np.sign(s_i - s_j)
    return int(gap != 0 and gap == np.sign(pair.y_i - pair.y_j))


def sweep_problems(report, pairs, values_a, values_b) -> list[str]:
    """Recompute every cell mean and every signed-rank p-value of a sweep."""
    problems = []
    for method, sweep in report.methods.items():
        for cell in sweep.cells:
            kept = [p for p in pairs if p.mcs_fraction >= cell.threshold]
            if len(kept) != cell.n_pairs:
                problems.append(f"{method}@{cell.threshold}: {cell.n_pairs} pairs, expected {len(kept)}")
                continue
            for values, got in ((values_a, cell.mean_a), (values_b, cell.mean_b)):
                if not kept:
                    if got is not None:
                        problems.append(f"{method}@{cell.threshold}: mean of no pairs")
                    continue
                want = float(np.mean([
                    direction_score(p, values[p.compound_i][method], values[p.compound_j][method])
                    for p in kept
                ]))
                if got is None or abs(got - want) > 1e-12:
                    problems.append(f"{method}@{cell.threshold}: mean {got!r}, recomputed {want!r}")
        means_a = [c.mean_a for c in sweep.cells if c.n_pairs]
        means_b = [c.mean_b for c in sweep.cells if c.n_pairs]
        reference = enumerated_wilcoxon(means_b, means_a)
        if reference is None:
            if sweep.wilcoxon is not None:
                problems.append(f"{method}: signed-rank test on fewer than 5 differences")
        elif sweep.wilcoxon is None:
            problems.append(f"{method}: signed-rank test missing ({sweep.degenerate_reason})")
        else:
            w, p = reference
            if abs(sweep.wilcoxon.statistic - w) > 1e-9 or abs(sweep.wilcoxon.p_value - p) > 1e-12:
                problems.append(
                    f"{method}: W {sweep.wilcoxon.statistic} p {sweep.wilcoxon.p_value!r}, "
                    f"enumeration gives W {w} p {p!r}")
    return problems


def svg_problems(svg: str, num_atoms: int, tag: str) -> list[str]:
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return [f"{tag}: SVG is not XML ({exc})"]
    circles = root.findall("{http://www.w3.org/2000/svg}circle")
    if len(circles) != num_atoms:
        return [f"{tag}: {len(circles)} circles for {num_atoms} atoms"]
    return []
