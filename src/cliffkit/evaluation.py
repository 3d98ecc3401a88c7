"""Regression metrics, directional attribution scores, and the sweep.

The paired Wilcoxon signed-rank test drops zero differences, mid-ranks
ties, and takes ``W = min(W+, W-)``. Up to 25 effective samples the
two-sided p-value is exact: it is the probability, under uniform random
signs on the observed absolute ranks, that the min statistic is at most
the observed one (computed by tabulating the full distribution of W+).
Larger samples use the normal approximation with tie-corrected variance
and a continuity correction.

The threshold sweep compares two models: pairs are filtered at each
overlap threshold, the per-pair direction score is averaged per cell,
and the per-threshold means of the two models feed a paired Wilcoxon
test per attribution method.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .attribution import AttributionConfig, DEFAULT_CONFIG, attribute_all
from .model import MpnnModel
from .pairs import CliffPair, filter_by_threshold

DEFAULT_THRESHOLDS = tuple(round(0.5 + 0.05 * k, 2) for k in range(10))

# Largest effective sample whose Wilcoxon p-value is enumerated exactly.
_EXACT_LIMIT = 25


class ConstantSeriesError(ValueError):
    """Correlation is undefined because one series has zero variance."""


class DegenerateComparisonError(ValueError):
    """Too few informative differences for a signed-rank test."""


def rmse(predictions, targets) -> float:
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape or predictions.ndim != 1 or predictions.size == 0:
        raise ValueError("rmse needs two equal-length non-empty 1-D series")
    return float(np.sqrt(np.mean((predictions - targets) ** 2)))


def pcc(predictions, targets) -> float:
    """Pearson correlation; raises :class:`ConstantSeriesError` when undefined."""
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if predictions.shape != targets.shape or predictions.ndim != 1 or predictions.size < 2:
        raise ValueError("pcc needs two equal-length series with at least 2 points")
    dp = predictions - predictions.mean()
    dt = targets - targets.mean()
    denom = np.sqrt((dp * dp).sum() * (dt * dt).sum())
    if denom == 0.0:
        raise ConstantSeriesError("correlation undefined: a series is constant")
    return float((dp * dt).sum() / denom)


@dataclass(frozen=True)
class TargetMetrics:
    rmse: float
    pcc: float
    n_pairs: int


@dataclass(frozen=True)
class MetricReport:
    """Per-target metrics plus equal-weight and pair-count-weighted averages."""

    targets: dict[str, TargetMetrics]
    avg_rmse: float
    avg_pcc: float
    weighted_rmse: float
    weighted_pcc: float

    def to_dict(self) -> dict:
        out = asdict(self)
        out["targets"] = dict(sorted(out["targets"].items()))
        return out


def aggregate_metrics(per_target: dict[str, TargetMetrics]) -> MetricReport:
    if not per_target:
        raise ValueError("no per-target metrics to aggregate")
    rmses = np.array([m.rmse for m in per_target.values()])
    pccs = np.array([m.pcc for m in per_target.values()])
    weights = np.array([m.n_pairs for m in per_target.values()], dtype=np.float64)
    if weights.sum() <= 0:
        raise ValueError("pair counts must be positive")
    return MetricReport(
        targets=dict(per_target),
        avg_rmse=float(rmses.mean()),
        avg_pcc=float(pccs.mean()),
        weighted_rmse=float((rmses * weights).sum() / weights.sum()),
        weighted_pcc=float((pccs * weights).sum() / weights.sum()),
    )


def global_direction(pair: CliffPair, node_values_i, node_values_j) -> int:
    """1 when the uncommon-atom attribution gap points the same way as the
    activity gap, else 0. A zero gap on either side counts as a miss."""
    node_values_i = np.asarray(node_values_i, dtype=np.float64)
    node_values_j = np.asarray(node_values_j, dtype=np.float64)
    if node_values_i.shape != (pair.graph_i.num_atoms,):
        raise ValueError("node values for compound i have the wrong length")
    if node_values_j.shape != (pair.graph_j.num_atoms,):
        raise ValueError("node values for compound j have the wrong length")
    u_i = pair.uncommon_mask_i
    u_j = pair.uncommon_mask_j
    s_i = float(node_values_i[u_i].mean()) if u_i.any() else 0.0
    s_j = float(node_values_j[u_j].mean()) if u_j.any() else 0.0
    lhs = np.sign(s_i - s_j)
    rhs = np.sign(pair.y_i - pair.y_j)
    return int(lhs != 0 and lhs == rhs)


def atom_accuracy(node_values, truth_values) -> float | None:
    """Sign agreement over atoms with nonzero reference labels.

    Attribution exactly zero on a labeled atom is a miss. Returns None
    when no atom carries a nonzero label (accuracy is undefined).
    """
    node_values = np.asarray(node_values, dtype=np.float64)
    truth_values = np.asarray(truth_values, dtype=np.float64)
    if node_values.shape != truth_values.shape:
        raise ValueError("value and label lengths differ")
    labeled = truth_values != 0
    if not labeled.any():
        return None
    agree = np.sign(node_values[labeled]) == np.sign(truth_values[labeled])
    return float(agree.mean())


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank

@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float
    p_value: float
    n_effective: int
    exact: bool


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _exact_p_value(double_ranks: list[int], w_min_doubled: int) -> float:
    """P(min(W+, W-) <= observed) under uniform random signs.

    Ranks arrive doubled to integers so mid-ranks cost no precision; the
    distribution of 2*W+ is tabulated by direct convolution, and the two
    tails are combined with their overlap removed.
    """
    total = sum(double_ranks)
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in double_ranks:
        counts[r:] += counts[:-r].copy()
    low = counts[: w_min_doubled + 1].sum()
    high_start = total - w_min_doubled
    high = counts[high_start:].sum()
    overlap = 0.0
    if high_start <= w_min_doubled:
        overlap = counts[high_start : w_min_doubled + 1].sum()
    return float((low + high - overlap) / counts.sum())


def wilcoxon_signed_rank(x, y) -> WilcoxonResult:
    """Two-sided paired signed-rank test of ``x`` against ``y``.

    Zero differences are dropped; at least 5 informative pairs must
    remain. Ties among absolute differences get mid-ranks. Exact
    enumeration up to 25 effective samples, normal approximation with
    tie correction and continuity correction beyond.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("wilcoxon needs two equal-length 1-D series")
    d = x - y
    d = d[d != 0.0]
    n = d.size
    if n < 5:
        raise DegenerateComparisonError(
            f"only {n} nonzero differences; at least 5 are required"
        )
    ranks = _midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    if n <= _EXACT_LIMIT:
        double_ranks = [int(round(2 * r)) for r in ranks]
        p = _exact_p_value(double_ranks, int(round(2 * w)))
        return WilcoxonResult(w, min(1.0, p), n, True)
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    var -= float((tie_counts.astype(np.float64) ** 3 - tie_counts).sum()) / 48.0
    if var <= 0:
        raise DegenerateComparisonError("variance vanished after tie correction")
    z = (w - mean + 0.5) / math.sqrt(var)
    p = min(1.0, 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0)))
    return WilcoxonResult(w, p, n, False)


# ---------------------------------------------------------------------------
# Threshold sweep

@dataclass(frozen=True)
class SweepCell:
    threshold: float
    n_pairs: int
    mean_a: float | None
    mean_b: float | None


@dataclass(frozen=True)
class MethodSweep:
    method: str
    cells: tuple[SweepCell, ...]
    sweep_mean_a: float | None
    sweep_mean_b: float | None
    percent_change: float | None
    wilcoxon: WilcoxonResult | None
    degenerate_reason: str | None = None


@dataclass(frozen=True)
class DirectionReport:
    thresholds: tuple[float, ...]
    methods: dict[str, MethodSweep]

    def to_dict(self) -> dict:
        methods = {
            name: {k: v for k, v in asdict(sweep).items() if k != "method"}
            for name, sweep in sorted(self.methods.items())
        }
        return {"thresholds": list(self.thresholds), "methods": methods}


def collect_node_values(
    pairs, model: MpnnModel, methods, config: AttributionConfig = DEFAULT_CONFIG
) -> dict[str, dict[str, np.ndarray]]:
    """Node-level attribution vectors per unique compound and method.

    Maps are pair-independent, so each compound is attributed once even
    when it occurs in many pairs. Edge-carrying methods are already
    folded to node level here.
    """
    values: dict[str, dict[str, np.ndarray]] = {}
    for pair in pairs:
        for compound_id, graph in (
            (pair.compound_i, pair.graph_i),
            (pair.compound_j, pair.graph_j),
        ):
            if compound_id in values:
                continue
            maps = attribute_all(model, graph, methods, config)
            values[compound_id] = {m: maps[m].node_level(graph.features[2]) for m in methods}
    return values


def _direction_scores(
    pairs, node_values: dict[str, dict[str, np.ndarray]], methods
) -> dict[str, dict[str, float]]:
    """pair_id -> method -> direction score from precomputed node values."""
    scores: dict[str, dict[str, float]] = {}
    for pair in pairs:
        values_i = node_values[pair.compound_i]
        values_j = node_values[pair.compound_j]
        scores[pair.pair_id] = {
            method: global_direction(pair, values_i[method], values_j[method])
            for method in methods
        }
    return scores


def threshold_sweep(
    pairs,
    model_a: MpnnModel,
    model_b: MpnnModel,
    methods=("cam", "gradcam", "gradinput", "ig"),
    thresholds=DEFAULT_THRESHOLDS,
    config: AttributionConfig = DEFAULT_CONFIG,
    node_values_a: dict | None = None,
    node_values_b: dict | None = None,
) -> DirectionReport:
    """Mean direction score of both models across the overlap threshold grid.

    Thresholds that keep no pairs are recorded with ``n_pairs=0`` and no
    means; they do not enter the paired test. A degenerate Wilcoxon
    comparison (for example, two identical models) is reported with a
    reason instead of a p-value. Callers that already hold node values
    from :func:`collect_node_values` can pass them to skip recomputation.
    """
    thresholds = tuple(float(t) for t in thresholds)
    if not thresholds or list(thresholds) != sorted(thresholds):
        raise ValueError("thresholds must be a non-empty ascending sequence")
    if node_values_a is None:
        node_values_a = collect_node_values(pairs, model_a, methods, config)
    if node_values_b is None:
        node_values_b = collect_node_values(pairs, model_b, methods, config)
    scores_a = _direction_scores(pairs, node_values_a, methods)
    scores_b = _direction_scores(pairs, node_values_b, methods)
    sweeps: dict[str, MethodSweep] = {}
    for method in methods:
        cells: list[SweepCell] = []
        means_a: list[float] = []
        means_b: list[float] = []
        for t in thresholds:
            surviving = filter_by_threshold(pairs, t)
            if not surviving:
                cells.append(SweepCell(t, 0, None, None))
                continue
            a = float(np.mean([scores_a[p.pair_id][method] for p in surviving]))
            b = float(np.mean([scores_b[p.pair_id][method] for p in surviving]))
            cells.append(SweepCell(t, len(surviving), a, b))
            means_a.append(a)
            means_b.append(b)
        if means_a:
            sweep_a = float(np.mean(means_a))
            sweep_b = float(np.mean(means_b))
            change = None if sweep_a == 0.0 else 100.0 * (sweep_b - sweep_a) / sweep_a
        else:
            sweep_a = sweep_b = change = None
        wilcoxon = None
        reason = None
        try:
            wilcoxon = wilcoxon_signed_rank(np.array(means_b), np.array(means_a))
        except ValueError as exc:  # DegenerateComparisonError among others
            reason = str(exc)
        sweeps[method] = MethodSweep(
            method=method,
            cells=tuple(cells),
            sweep_mean_a=sweep_a,
            sweep_mean_b=sweep_b,
            percent_change=change,
            wilcoxon=wilcoxon,
            degenerate_reason=reason,
        )
    return DirectionReport(thresholds, sweeps)
