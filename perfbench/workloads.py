"""The three workloads: mine, train and explain.

Each workload builds its inputs from the seed in ``setup``, does one fixed
pass of timed work in ``run`` and checks every output afterwards in
``problems``.
Package functions are looked up on their modules at call time, so a
tracer installed around the timed part sees the benchmark's calls too.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from cliffkit import attribution as A
from cliffkit import evaluation as E
from cliffkit import model as M
from cliffkit import molgraph as G
from cliffkit import pairs as P
from cliffkit import render as R
from cliffkit import training as T
from cliffkit import losses as L
from cliffkit.autodiff import Tape

from . import analogs, checks


@dataclass
class Result:
    """What the timed pass did: operations, failures and timings."""

    ops: int
    failed: int
    busy_s: float
    latencies_ms: list[float]


class Workload:
    name = ""
    # what ``ops_per_s`` and the latency percentiles are called on this workload
    ops_name = ""
    latency_name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, tracer) -> Result:
        """The timed pass: one fixed amount of work."""
        raise NotImplementedError

    def problems(self) -> list[str]:
        raise NotImplementedError

    def figures(self) -> dict[str, tuple[float, str]]:
        """The workload's own end-to-end figures, named as in the README."""
        raise NotImplementedError

    def layer_figures(self) -> dict[str, float]:
        """Per-layer figures the benchmark knows without tracing."""
        return {}


# ---------------------------------------------------------------------------

class Mine(Workload):
    """Read a compounds CSV, mine cliff pairs, write and read back the JSONL."""

    name = "mine"
    ops_name = "candidates_per_s"
    latency_name = "table_ms"
    pair_config = P.PairGenConfig()

    def make_table(self) -> analogs.AnalogTable:
        return analogs.generate_table(self.seed)

    def setup(self) -> None:
        self.table = self.make_table()
        self.csv_path = os.path.join(self.workdir, "compounds.csv")
        self.table.write_csv(self.csv_path)
        self.outcome = None

    def run(self, tracer) -> Result:
        jsonl_path = os.path.join(self.workdir, "pairs.jsonl")
        # The benchmark's own count, so that a pass that raises fails them all.
        candidates = len(checks.gated_candidates(checks.csv_activities(self.csv_path), self.pair_config))
        started = time.perf_counter()
        try:
            records, skipped = P.read_compounds_csv(self.csv_path)
            pairs = P.generate_cliff_pairs(records, self.pair_config)
            P.write_pairs_jsonl(jsonl_path, pairs)
            read_back, _ = P.read_pairs_jsonl(jsonl_path)
        except Exception as exc:  # counted as failed operations
            self.outcome = repr(exc)
            return Result(candidates, candidates, time.perf_counter() - started, [])
        elapsed = time.perf_counter() - started
        self.outcome = (candidates, pairs, read_back, skipped)
        return Result(candidates, 0, elapsed, [elapsed * 1000.0])

    def problems(self) -> list[str]:
        if not isinstance(self.outcome, tuple):
            return []
        _, pairs, read_back, skipped = self.outcome
        out = [f"{len(skipped)} SMILES did not parse"] if skipped else []
        return out + checks.mine_problems(self.table, self.csv_path, pairs, read_back, self.pair_config)

    def figures(self) -> dict[str, tuple[float, str]]:
        if not isinstance(self.outcome, tuple):
            return {}
        candidates, pairs, _, _ = self.outcome
        return {"candidates": (candidates, "count"), "kept_pairs": (len(pairs), "count")}

    def layer_figures(self) -> dict[str, float]:
        if not isinstance(self.outcome, tuple):
            return {}
        return {"pairs.kept": len(self.outcome[1])}


# ---------------------------------------------------------------------------

class Train(Workload):
    """Fixed-epoch n-sgl training at the CLI's default model size, then test."""

    name = "train"
    ops_name = "pair_updates_per_s"
    latency_name = "job_ms"
    data = dict(n_scaffolds=4, n_decorations=15, scaffolds_per_target=4)
    pair_config = P.PairGenConfig()
    model_config = M.ModelConfig()  # the CLI's default size
    epochs = 2

    def setup(self) -> None:
        # The planted set itself is fixed (734 pairs); the seed picks the split,
        # the initial weights and the order pairs are visited in.
        data = P.generate_synthetic_dataset(P.SyntheticConfig(seed=0, **self.data))
        pairs = P.generate_cliff_pairs(list(data.compounds), self.pair_config)
        self.split = P.split_pairs(pairs, seed=self.seed)
        self.initial = M.init_parameters(self.model_config, seed=self.seed)
        self.loss_config = L.LossConfig(variant="n-sgl")
        # patience above the epoch count: early stopping never fires
        self.train_config = T.TrainConfig(max_epochs=self.epochs, patience=self.epochs + 1, seed=self.seed)
        self.outcome = None

    def run(self, tracer) -> Result:
        updates = self.epochs * len(self.split.train)
        path = os.path.join(self.workdir, "model.ckpt")
        started = time.perf_counter()
        try:
            best, report = T.train(self.initial, self.split, self.loss_config, self.train_config)
            trained = time.perf_counter()
            evaluation = T.evaluate_split(best, self.split.test)
            T.save_checkpoint(path, best, self.loss_config)
            loaded, loaded_loss, _ = T.load_checkpoint(path)
        except Exception as exc:  # counted as failed operations, reported below
            self.outcome = repr(exc)
            return Result(updates, updates, time.perf_counter() - started, [])
        finished = time.perf_counter()
        with open(path, "rb") as fh:
            blob = fh.read()
        self.outcome = (best, report, evaluation, loaded, loaded_loss, blob)
        return Result(updates, 0, trained - started, [(finished - started) * 1000.0])

    def _loss(self, model, pair, grads: bool = False):
        tape = Tape()
        binding = M.ModelBinding(model, tape)
        traces = [
            M.forward(model, g, c, u, train=True, tape=tape, binding=binding)
            for g, c, u in ((pair.graph_i, pair.common_mask_i, pair.uncommon_mask_i),
                            (pair.graph_j, pair.common_mask_j, pair.uncommon_mask_j))
        ]
        loss = L.pair_loss(traces[0], traces[1], pair.y_i, pair.y_j, self.loss_config)
        if not grads:
            return float(loss.value)
        return float(loss.value), binding.gradient_by_name(tape.backward(loss))

    def gradient_checks(self, model, samples: int = 3, directions: int = 2, eps: float = 1e-5):
        """(tag, analytic, numeric) directional derivatives of ``pair_loss``."""
        rng = np.random.default_rng([self.seed, 1])
        out = []
        for k in rng.choice(len(self.split.train), size=samples, replace=False):
            pair = self.split.train[int(k)]
            _, grads = self._loss(model, pair, grads=True)
            for d in range(directions):
                direction = {n: rng.normal(size=p.value.shape) for n, p in model.params.items()}
                norm = math.sqrt(sum(float((v * v).sum()) for v in direction.values()))
                analytic = sum(float((grads[n] * v).sum()) for n, v in direction.items()) / norm
                values = []
                for sign in (1.0, -1.0):
                    shifted = model.copy()
                    for n, v in direction.items():
                        shifted.params[n].value = shifted.params[n].value + sign * eps * v / norm
                    values.append(self._loss(shifted, pair))
                out.append((f"{pair.pair_id} direction {d}", analytic, (values[0] - values[1]) / (2 * eps)))
        return out

    def problems(self) -> list[str]:
        if not isinstance(self.outcome, tuple):
            return []
        best, report, evaluation, loaded, loaded_loss, blob = self.outcome
        out = []
        if report.epochs_run != self.epochs or report.stopped_early:
            out.append(f"training ran {report.epochs_run} epochs, expected {self.epochs}")
        for tag, analytic, numeric in self.gradient_checks(best):
            out += checks.gradient_problems(analytic, numeric, tag)
        out += checks.split_metric_problems(evaluation, self.split.test, *self._test_metrics())
        out += checks.checkpoint_problems(best, loaded, blob, T.checkpoint_bytes(loaded, loaded_loss))
        return out

    def _test_metrics(self) -> tuple[float, float]:
        evaluation = self.outcome[2]
        return evaluation.rmse, E.pcc(evaluation.predictions, evaluation.targets)

    def figures(self) -> dict[str, tuple[float, str]]:
        if not isinstance(self.outcome, tuple):
            return {}
        rmse, pcc = self._test_metrics()
        return {"test_rmse": (rmse, "pIC50"), "test_pcc": (pcc, "1"),
                "train_pairs": (len(self.split.train), "count")}

    def layer_figures(self) -> dict[str, float]:
        out = {"model.flops_per_update": flops_per_update(self.initial.config, self.split.train),
               "pair_updates": self.epochs * len(self.split.train)}
        if isinstance(self.outcome, tuple):
            rmse, pcc = self._test_metrics()
            out.update({"training.test_rmse": rmse, "training.test_pcc": pcc,
                        "training.checkpoint_bytes": len(self.outcome[5])})
        return out


def flops_per_update(config, pairs) -> float:
    """Floating-point operations of one pair update, computed from array shapes.

    Counts the dense products of the forward pass (two flops per
    multiply-add) for both molecules, and twice that for the backward
    pass, which forms one product for each operand; elementwise work is
    left out. Averaged over ``pairs``.
    """
    h, layers = config.hidden_dim, config.message_layers
    total = 0.0
    for pair in pairs:
        for graph in (pair.graph_i, pair.graph_j):
            n, e = graph.num_atoms, 2 * len(graph.bonds)
            macs = n * config.atom_feature_width * h + e * config.bond_feature_width * h
            macs += layers * (n * h * h + e * h * h * h + e * h * h)
            macs += 2 * h * h + 2 * h + 2 * h * h + h  # heads, scalarize, combine, out
            total += 3 * 2 * macs
    return total / len(pairs)


# ---------------------------------------------------------------------------

# (key, variant, lam) at the acceptance study's settings
EXPLAIN_MODELS = (("n", "n", 0.0), ("n-gl", "n-gl", 0.3))
IG_STEPS = 64


class Explain(Workload):
    """One client asks, per model and test compound, for a full explanation."""

    name = "explain"
    ops_name = "requests_per_s"
    latency_name = "request_ms"
    data = dict(n_scaffolds=8, n_decorations=26, scaffolds_per_target=1)
    pair_config = P.PairGenConfig()
    epochs = 2
    check_steps = 2048

    def setup(self) -> None:
        data = P.generate_synthetic_dataset(P.SyntheticConfig(seed=self.seed, **self.data))
        pairs = P.generate_cliff_pairs(list(data.compounds), self.pair_config)
        self.split = P.split_pairs(pairs, seed=self.seed)
        self.models = {}
        for key, variant, lam in EXPLAIN_MODELS:
            initial = M.init_parameters(M.ModelConfig(hidden_dim=8), seed=self.seed)
            self.models[key], _ = T.train(
                initial, self.split, L.LossConfig(variant=variant, lam=lam),
                T.TrainConfig(learning_rate=7e-3, beta2=0.99, max_epochs=self.epochs,
                              patience=self.epochs + 1, seed=self.seed))
        graphs = {}
        for p in self.split.test:
            graphs[p.compound_i] = p.graph_i
            graphs[p.compound_j] = p.graph_j
        self.graphs = graphs
        requests = [(key, cid) for key, _, _ in EXPLAIN_MODELS for cid in sorted(graphs)]
        order = np.random.default_rng([self.seed, 2]).permutation(len(requests))
        self.requests = [requests[k] for k in order]
        self.answers: list[tuple] = []
        self.report = None

    def run(self, tracer) -> Result:
        config = A.AttributionConfig(ig_steps=IG_STEPS)
        values = {key: {} for key, _, _ in EXPLAIN_MODELS}
        latencies = []
        failed = 0
        started = time.perf_counter()
        for number, (key, cid) in enumerate(self.requests):
            model, graph = self.models[key], self.graphs[cid]
            if tracer:
                tracer.request = number
            t0 = time.perf_counter()
            try:
                prediction = M.predict_affinity(model, graph)
                maps = A.attribute_all(model, graph, A.METHODS, config)
                _, edge_index = G.bond_features(graph)
                folded = {m: maps[m].node_level(edge_index) for m in A.METHODS}
                svg = R.render_molecule_svg(graph, folded["ig"], cid, f"{key} {cid} ig")
            except Exception as exc:  # counted as a failed request, reported below
                failed += 1
                self.answers.append((key, cid, repr(exc)))
                continue
            finally:
                if tracer:
                    tracer.request = None
            latencies.append((time.perf_counter() - t0) * 1000.0)
            values[key][cid] = folded
            self.answers.append((key, cid, (prediction, maps, svg)))
        if not failed:
            self.values = values
            a, b = (key for key, _, _ in EXPLAIN_MODELS)
            self.report = E.threshold_sweep(
                list(self.split.test), self.models[a], self.models[b], A.METHODS,
                E.DEFAULT_THRESHOLDS, config, node_values_a=values[a], node_values_b=values[b])
        return Result(len(self.requests), failed, time.perf_counter() - started, latencies)

    def problems(self) -> list[str]:
        out = []
        offsets = {key: checks.readout_offset(model) for key, model in self.models.items()}
        answered = [(k, c, a) for k, c, a in self.answers if isinstance(a, tuple)]
        for key, cid, (prediction, maps, svg) in answered:
            tag = f"{key}/{cid}"
            n = self.graphs[cid].num_atoms
            if any(maps[m].node_values.shape != (n,) for m in A.METHODS):
                out.append(f"{tag}: attribution length differs from the atom count")
                continue
            out += checks.cam_offset_problems(prediction, maps["cam"].node_values, offsets[key], tag)
            out += checks.svg_problems(svg, n, tag)
        for tag, analytic, numeric in self.gradinput_checks(answered):
            out += checks.gradient_problems(analytic, numeric, tag)
        for tag, total, delta, allowed in self.completeness_checks():
            out += checks.completeness_problems(total, delta, allowed, tag)
        if self.report is not None:
            a, b = (key for key, _, _ in EXPLAIN_MODELS)
            out += checks.sweep_problems(self.report, list(self.split.test), self.values[a], self.values[b])
        return out

    def _features(self, cid):
        graph = self.graphs[cid]
        e_array, edge_index = G.bond_features(graph)
        return G.atom_features(graph), e_array, edge_index, np.ones(graph.num_atoms, dtype=bool)

    def gradinput_checks(self, answered, requests: int = 8, atoms: int = 2, eps: float = 1e-6):
        """(tag, gradient x input, central difference along the atom's own row)."""
        rng = np.random.default_rng([self.seed, 3])
        out = []
        for k in rng.choice(len(answered), size=min(requests, len(answered)), replace=False):
            key, cid, (_, maps, _) = answered[int(k)]
            x, e, edge_index, mask = self._features(cid)
            for v in rng.choice(len(x), size=min(atoms, len(x)), replace=False):
                step = np.zeros_like(x)
                step[v] = eps * x[v]
                up, down = (
                    M.forward_from_arrays(self.models[key], x + s * step, e, edge_index, mask, mask).prediction
                    for s in (1.0, -1.0)
                )
                out.append((f"{key}/{cid} atom {v}", float(maps["gradinput"].node_values[v]), (up - down) / (2 * eps)))
        return out

    def completeness_checks(self, per_model: int = 1):
        """(tag, integrated-gradient total, f(x) - f(0), allowed error) per sampled compound.

        The package sums path gradients with a right Riemann rule, so the
        total misses f(x) - f(0) by at most the variation of the path's
        slope divided by the step count. The benchmark samples f along the
        same path itself and allows twice that much.
        """
        rng = np.random.default_rng([self.seed, 4])
        cids = sorted(self.graphs)
        steps = self.check_steps
        out = []
        for key, model in self.models.items():
            for k in rng.choice(len(cids), size=per_model, replace=False):
                cid = cids[int(k)]
                x, e, edge_index, mask = self._features(cid)
                amap = A.attribute(model, self.graphs[cid], "ig", A.AttributionConfig(ig_steps=steps))
                total = float(amap.node_values.sum() + amap.edge_values.sum())
                path = np.array([
                    M.forward_from_arrays(model, t * x, t * e, edge_index, mask, mask).prediction
                    for t in np.arange(steps + 1) / steps
                ])
                slopes = np.diff(path) * steps
                allowed = 2.0 * float(np.abs(np.diff(slopes)).sum()) / steps + 1e-9 * max(1.0, abs(path[-1]))
                out.append((f"{key}/{cid} ig", total, float(path[-1] - path[0]), allowed))
        return out

    def gdir_gl(self) -> float:
        sweeps = self.report.methods.values()
        return float(np.mean([s.sweep_mean_b for s in sweeps]))

    def figures(self) -> dict[str, tuple[float, str]]:
        if self.report is None:
            return {}
        return {"gdir_gl": (self.gdir_gl(), "1"), "requests": (len(self.requests), "count")}

    def layer_figures(self) -> dict[str, float]:
        out = {"attribution.requests": len(self.requests)}
        if self.report is not None:
            out["evaluation.gdir_gl"] = self.gdir_gl()
        return out


WORKLOADS = {w.name: w for w in (Mine, Train, Explain)}
