"""Set up, run, check and report one workload."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import tempfile
import time

import numpy as np

from . import tracing
from .workloads import WORKLOADS

# Every workload reports all of these (see README: one name, a meaning per workload).
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
              "latency_ms_p50": "ms", "latency_ms_p90": "ms"}
# Set-up runs at least this many times, and until the set-ups have taken this
# long in all; ``setup_s`` is their median. The host slows for a fraction of a
# second every few seconds, so a set-up of a millisecond (``mine``) needs many
# repeats for the median not to land in one such slowdown.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0


def layer_metrics(tracer: tracing.Tracer, figures: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric; layers a workload never calls read 0."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    updates = figures.get("pair_updates", 0)
    candidates = int(counts["pairs.candidates"])
    requests = figures.get("attribution.requests", 0)

    def per(total: float, base: int) -> float:
        return total / base if base else 0.0

    return {
        "molgraph.parse_calls": (calls["molgraph.parse"], "count"),
        "molgraph.parse_s": (self_s["molgraph.parse"], "s"),
        "molgraph.featurize_calls": (calls["molgraph.featurize"], "count"),
        "molgraph.featurize_s": (self_s["molgraph.featurize"], "s"),
        "pairs.candidates": (candidates, "count"),
        "pairs.mcs_calls": (calls["pairs.mcs"], "count"),
        "pairs.mcs_s": (self_s["pairs.mcs"], "s"),
        "pairs.mcs_truncated": (int(counts["pairs.mcs_truncated"]), "count"),
        "pairs.kept_ratio": (per(figures.get("pairs.kept", 0), candidates), "1"),
        "pairs.io_s": (self_s["pairs.io"], "s"),
        "model.forward_train_calls": (calls["model.forward_train"], "count"),
        "model.forward_train_s": (self_s["model.forward_train"], "s"),
        "model.flops_per_update": (figures.get("model.flops_per_update", 0.0), "flop"),
        "model.forward_eval_calls": (calls["model.forward_eval"], "count"),
        "model.forward_eval_s": (self_s["model.forward_eval"], "s"),
        "autodiff.ops_per_update": (per(counts["autodiff.update_ops"], updates), "count"),
        "autodiff.ops_per_request": (per(counts["autodiff.request_ops"], requests), "count"),
        "autodiff.backward_calls": (calls["autodiff.backward"], "count"),
        "autodiff.backward_s": (self_s["autodiff.backward"], "s"),
        "losses.pair_loss_s": (self_s["losses.pair_loss"], "s"),
        "losses.prox_calls": (calls["losses.prox"], "count"),
        "losses.prox_s": (self_s["losses.prox"], "s"),
        "training.adam_s": (self_s["training.adam"], "s"),
        "training.validation_s": (self_s["training.validation"], "s"),
        "training.evaluate_s": (self_s["training.evaluate"], "s"),
        "training.checkpoint_s": (self_s["training.checkpoint"], "s"),
        "training.checkpoint_bytes": (figures.get("training.checkpoint_bytes", 0), "B"),
        "training.test_rmse": (figures.get("training.test_rmse", 0.0), "pIC50"),
        "training.test_pcc": (figures.get("training.test_pcc", 0.0), "1"),
        "attribution.requests": (requests, "count"),
        "attribution.attribute_s": (self_s["attribution.attribute"], "s"),
        "attribution.forward_calls_per_request": (per(counts["model.request_forwards"], requests), "count"),
        "evaluation.sweep_s": (self_s["evaluation.sweep"], "s"),
        "evaluation.wilcoxon_calls": (calls["evaluation.wilcoxon"], "count"),
        "evaluation.gdir_gl": (figures.get("evaluation.gdir_gl", 0.0), "1"),
        "render.svg_calls": (calls["render.svg"], "count"),
        "render.svg_s": (self_s["render.svg"], "s"),
        "render.svg_bytes": (int(counts["render.svg_bytes"]), "B"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="the run length the workloads are sized for; each does one fixed "
                             "pass of about this length on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, workdir: str, out_dir: str) -> int:
    cls = WORKLOADS[args.workload]
    setup_times = []
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        # A fresh directory each time: truncating an existing file can cost
        # tens of milliseconds on file systems that discard freed blocks.
        workload = cls(args.seed, tempfile.mkdtemp(prefix="setup-", dir=workdir))
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)

    tracer = tracing.Tracer() if args.trace else None
    with tracer if tracer else contextlib.nullcontext():
        result = workload.run(tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = workload.problems()

    attempted, failed, latencies = result.ops, result.failed, result.latencies_ms
    if not latencies:
        print(f"perfbench: every operation of {args.workload} failed")
        return 1
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": (attempted - failed) / result.busy_s,
        "latency_ms_p50": float(np.percentile(latencies, 50)),
        "latency_ms_p90": float(np.percentile(latencies, 90)),
    }
    end_to_end = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          f"nproc {os.cpu_count()} OPENBLAS_NUM_THREADS {os.environ.get('OPENBLAS_NUM_THREADS')} "
          f"CLIFFKIT_THREADS {os.environ.get('CLIFFKIT_THREADS', 'unset')}")
    named = {
        workload.ops_name: end_to_end["ops_per_s"],
        workload.latency_name + "_p50": end_to_end["latency_ms_p50"],
        workload.latency_name + "_p90": end_to_end["latency_ms_p90"],
        "setup_runs": (len(setup_times), "count"),
    }
    named.update(workload.figures())
    for name, (value, unit) in named.items():
        print(f"# {name} {value} {unit}")
    for problem in problems[:50]:
        print(f"# problem: {problem}")
    if len(problems) > 50:
        print(f"# problem: ... {len(problems) - 50} more")

    if tracer:
        metrics = layer_metrics(tracer, workload.layer_figures())
        tracer.write_spans(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = end_to_end
    report = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(report))
    return 0


def main(argv, root: str) -> int:
    args = parse_args(argv)
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_dir)
    try:
        return run(args, workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
