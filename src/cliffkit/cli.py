"""Command line front door: dataset generation through rendering.

Subcommands: ``synth`` (synthetic benchmark tables), ``pairs`` (cliff
pair construction), ``train``, ``eval``, and ``render``. Every run
writes a manifest next to its primary output; the manifest hash covers
the resolved configuration, the seed, the tool version, and the content
hashes of all inputs (never filesystem paths), and each output format
embeds that hash, so reruns with identical inputs are byte-identical.

Exit codes: 0 success, 2 input error, 3 numeric failure, 4 config or
checkpoint compatibility error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .attribution import AttributionConfig, METHODS, ground_truth
from .evaluation import (
    ConstantSeriesError,
    DEFAULT_THRESHOLDS,
    DegenerateComparisonError,
    MetricReport,
    TargetMetrics,
    aggregate_metrics,
    collect_node_values,
    pcc,
    rmse,
    threshold_sweep,
)
from .losses import LossConfig, VARIANTS
from .model import CompatibilityError, ModelConfig, init_parameters
from .pairs import (
    PairGenConfig,
    SyntheticConfig,
    canonical_json,
    generate_cliff_pairs,
    generate_synthetic_dataset,
    jsonl_records,
    read_compounds_csv,
    read_pairs_jsonl,
    split_pairs,
    write_compounds_csv,
    write_jsonl,
    write_pairs_jsonl,
)
from .render import render_molecule_svg
from .training import (
    CheckpointError,
    TrainConfig,
    TrainingDivergedError,
    evaluate_split,
    load_checkpoint,
    save_checkpoint,
    train,
)

MANIFEST_SCHEMA = "run-manifest/1"
ATTRIBUTION_SCHEMA = "attribution/1"
EVAL_REPORT_SCHEMA = "eval-report/1"
TRAIN_REPORT_SCHEMA = "train-report/1"


def file_sha256(path: str) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def write_json(path: str, body: dict) -> None:
    """An indented JSON document with sorted keys."""
    with open(path, "w") as fh:
        fh.write(json.dumps(body, sort_keys=True, indent=2))
        fh.write("\n")


class Manifest:
    """Run description whose hash covers config and input content, not paths."""

    def __init__(self, subcommand: str, config: dict, seed: int | None = None):
        self.subcommand = subcommand
        self.config = config
        self.seed = seed
        self.inputs: dict[str, dict] = {}
        self.outputs: dict[str, str] = {}

    def add_input(self, label: str, path: str) -> None:
        self.inputs[label] = {"path": str(path), "sha256": file_sha256(path)}

    def add_output(self, label: str, path: str) -> None:
        self.outputs[label] = str(path)

    def _core(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "subcommand": self.subcommand,
            "tool_version": __version__,
            "seed": self.seed,
            "config": self.config,
        }

    @property
    def hash(self) -> str:
        inputs = {label: entry["sha256"] for label, entry in self.inputs.items()}
        core = {**self._core(), "inputs": inputs}
        return hashlib.sha256(canonical_json(core).encode()).hexdigest()

    def write(self, path: str) -> None:
        write_json(
            path,
            {**self._core(), "inputs": self.inputs, "outputs": self.outputs, "manifest_hash": self.hash},
        )


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}") from None


def _parse_methods(text: str) -> tuple[str, ...]:
    methods = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown attribution method {m!r}; choose from {', '.join(METHODS)}")
    if not methods:
        raise ValueError("at least one attribution method is required")
    return methods


# ---------------------------------------------------------------------------
# synth

def cmd_synth(args) -> int:
    config = SyntheticConfig(
        n_scaffolds=args.scaffolds,
        n_decorations=args.decorations,
        noise_sd=args.noise_sd,
        seed=args.seed,
        scaffolds_per_target=args.scaffolds_per_target,
    )
    manifest = Manifest("synth", config.to_dict(), seed=args.seed)
    dataset = generate_synthetic_dataset(config)
    write_compounds_csv(args.out, dataset.compounds)
    manifest.add_output("compounds", args.out)
    if args.planted_out:
        planted = {
            cid: {"base": p.base, "effect": p.effect, "noise": p.noise}
            for cid, p in sorted(dataset.planted.items())
        }
        with open(args.planted_out, "w") as fh:
            fh.write(canonical_json({"manifest_hash": manifest.hash, "planted": planted}))
            fh.write("\n")
        manifest.add_output("planted", args.planted_out)
    manifest.write(args.out + ".manifest.json")
    print(f"wrote {len(dataset.compounds)} compounds to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# pairs

def cmd_pairs(args) -> int:
    config = PairGenConfig(
        min_mcs_fraction=args.min_mcs_fraction,
        min_activity_delta=args.min_delta,
        min_pairs_per_target=args.min_pairs_per_target,
        mcs_node_budget=args.mcs_node_budget,
    )
    manifest = Manifest("pairs", {**config.to_dict(), "strict": args.strict})
    manifest.add_input("compounds", args.compounds)
    records, skipped = read_compounds_csv(args.compounds, strict=args.strict)
    for row_num, compound_id, reason in skipped:
        print(f"warning: row {row_num} ({compound_id}): {reason}", file=sys.stderr)
    pairs = generate_cliff_pairs(records, config)
    write_pairs_jsonl(args.out, pairs, manifest_hash=manifest.hash)
    manifest.add_output("pairs", args.out)
    manifest.write(args.out + ".manifest.json")
    by_target: dict[str, int] = {}
    for p in pairs:
        by_target[p.target_id] = by_target.get(p.target_id, 0) + 1
    for target_id, count in sorted(by_target.items()):
        print(f"{target_id}: {count} pairs")
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# train

def cmd_train(args) -> int:
    ratios = tuple(_parse_float_list(args.ratios))
    if len(ratios) != 3:
        raise ValueError(f"--ratios needs exactly 3 numbers, got {len(ratios)}")
    model_config = ModelConfig(hidden_dim=args.hidden_dim, message_layers=args.layers)
    loss_config = LossConfig(
        variant=args.variant,
        lam=args.lam,
        alpha=args.alpha,
        node_loss_weight=args.node_loss_weight,
    )
    train_config = TrainConfig(
        learning_rate=args.lr,
        max_epochs=args.max_epochs,
        patience=args.patience,
        min_delta=args.min_delta,
        seed=args.seed,
    )
    manifest = Manifest(
        "train",
        {
            "model": model_config.to_dict(),
            "loss": loss_config.to_dict(),
            "train": train_config.to_dict(),
            "split_seed": args.split_seed,
            "ratios": list(ratios),
        },
        seed=args.seed,
    )
    manifest.add_input("pairs", args.pairs)
    pairs, _ = read_pairs_jsonl(args.pairs)
    split = split_pairs(pairs, ratios=ratios, seed=args.split_seed)
    model = init_parameters(model_config, seed=args.seed)
    best, report = train(model, split, loss_config, train_config)
    extras = {"split_seed": args.split_seed, "ratios": list(ratios)}
    save_checkpoint(args.out, best, loss_config, manifest_hash=manifest.hash, extras=extras)
    manifest.add_output("checkpoint", args.out)
    report_path = args.report or args.out + ".report.json"
    write_json(
        report_path, {"schema": TRAIN_REPORT_SCHEMA, "manifest_hash": manifest.hash, **report.to_dict()}
    )
    manifest.add_output("report", report_path)
    manifest.write(args.out + ".manifest.json")
    print(
        f"trained variant {loss_config.variant}: best epoch {report.best_epoch}, "
        f"val rmse {report.best_val_rmse:.4f}, {report.epochs_run} epochs "
        f"({report.wall_time_s:.1f}s)"
    )
    print(f"wrote checkpoint to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval

def _metric_report(model, pairs) -> MetricReport:
    by_target: dict[str, list] = {}
    for p in pairs:
        by_target.setdefault(p.target_id, []).append(p)
    per_target: dict[str, TargetMetrics] = {}
    for target_id in sorted(by_target):
        bucket = by_target[target_id]
        evaluation = evaluate_split(model, bucket)
        per_target[target_id] = TargetMetrics(
            rmse=rmse(evaluation.predictions, evaluation.targets),
            pcc=pcc(evaluation.predictions, evaluation.targets),
            n_pairs=len(bucket),
        )
    return aggregate_metrics(per_target)


def cmd_eval(args) -> int:
    checkpoints = args.checkpoint
    if not 1 <= len(checkpoints) <= 2:
        raise ValueError("eval takes one checkpoint, or two for the paired sweep")
    if args.csv and len(checkpoints) != 2:
        raise ValueError("--csv requires two checkpoints (it reports the paired sweep)")
    thresholds = (
        tuple(_parse_float_list(args.thresholds)) if args.thresholds else DEFAULT_THRESHOLDS
    )
    methods = _parse_methods(args.methods)
    attr_config = AttributionConfig(ig_steps=args.ig_steps)
    manifest = Manifest(
        "eval",
        {
            "split": args.split,
            "thresholds": list(thresholds),
            "methods": list(methods),
            "ig_steps": args.ig_steps,
        },
    )
    manifest.add_input("pairs", args.pairs)
    for idx, ckpt in enumerate(checkpoints):
        manifest.add_input(f"checkpoint_{idx}", ckpt)

    pairs, _ = read_pairs_jsonl(args.pairs)
    models = [load_checkpoint(ckpt) for ckpt in checkpoints]

    if args.split == "test":
        extras = [h.get("extras") for _, _, h in models]
        if any(e is None for e in extras):
            raise CompatibilityError("--split test needs checkpoints that record their split")
        first = extras[0]
        if any(e != first for e in extras[1:]):
            raise CompatibilityError("checkpoints disagree on their train/test split")
        split = split_pairs(pairs, ratios=tuple(first["ratios"]), seed=first["split_seed"])
        eval_pairs = list(split.test)
    else:
        eval_pairs = pairs
    if not eval_pairs:
        raise ValueError("no pairs left to evaluate")

    report_body: dict = {"schema": EVAL_REPORT_SCHEMA, "models": []}
    digests = [model.digest() for model, _, _ in models]
    for (model, loss_config, _), ckpt, digest in zip(models, checkpoints, digests):
        metrics = _metric_report(model, eval_pairs)
        report_body["models"].append(
            {
                "checkpoint_sha256": file_sha256(ckpt),
                "model_digest": digest,
                "variant": loss_config.variant,
                "metrics": metrics.to_dict(),
            }
        )
    node_values = []
    if len(models) == 2 or args.attributions_out:
        node_values = [
            collect_node_values(eval_pairs, model, methods, attr_config) for model, _, _ in models
        ]
    if len(models) == 2:
        sweep = threshold_sweep(
            eval_pairs,
            models[0][0],
            models[1][0],
            methods=methods,
            thresholds=thresholds,
            config=attr_config,
            node_values_a=node_values[0],
            node_values_b=node_values[1],
        )
        report_body["sweep"] = sweep.to_dict()
    report_body["manifest_hash"] = manifest.hash

    write_json(args.out, report_body)
    manifest.add_output("report", args.out)

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["threshold", "method", "model", "mean_g_dir", "n_pairs"])
            for method, sweep_row in sorted(report_body["sweep"]["methods"].items()):
                for cell in sweep_row["cells"]:
                    for label, mean in (("a", cell["mean_a"]), ("b", cell["mean_b"])):
                        writer.writerow(
                            [
                                cell["threshold"],
                                method,
                                f"{label}:{digests[0 if label == 'a' else 1][:12]}",
                                "" if mean is None else repr(mean),
                                cell["n_pairs"],
                            ]
                        )
        manifest.add_output("sweep_csv", args.csv)

    if args.attributions_out:
        records = (
            {
                "schema": ATTRIBUTION_SCHEMA,
                "compound_id": compound_id,
                "method": method,
                "node_values": [float(v) for v in values[compound_id][method]],
                "checkpoint_hash": digest,
            }
            for digest, values in zip(digests, node_values)
            for compound_id in sorted(values)
            for method in methods
        )
        write_jsonl(args.attributions_out, ATTRIBUTION_SCHEMA, manifest.hash, records)
        manifest.add_output("attributions", args.attributions_out)

    manifest.write(args.out + ".manifest.json")
    for entry in report_body["models"]:
        m = entry["metrics"]
        print(
            f"{entry['variant']}: avg rmse {m['avg_rmse']:.4f}, avg pcc {m['avg_pcc']:.4f}, "
            f"weighted rmse {m['weighted_rmse']:.4f}, weighted pcc {m['weighted_pcc']:.4f}"
        )
    print(f"wrote report to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# render

def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-._" else "_" for c in name)


def cmd_render(args) -> int:
    manifest = Manifest("render", {"pair_id": args.pair_id, "model_ref": args.model_ref})
    manifest.add_input("pairs", args.pairs)
    manifest.add_input("attributions", args.attributions)
    pairs, _ = read_pairs_jsonl(args.pairs)
    matching = [p for p in pairs if p.pair_id == args.pair_id]
    if not matching:
        raise ValueError(f"pair {args.pair_id!r} not found in {args.pairs}")
    pair = matching[0]

    records: dict[tuple[str, str], dict] = {}
    for where, record in jsonl_records(args.attributions):
        if record.get("kind") == "header":
            continue
        if record.get("schema") != ATTRIBUTION_SCHEMA:
            raise ValueError(f"{where}: unsupported schema")
        for name in ("compound_id", "method", "checkpoint_hash"):
            if not isinstance(record.get(name), str):
                raise ValueError(f"{where}: field {name!r} is missing or not a string")
        try:
            record["node_values"] = np.asarray(record["node_values"], dtype=np.float64)
        except KeyError:
            raise ValueError(f"{where}: missing field 'node_values'") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: node_values: {exc}") from None
        if args.model_ref and not record["checkpoint_hash"].startswith(args.model_ref):
            continue
        key = (record["compound_id"], record["method"])
        if key in records and records[key]["checkpoint_hash"] != record["checkpoint_hash"]:
            raise ValueError(
                f"multiple models provide {key[1]} for {key[0]}; narrow with --model-ref"
            )
        records[key] = record

    # (compound id, graph, values, title label, file tag); every SVG is built before any is written
    panels = []
    for compound_id, graph in (
        (pair.compound_i, pair.graph_i),
        (pair.compound_j, pair.graph_j),
    ):
        for (cid, method), record in sorted(records.items()):
            if cid != compound_id:
                continue
            values = record["node_values"]
            if values.shape != (graph.num_atoms,):
                raise ValueError(
                    f"attribution for {cid}/{method} has {values.size} values, "
                    f"molecule has {graph.num_atoms} atoms"
                )
            panels.append((cid, graph, values, method, method))
    if not panels:
        raise ValueError(f"no attribution records found for pair {args.pair_id!r}")
    truth = ground_truth(pair)
    panels.append((pair.compound_i, pair.graph_i, truth.values_i, "reference", "truth"))
    panels.append((pair.compound_j, pair.graph_j, truth.values_j, "reference", "truth"))
    written = [
        (
            f"{args.out}.{_sanitize(cid)}.{tag}.svg",
            render_molecule_svg(graph, values, cid, f"{cid} {label}", manifest_hash=manifest.hash),
        )
        for cid, graph, values, label, tag in panels
    ]
    for idx, (path, svg) in enumerate(written):
        with open(path, "w") as fh:
            fh.write(svg)
        manifest.add_output(f"svg_{idx}", path)
    manifest.write(args.out + ".manifest.json")
    print(f"wrote {len(written)} SVG files with prefix {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffkit",
        description="Activity cliff pairs, pair-model training, and attribution evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic compounds table")
    p.add_argument("--out", required=True, help="output compounds CSV")
    p.add_argument("--scaffolds", type=int, default=SyntheticConfig.n_scaffolds)
    p.add_argument("--scaffolds-per-target", type=int, default=SyntheticConfig.scaffolds_per_target,
                   help="group this many consecutive scaffolds under one target id")
    p.add_argument("--decorations", type=int, default=SyntheticConfig.n_decorations)
    p.add_argument("--noise-sd", type=float, default=SyntheticConfig.noise_sd)
    p.add_argument("--seed", type=int, default=SyntheticConfig.seed)
    p.add_argument("--planted-out", default=None, help="also write planted effects JSON")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pairs", help="build cliff pairs from a compounds CSV")
    p.add_argument("--compounds", required=True)
    p.add_argument("--out", required=True, help="output pairs JSONL")
    p.add_argument("--min-mcs-fraction", type=float, default=PairGenConfig.min_mcs_fraction)
    p.add_argument("--min-delta", type=float, default=PairGenConfig.min_activity_delta)
    p.add_argument("--min-pairs-per-target", type=int, default=PairGenConfig.min_pairs_per_target)
    p.add_argument("--mcs-node-budget", type=int, default=PairGenConfig.mcs_node_budget)
    p.add_argument("--strict", action="store_true", help="fail on unparseable SMILES")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("train", help="train one loss variant on a pairs file")
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--variant", choices=VARIANTS, default=LossConfig.variant)
    p.add_argument("--lam", type=float, default=LossConfig.lam)
    p.add_argument("--alpha", type=float, default=LossConfig.alpha)
    p.add_argument("--node-loss-weight", type=float, default=LossConfig.node_loss_weight)
    p.add_argument("--hidden-dim", type=int, default=ModelConfig.hidden_dim)
    p.add_argument("--layers", type=int, default=ModelConfig.message_layers)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--min-delta", type=float, default=TrainConfig.min_delta)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--ratios", default="0.7,0.1,0.2")
    p.add_argument("--report", default=None, help="training report path (default: <out>.report.json)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="metrics for checkpoints; sweep when given two")
    p.add_argument("--pairs", required=True)
    p.add_argument("--checkpoint", action="append", required=True, help="repeat for two models")
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--csv", default=None, help="flat sweep CSV (two checkpoints only)")
    p.add_argument("--split", choices=("all", "test"), default="all")
    p.add_argument("--thresholds", default=None, help="comma-separated overlap thresholds")
    p.add_argument("--methods", default=",".join(METHODS))
    p.add_argument("--ig-steps", type=int, default=AttributionConfig.ig_steps)
    p.add_argument("--attributions-out", default=None, help="write attribution JSONL")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", help="render attribution and reference colorings")
    p.add_argument("--pairs", required=True)
    p.add_argument("--attributions", required=True)
    p.add_argument("--pair-id", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--model-ref", default=None, help="filter records by checkpoint hash prefix")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CompatibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (
        TrainingDivergedError,
        ConstantSeriesError,
        DegenerateComparisonError,
        FloatingPointError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CheckpointError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
