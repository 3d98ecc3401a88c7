"""Spans around calls into cliffkit's modules, installed from outside.

The tracer rebinds public functions (and two public methods) of the
package to timing wrappers, everywhere the package's own modules hold a
reference to them, and restores the originals on exit. Two private
helpers are wrapped too, where nothing public shows their work:
validation inside ``train`` and the candidate pairs that mining searches. The program's
files stay unchanged. Each span records its name, start, end, parent
span and the request it belongs to; a layer's self time is its spans'
durations minus the part covered by child spans. Autodiff primitives
are counted, not timed, so the tape's per-op cost is not swamped by the
tracer's own.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name). Functions are rebound in every cliffkit
# module that imported them, so calls between modules are traced too.
SPANNED = (
    ("molgraph", "parse_smiles", "molgraph.parse"),
    ("molgraph", "atom_features", "molgraph.featurize"),
    ("molgraph", "bond_features", "molgraph.featurize"),
    ("pairs", "max_common_substructure", "pairs.mcs"),
    ("pairs", "generate_cliff_pairs", "pairs.generate"),
    ("pairs", "read_compounds_csv", "pairs.io"),
    ("pairs", "write_pairs_jsonl", "pairs.io"),
    ("pairs", "read_pairs_jsonl", "pairs.io"),
    ("model", "forward", "model.forward"),
    ("model", "forward_from_arrays", "model.forward"),
    ("losses", "pair_loss", "losses.pair_loss"),
    ("losses", "apply_prox", "losses.prox"),
    ("training", "train", "training.train"),
    ("training", "_split_rmse", "training.validation"),
    ("training", "evaluate_split", "training.evaluate"),
    ("training", "save_checkpoint", "training.checkpoint"),
    ("training", "load_checkpoint", "training.checkpoint"),
    ("attribution", "attribute_all", "attribution.attribute"),
    ("evaluation", "threshold_sweep", "evaluation.sweep"),
    ("evaluation", "wilcoxon_signed_rank", "evaluation.wilcoxon"),
    ("render", "render_molecule_svg", "render.svg"),
)

# Generators whose items are counted, not timed: the activity-gated
# candidates that pair mining goes on to search.
COUNTED_ITEMS = (
    ("pairs", "_pair_candidates", "pairs.candidates"),
)

SPANNED_METHODS = (
    ("autodiff", "Tape", "backward", "autodiff.backward"),
    ("training", "AdamState", "update", "training.adam"),
)

# Every op that records a tape entry.
AUTODIFF_OPS = (
    "add", "sub", "mul", "scale", "matmul", "relu", "sum_all", "mean_axis",
    "concat", "edge_messages", "scatter_mean", "masked_mean",
    "batchnorm_train", "batchnorm_eval",
)

MODULES = ("molgraph", "pairs", "autodiff", "model", "losses", "training",
           "attribution", "evaluation", "render")

# Position of the ``train`` argument of the two forward entry points.
_TRAIN_ARG = {"forward": 4, "forward_from_arrays": 6}


def _cliffkit_namespaces():
    names = ["cliffkit"] + [f"cliffkit.{m}" for m in MODULES + ("cli",)]
    return [sys.modules[n] for n in names if n in sys.modules]


class Tracer:
    """Collects spans and counters while installed (use as a context manager)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.request: int | None = None
        self._next_id = 0
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._mode: list[str] = []  # "train" / "eval" while inside a forward or loss
        self._restore: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------
    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        self.self_s[name] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else None, name, start, end, self.request))

    def _wrap(self, fn, name: str):
        tracer = self
        if name == "model.forward":
            train_pos = _TRAIN_ARG[fn.__name__]

            @functools.wraps(fn)
            def forward_wrapper(*args, **kwargs):
                train = kwargs.get("train", args[train_pos] if len(args) > train_pos else False)
                mode = "train" if train else "eval"
                # forward() delegates to forward_from_arrays(); count the outer call only
                if not (tracer._stack and tracer._stack[-1][1].startswith("model.forward")):
                    tracer.calls[f"model.forward_{mode}"] += 1
                    if tracer.request is not None:
                        tracer.counts["model.request_forwards"] += 1
                tracer._mode.append(mode)
                frame = tracer._enter(f"model.forward_{mode}")
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                    tracer._mode.pop()

            return forward_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if name == "losses.pair_loss":
                tracer._mode.append("train")
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
                if name == "losses.pair_loss":
                    tracer._mode.pop()
            tracer._observe(name, result)
            return result

        return wrapper

    def _observe(self, name: str, result) -> None:
        if name == "pairs.mcs" and result.truncated:
            self.counts["pairs.mcs_truncated"] += 1
        elif name == "render.svg":
            self.counts["render.svg_bytes"] += len(result.encode())

    def _count_items(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def generator(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.counts[name] += 1
                yield item

        return generator

    def _count_op(self, fn):
        tracer = self

        @functools.wraps(fn)
        def op(*args, **kwargs):
            if tracer.request is not None:
                tracer.counts["autodiff.request_ops"] += 1
            elif tracer._mode and tracer._mode[-1] == "train":
                tracer.counts["autodiff.update_ops"] += 1
            return fn(*args, **kwargs)

        return op

    # -- installation -----------------------------------------------------
    def _rebind(self, original, replacement) -> None:
        for ns in _cliffkit_namespaces():
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._restore.append((ns, attr, original))
                    setattr(ns, attr, replacement)

    def __enter__(self) -> "Tracer":
        import cliffkit  # noqa: F401  (loads every module named in MODULES)
        import cliffkit.cli  # noqa: F401

        mods = {m: sys.modules[f"cliffkit.{m}"] for m in MODULES}
        for module, attr, name in SPANNED:
            original = getattr(mods[module], attr, None)
            if original is not None:  # a renamed private helper's figures read 0
                self._rebind(original, self._wrap(original, name))
        for module, attr, name in COUNTED_ITEMS:
            original = getattr(mods[module], attr, None)
            if original is not None:
                self._rebind(original, self._count_items(original, name))
        for module, cls_name, attr, name in SPANNED_METHODS:
            cls = getattr(mods[module], cls_name)
            original = getattr(cls, attr)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))
        for attr in AUTODIFF_OPS:
            original = getattr(mods["autodiff"], attr)
            self._rebind(original, self._count_op(original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write_spans(self, path: str) -> None:
        """One JSON array per span: id, parent id, name, start, end, request."""
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
