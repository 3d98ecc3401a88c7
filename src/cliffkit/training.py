"""Pair-level training loop, evaluation over splits, and checkpointing.

Training visits one pair per update in a seeded shuffled order, applies
an adaptive-moment gradient step to every parameter, and, for the
penalized variants, follows each step with the proximal operator on the
two head blocks (using the learning rate as the proximal step size).
Early stopping watches validation RMSE with a minimum improvement of
``min_delta`` and returns the parameters of the best epoch.

Each update runs the pair's two compounds as one packed train-mode
forward (each normalized by its own atoms), one pair loss and one
backward sweep; evaluation likewise scores each pair in one eval-mode
forward. Packing never crosses pairs: minibatching different pairs
would change what an update is.

Everything here is deterministic for a fixed seed and config. Reported
wall time is informative only: it is excluded from comparisons and from
serialized reports so that reruns stay byte-identical.
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .evaluation import rmse
from .losses import LossConfig, apply_prox, pair_loss
from .model import (
    BnRunningState,
    ForwardTrace,
    ModelConfig,
    MpnnModel,
    _layer_specs,
    commit_bn_stats,
    forward,
)
from .autodiff import Parameter
from .pairs import CliffPair, DatasetSplit

CHECKPOINT_SCHEMA = "mpnn-ckpt/2"
CHECKPOINT_MAGIC = b"MPNNCKPT"

# Adam's first-moment decay and denominator guard; the second-moment decay
# is TrainConfig.beta2.
ADAM_BETA1 = 0.9
ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    """Loss left the finite range; carries where it happened."""

    def __init__(self, epoch: int, pair_id: str, loss_value: float):
        super().__init__(
            f"training diverged at epoch {epoch} on pair {pair_id} (loss {loss_value!r})"
        )
        self.epoch = epoch
        self.pair_id = pair_id
        self.loss_value = loss_value


class CheckpointError(ValueError):
    """Checkpoint bytes are not a version of the documented format."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    max_epochs: int = 300
    patience: int = 20
    min_delta: float = 1e-6
    seed: int = 0
    beta2: float = 0.999

    def __post_init__(self):
        if self.learning_rate <= 0 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("learning_rate, max_epochs and patience must be positive")

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "max_epochs": self.max_epochs,
            "patience": self.patience,
            "min_delta": self.min_delta,
            "seed": self.seed,
            "beta2": self.beta2,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


@dataclass
class TrainReport:
    """Per-epoch curves and the early-stopping outcome of one run."""

    variant: str
    seed: int
    epochs_run: int
    best_epoch: int
    best_val_rmse: float
    train_loss: list[float]
    val_rmse: list[float]
    stopped_early: bool
    wall_time_s: float = field(compare=False, default=0.0)

    def to_dict(self) -> dict:
        # wall_time_s stays out: serialized reports must be rerun-stable.
        return {
            "variant": self.variant,
            "seed": self.seed,
            "epochs_run": self.epochs_run,
            "best_epoch": self.best_epoch,
            "best_val_rmse": self.best_val_rmse,
            "train_loss": self.train_loss,
            "val_rmse": self.val_rmse,
            "stopped_early": self.stopped_early,
        }


class AdamState:
    """First/second moments of all parameters, flattened in parameter order.

    ``update`` runs each step of the rule as one array operation over
    every parameter, in preallocated buffers, and subtracts the step from
    the parameter arrays in place. Tape leaves alias ``p.value``, so it
    must run after ``Tape.backward`` of the step, never while a tape that
    will still be swept holds those arrays.
    """

    def __init__(self, model: MpnnModel, config: TrainConfig):
        self.config = config
        self.step = 0
        self.names = list(model.params)
        size = sum(p.value.size for p in model.params.values())
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._grad = np.empty(size)
        self._scratch = (np.empty(size), np.empty(size))
        # per-parameter views of the first scratch buffer, which ends up holding the step
        self._steps = []
        offset = 0
        for p in model.params.values():
            self._steps.append(self._scratch[0][offset : offset + p.value.size].reshape(p.value.shape))
            offset += p.value.size

    def update(self, model: MpnnModel, grads: dict[str, np.ndarray]) -> None:
        cfg = self.config
        self.step += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.step
        bc2 = 1.0 - cfg.beta2 ** self.step
        g, m, v = self._grad, self.m, self.v
        a, b = self._scratch
        np.concatenate([grads[name].ravel() for name in self.names], out=g)
        # same operation order as m += (1-b1)*g; v += (1-b2)*g*g;
        # p -= lr*(m/bc1) / (sqrt(v/bc2)+eps), so results are bit-identical
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
        v *= cfg.beta2
        np.multiply(1.0 - cfg.beta2, g, out=a)
        v += np.multiply(a, g, out=a)
        np.multiply(cfg.learning_rate, np.divide(m, bc1, out=a), out=a)
        np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), ADAM_EPS, out=b)
        np.divide(a, b, out=a)
        for name, step in zip(self.names, self._steps):
            model.params[name].value -= step


def _pair_forward(model: MpnnModel, pair: CliffPair, train: bool) -> ForwardTrace:
    """Both compounds of a pair, each with its own masks, in one packed forward."""
    return forward(
        model, (pair.graph_i, pair.graph_j),
        (pair.common_mask_i, pair.common_mask_j), (pair.uncommon_mask_i, pair.uncommon_mask_j),
        train=train,
    )


def _pair_update(
    model: MpnnModel, pair: CliffPair, loss_config: LossConfig
) -> tuple[float, dict[str, np.ndarray], ForwardTrace]:
    """Loss and gradients of one pair from one train-mode forward over both compounds."""
    trace = _pair_forward(model, pair, train=True)
    loss = pair_loss(trace, None, pair.y_i, pair.y_j, loss_config)
    grads = trace.tape.backward(loss)
    return float(loss.value), trace.binding.gradient_by_name(grads), trace


def train(
    model: MpnnModel,
    split: DatasetSplit,
    loss_config: LossConfig,
    train_config: TrainConfig,
) -> tuple[MpnnModel, TrainReport]:
    """Optimize a copy of ``model`` on the split's train slice.

    Returns the best-validation-epoch model and the report. The input
    model is left untouched. With ``lam == 0`` the penalized variants
    reduce bit-for-bit to the plain node-loss variant.
    """
    if not split.train or not split.validation:
        raise ValueError("split must provide train and validation pairs")
    started = time.perf_counter()
    work = model.copy()
    adam = AdamState(work, train_config)
    rng = np.random.default_rng(train_config.seed)
    best: MpnnModel | None = None
    best_rmse = math.inf
    best_epoch = -1
    since_improvement = 0
    train_curve: list[float] = []
    val_curve: list[float] = []
    stopped_early = False
    for epoch in range(train_config.max_epochs):
        order = rng.permutation(len(split.train))
        epoch_loss = 0.0
        for k in order:
            pair = split.train[k]
            loss_value, grads, trace = _pair_update(work, pair, loss_config)
            if not math.isfinite(loss_value):
                raise TrainingDivergedError(epoch, pair.pair_id, loss_value)
            commit_bn_stats(work, trace)
            adam.update(work, grads)
            apply_prox(work, loss_config, step=train_config.learning_rate)
            epoch_loss += loss_value
        train_curve.append(epoch_loss / len(split.train))
        val = evaluate_split(work, split.validation).rmse
        if not math.isfinite(val):
            raise TrainingDivergedError(epoch, "<validation>", val)
        val_curve.append(val)
        if best_rmse - val > train_config.min_delta:
            best_rmse = val
            best_epoch = epoch
            best = work.copy()
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= train_config.patience:
                stopped_early = True
                break
    assert best is not None
    report = TrainReport(
        variant=loss_config.variant,
        seed=train_config.seed,
        epochs_run=len(train_curve),
        best_epoch=best_epoch,
        best_val_rmse=best_rmse,
        train_loss=train_curve,
        val_rmse=val_curve,
        stopped_early=stopped_early,
        wall_time_s=time.perf_counter() - started,
    )
    return best, report


@dataclass
class SplitEvaluation:
    """Predictions for every compound occurrence in a pair list."""

    pair_ids: list[str]
    compound_ids: list[str]
    targets: np.ndarray
    predictions: np.ndarray

    @property
    def rmse(self) -> float:
        return rmse(self.predictions, self.targets)


def evaluate_split(model: MpnnModel, pairs) -> SplitEvaluation:
    """Eval-mode predictions with each pair's own masks, in pair order.

    Each pair's two compounds run in one packed forward. A split is not
    packed whole: one forward would then hold the typed states of every
    atom and bond of the split at once, about 15 MB for 148 compounds
    (1 642 atoms) at ``hidden_dim=64``.
    """
    pair_ids: list[str] = []
    compound_ids: list[str] = []
    targets: list[float] = []
    predictions: list[float] = []
    for pair in pairs:
        trace = _pair_forward(model, pair, train=False)
        pair_ids += [pair.pair_id, pair.pair_id]
        compound_ids += [pair.compound_i, pair.compound_j]
        targets += [pair.y_i, pair.y_j]
        predictions.extend(trace.predictions)
    return SplitEvaluation(pair_ids, compound_ids, np.asarray(targets), np.asarray(predictions))


# ---------------------------------------------------------------------------
# Checkpoint format: magic, length-prefixed JSON header, raw float64 payload.

def checkpoint_bytes(
    model: MpnnModel,
    loss_config: LossConfig,
    manifest_hash: str = "",
    extras: dict | None = None,
) -> bytes:
    """Serialize a model to the versioned checkpoint container."""
    param_entries = []
    chunks: list[np.ndarray] = []
    offset = 0
    for name, p in model.params.items():
        flat = np.ascontiguousarray(p.value, dtype="<f8").ravel()
        param_entries.append(
            {
                "name": name,
                "shape": list(p.value.shape),
                "group": p.group_tag,
                "offset": offset,
                "size": int(flat.size),
            }
        )
        chunks.append(flat)
        offset += flat.size
    bn_entries = []
    for state in model.bn_state:
        mean = np.ascontiguousarray(state.mean, dtype="<f8").ravel()
        var = np.ascontiguousarray(state.var, dtype="<f8").ravel()
        bn_entries.append(
            {
                "mean_offset": offset,
                "var_offset": offset + mean.size,
                "size": int(mean.size),
                "updates": state.updates,
            }
        )
        chunks.append(mean)
        chunks.append(var)
        offset += mean.size + var.size
    header = {
        "schema": CHECKPOINT_SCHEMA,
        "config": model.config.to_dict(),
        "loss_config": loss_config.to_dict(),
        "manifest_hash": manifest_hash,
        "params": param_entries,
        "bn": bn_entries,
        "payload_doubles": offset,
    }
    if extras:
        header["extras"] = extras
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = b"".join(c.tobytes() for c in chunks)
    return CHECKPOINT_MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + payload


def save_checkpoint(
    path: str,
    model: MpnnModel,
    loss_config: LossConfig,
    manifest_hash: str = "",
    extras: dict | None = None,
) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(model, loss_config, manifest_hash, extras))


def load_checkpoint_bytes(blob: bytes) -> tuple[MpnnModel, LossConfig, dict]:
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError("not a recognized checkpoint (bad magic bytes)")
    cursor = len(CHECKPOINT_MAGIC)
    if len(blob) < cursor + 8:
        raise CheckpointError("checkpoint truncated before header length")
    (header_len,) = struct.unpack("<Q", blob[cursor : cursor + 8])
    cursor += 8
    if len(blob) < cursor + header_len:
        raise CheckpointError("checkpoint truncated inside header")
    try:
        header = json.loads(blob[cursor : cursor + header_len].decode())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"checkpoint header is not valid JSON: {exc}") from None
    cursor += header_len
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    if header.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"unsupported checkpoint schema {header.get('schema')!r}; "
            f"this build reads {CHECKPOINT_SCHEMA!r}"
        )
    payload = np.frombuffer(blob[cursor:], dtype="<f8")
    if payload.size != header.get("payload_doubles"):
        raise CheckpointError(
            f"payload holds {payload.size} doubles, header says {header.get('payload_doubles')}"
        )
    try:
        config = ModelConfig.from_dict(header["config"])
        loss_config = LossConfig.from_dict(header["loss_config"])
        params: dict[str, Parameter] = {}
        for entry in header["params"]:
            values = payload[entry["offset"] : entry["offset"] + entry["size"]]
            params[entry["name"]] = Parameter(
                entry["name"], values.reshape(entry["shape"]).copy(), entry["group"]
            )
        bn_state = [
            BnRunningState(
                mean=payload[e["mean_offset"] : e["mean_offset"] + e["size"]].copy(),
                var=payload[e["var_offset"] : e["var_offset"] + e["size"]].copy(),
                updates=int(e["updates"]),
            )
            for e in header["bn"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint header: {exc!r}") from None
    model = MpnnModel(config, params, bn_state)
    expected = {name: shape for name, shape, _, _ in _layer_specs(config)}
    got = {name: tuple(p.value.shape) for name, p in params.items()}
    if got != expected:
        raise CheckpointError("checkpoint parameter set does not match its config")
    if len(bn_state) != config.message_layers or any(
        s.mean.shape != (config.hidden_dim,) for s in bn_state
    ):
        raise CheckpointError("checkpoint normalization state does not match its config")
    return model, loss_config, header


def load_checkpoint(path: str) -> tuple[MpnnModel, LossConfig, dict]:
    """Read a checkpoint file; round-trips byte-exactly through save."""
    with open(path, "rb") as fh:
        return load_checkpoint_bytes(fh.read())
