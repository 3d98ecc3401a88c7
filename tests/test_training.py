import dataclasses
import json
import math
import struct

import numpy as np
import pytest

from cliffkit.losses import LossConfig
from cliffkit.model import ModelConfig, forward, init_parameters
from cliffkit.pairs import (
    PairGenConfig,
    SyntheticConfig,
    generate_cliff_pairs,
    generate_synthetic_dataset,
    split_pairs,
)
from cliffkit.training import (
    ADAM_BETA1,
    ADAM_EPS,
    AdamState,
    CHECKPOINT_MAGIC,
    CheckpointError,
    TrainConfig,
    TrainingDivergedError,
    TrainReport,
    checkpoint_bytes,
    evaluate_split,
    load_checkpoint,
    load_checkpoint_bytes,
    save_checkpoint,
    train,
)


def tiny_split(n_decorations=16, seed=0):
    data = generate_synthetic_dataset(
        SyntheticConfig(n_decorations=n_decorations, noise_sd=0.1, seed=seed)
    )
    pairs = generate_cliff_pairs(list(data.compounds), PairGenConfig(min_pairs_per_target=10))
    return split_pairs(pairs, seed=seed)


SPLIT = tiny_split()
FAST = TrainConfig(max_epochs=4, patience=4, seed=0)
SMALL = ModelConfig(hidden_dim=4)


def test_training_is_bitwise_deterministic():
    model = init_parameters(SMALL, seed=1)
    best1, report1 = train(model, SPLIT, LossConfig(variant="n"), FAST)
    best2, report2 = train(model, SPLIT, LossConfig(variant="n"), FAST)
    assert best1.digest() == best2.digest()
    assert report1 == report2  # wall time excluded from equality
    assert report1.to_dict() == report2.to_dict()
    assert "wall_time_s" not in report1.to_dict()


def test_training_leaves_input_model_untouched():
    model = init_parameters(SMALL, seed=1)
    before = model.digest()
    train(model, SPLIT, LossConfig(variant="n"), FAST)
    assert model.digest() == before


def test_lambda_zero_group_lasso_reduces_to_plain():
    model = init_parameters(SMALL, seed=2)
    best_n, _ = train(model, SPLIT, LossConfig(variant="n"), FAST)
    best_gl, _ = train(model, SPLIT, LossConfig(variant="n-gl", lam=0.0), FAST)
    best_sgl, _ = train(model, SPLIT, LossConfig(variant="n-sgl", lam=0.0), FAST)
    assert best_n.digest() == best_gl.digest() == best_sgl.digest()


def test_nonzero_penalty_changes_model():
    model = init_parameters(SMALL, seed=2)
    best_n, _ = train(model, SPLIT, LossConfig(variant="n"), FAST)
    best_gl, _ = train(model, SPLIT, LossConfig(variant="n-gl", lam=0.01), FAST)
    assert best_n.digest() != best_gl.digest()


def test_training_learns_on_easy_data():
    config = TrainConfig(max_epochs=30, patience=30, seed=0, learning_rate=3e-3)
    model = init_parameters(ModelConfig(hidden_dim=8), seed=0)
    _, report = train(model, SPLIT, LossConfig(variant="n"), config)
    assert report.train_loss[-1] < report.train_loss[0] * 0.5
    assert report.best_val_rmse < np.std([p.y_i for p in SPLIT.train] + [p.y_j for p in SPLIT.train])


def test_best_epoch_model_is_returned():
    config = TrainConfig(max_epochs=10, patience=10, seed=3)
    model = init_parameters(SMALL, seed=3)
    best, report = train(model, SPLIT, LossConfig(variant="n"), config)
    assert report.best_val_rmse == min(report.val_rmse)
    assert report.val_rmse[report.best_epoch] == report.best_val_rmse
    got = evaluate_split(best, list(SPLIT.validation))
    assert abs(got.rmse - report.best_val_rmse) < 1e-12


def test_best_val_rmse_is_the_evaluation_rmse():
    # validation inside train and evaluate_split share one RMSE, to the last bit
    data = generate_synthetic_dataset(SyntheticConfig(n_scaffolds=1, n_decorations=30, seed=0))
    pairs = generate_cliff_pairs(list(data.compounds), PairGenConfig(min_pairs_per_target=1))
    split = split_pairs(pairs, seed=0)
    config = TrainConfig(max_epochs=2, patience=2, seed=0, learning_rate=3e-3)
    model = init_parameters(ModelConfig(hidden_dim=8), seed=0)
    best, report = train(model, split, LossConfig(variant="n"), config)
    assert report.best_val_rmse == evaluate_split(best, split.validation).rmse


def test_early_stopping_fires():
    # min_delta so large no epoch ever counts as an improvement after the first
    config = TrainConfig(max_epochs=50, patience=2, min_delta=1e9, seed=0)
    model = init_parameters(SMALL, seed=4)
    _, report = train(model, SPLIT, LossConfig(variant="n"), config)
    assert report.stopped_early
    assert report.epochs_run == 3  # first epoch sets the bar, then patience runs out


def test_divergence_raises_with_location():
    bad = [dataclasses.replace(p, y_i=math.nan) for p in SPLIT.train[:12]]
    split = dataclasses.replace(SPLIT, train=tuple(bad))
    model = init_parameters(SMALL, seed=0)
    with pytest.raises(TrainingDivergedError) as info:
        train(model, split, LossConfig(variant="n"), FAST)
    assert info.value.epoch == 0
    assert info.value.pair_id in {p.pair_id for p in bad}


def test_train_config_validation_and_roundtrip():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)
    cfg = TrainConfig(learning_rate=0.01, seed=5)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


def test_train_requires_nonempty_slices():
    model = init_parameters(SMALL, seed=0)
    empty = dataclasses.replace(SPLIT, validation=())
    with pytest.raises(ValueError, match="validation"):
        train(model, empty, LossConfig(variant="n"), FAST)


def test_adam_zero_gradient_is_noop():
    model = init_parameters(SMALL, seed=6)
    adam = AdamState(model, TrainConfig())
    before = model.digest()
    grads = {name: np.zeros_like(p.value) for name, p in model.params.items()}
    adam.update(model, grads)
    assert model.digest() == before


def test_adam_first_step_has_learning_rate_magnitude():
    # bias correction makes the first update lr * g/(|g| + eps) elementwise
    model = init_parameters(SMALL, seed=6)
    lr = 0.05
    adam = AdamState(model, TrainConfig(learning_rate=lr))
    grads = {name: np.ones_like(p.value) for name, p in model.params.items()}
    old = {name: p.value.copy() for name, p in model.params.items()}
    adam.update(model, grads)
    for name, p in model.params.items():
        step = old[name] - p.value
        assert np.allclose(step, lr / (1.0 + 1e-8), atol=1e-12)


def test_adam_in_place_step_matches_allocating_formula_bitwise():
    model = init_parameters(SMALL, seed=6)
    cfg = TrainConfig(learning_rate=0.01, beta2=0.99)
    adam = AdamState(model, cfg)
    rng = np.random.default_rng(3)
    arrays = {name: p.value for name, p in model.params.items()}
    expect = {name: p.value.copy() for name, p in model.params.items()}
    m = {name: np.zeros_like(v) for name, v in expect.items()}
    v = {name: np.zeros_like(x) for name, x in expect.items()}
    for step in (1, 2, 3):
        grads = {name: rng.normal(size=x.shape) for name, x in expect.items()}
        adam.update(model, grads)
        bc1 = 1.0 - ADAM_BETA1 ** step
        bc2 = 1.0 - cfg.beta2 ** step
        for name, g in grads.items():
            m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
            v[name] = cfg.beta2 * v[name] + (1.0 - cfg.beta2) * g * g
            expect[name] = expect[name] - cfg.learning_rate * (m[name] / bc1) / (
                np.sqrt(v[name] / bc2) + ADAM_EPS
            )
        for name, p in model.params.items():
            assert p.value is arrays[name]  # updated in place
            assert np.array_equal(p.value, expect[name])
        assert np.array_equal(adam.m, np.concatenate([m[name].ravel() for name in arrays]))
        assert np.array_equal(adam.v, np.concatenate([v[name].ravel() for name in arrays]))


def test_evaluate_split_orders_and_counts():
    model = init_parameters(SMALL, seed=0)
    best, _ = train(model, SPLIT, LossConfig(variant="n"), FAST)
    pairs = list(SPLIT.test[:3])
    res = evaluate_split(best, pairs)
    assert len(res.predictions) == 6
    assert res.pair_ids[0] == res.pair_ids[1] == pairs[0].pair_id
    assert res.compound_ids[0] == pairs[0].compound_i
    assert res.compound_ids[1] == pairs[0].compound_j
    assert res.rmse == pytest.approx(
        math.sqrt(np.mean((res.predictions - res.targets) ** 2))
    )


def test_evaluate_split_matches_one_graph_forwards():
    # each pair's compounds run in one packed forward; the predictions are
    # those of one eval-mode forward per compound, in the same order
    best, _ = train(init_parameters(SMALL, seed=0), SPLIT, LossConfig(variant="n"), FAST)
    res = evaluate_split(best, SPLIT.validation)
    singles = [
        forward(best, graph, common, ~common).prediction
        for pair in SPLIT.validation
        for graph, common in ((pair.graph_i, pair.common_mask_i), (pair.graph_j, pair.common_mask_j))
    ]
    assert np.allclose(res.predictions, singles, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# checkpoints

def trained_model():
    model = init_parameters(SMALL, seed=7)
    best, _ = train(model, SPLIT, LossConfig(variant="n-gl", lam=0.001), FAST)
    return best


def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = trained_model()
    loss_config = LossConfig(variant="n-gl", lam=0.001)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, loss_config, manifest_hash="abc123", extras={"split_seed": 4})
    loaded, loaded_loss, header = load_checkpoint(path)
    assert loaded.digest() == model.digest()
    assert loaded_loss == loss_config
    assert header["manifest_hash"] == "abc123"
    assert header["extras"] == {"split_seed": 4}
    for state_a, state_b in zip(model.bn_state, loaded.bn_state):
        assert np.array_equal(state_a.mean, state_b.mean)
        assert state_a.updates == state_b.updates
    # serialize -> load -> serialize is byte-stable
    blob = checkpoint_bytes(model, loss_config, manifest_hash="abc123", extras={"split_seed": 4})
    blob2 = checkpoint_bytes(loaded, loaded_loss, manifest_hash="abc123", extras={"split_seed": 4})
    assert blob == blob2 == path.read_bytes()


def test_checkpoint_rejects_corruption():
    model = trained_model()
    blob = checkpoint_bytes(model, LossConfig(variant="n"))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint_bytes(blob[:10])
    with pytest.raises(CheckpointError, match="payload"):
        load_checkpoint_bytes(blob[:-16])
    # flip the schema string inside the header
    bad = blob.replace(b"mpnn-ckpt/2", b"mpnn-ckpt/9")
    with pytest.raises(CheckpointError, match="schema"):
        load_checkpoint_bytes(bad)
    # malformed headers: no parameter list, not an object, an unknown config key
    for edit, message in (
        (lambda h: {k: v for k, v in h.items() if k != "params"}, "params"),
        (lambda h: [h], "JSON object"),
        (lambda h: {**h, "config": {**h["config"], "dropout": 0.5}}, "dropout"),
    ):
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint_bytes(with_header(blob, edit))


def with_header(blob: bytes, edit) -> bytes:
    """A checkpoint whose JSON header is replaced by ``edit(header)``."""
    (length,) = struct.unpack("<Q", blob[8:16])
    header = edit(json.loads(blob[16 : 16 + length]))
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return CHECKPOINT_MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + blob[16 + length :]


def schema_1_blob(model) -> bytes:
    """A checkpoint whose header carries the previous schema tag."""
    blob = checkpoint_bytes(model, LossConfig(variant="n"))
    return with_header(blob, lambda h: {**h, "schema": "mpnn-ckpt/1"})


def test_checkpoint_refuses_schema_1():
    # schema 1 held a separate bond embedding; its edge networks do not load
    with pytest.raises(CheckpointError, match="mpnn-ckpt/1"):
        load_checkpoint_bytes(schema_1_blob(init_parameters(SMALL, seed=0)))


def test_checkpoint_parameter_set_must_match_config():
    model = trained_model()
    blob = checkpoint_bytes(model, LossConfig(variant="n"))
    # claim a different hidden size in the header config
    bad = blob.replace(b'"hidden_dim":4', b'"hidden_dim":8')
    with pytest.raises(CheckpointError):
        load_checkpoint_bytes(bad)


def test_report_wall_time_excluded_from_comparison():
    kwargs = dict(
        variant="n", seed=0, epochs_run=2, best_epoch=1, best_val_rmse=0.5,
        train_loss=[1.0, 0.5], val_rmse=[0.7, 0.5], stopped_early=False,
    )
    a = TrainReport(**kwargs, wall_time_s=1.0)
    b = TrainReport(**kwargs, wall_time_s=99.0)
    assert a == b
