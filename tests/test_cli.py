import dataclasses
import json
import os
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

from cliffkit.cli import Manifest, file_sha256, main
from cliffkit.losses import LossConfig
from cliffkit.pairs import PairGenConfig, SyntheticConfig, read_compounds_csv, read_pairs_jsonl
from cliffkit.training import TrainConfig, load_checkpoint

TRAIN_FLAGS = [
    "--hidden-dim", "4",
    "--max-epochs", "3",
    "--patience", "3",
    "--lr", "0.003",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthesized dataset with pairs and two trained checkpoints."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "compounds": str(root / "compounds.csv"),
        "planted": str(root / "planted.json"),
        "pairs": str(root / "pairs.jsonl"),
        "ckpt_n": str(root / "n.ckpt"),
        "ckpt_gl": str(root / "n-gl.ckpt"),
        "root": root,
    }
    assert main([
        "synth", "--out", paths["compounds"],
        "--decorations", "24", "--seed", "0",
        "--planted-out", paths["planted"],
    ]) == 0
    assert main([
        "pairs", "--compounds", paths["compounds"], "--out", paths["pairs"],
        "--min-pairs-per-target", "10",
    ]) == 0
    assert main([
        "train", "--pairs", paths["pairs"], "--out", paths["ckpt_n"],
        "--variant", "n", "--seed", "0", *TRAIN_FLAGS,
    ]) == 0
    assert main([
        "train", "--pairs", paths["pairs"], "--out", paths["ckpt_gl"],
        "--variant", "n-gl", "--lam", "0.001", "--seed", "0", *TRAIN_FLAGS,
    ]) == 0
    return paths


def test_synth_writes_consistent_planted_effects(workspace):
    records, skipped = read_compounds_csv(workspace["compounds"])
    assert not skipped
    assert len(records) == 24
    planted = json.loads(open(workspace["planted"]).read())
    manifest = json.loads(open(workspace["compounds"] + ".manifest.json").read())
    assert planted["manifest_hash"] == manifest["manifest_hash"]
    for record in records:
        parts = planted["planted"][record.compound_id]
        expected = parts["base"] + parts["effect"] + parts["noise"]
        assert record.pic50 == pytest.approx(expected, abs=1e-9)


def test_pairs_header_carries_manifest_hash(workspace):
    pairs, header = read_pairs_jsonl(workspace["pairs"])
    manifest = json.loads(open(workspace["pairs"] + ".manifest.json").read())
    assert header["manifest_hash"] == manifest["manifest_hash"]
    assert len(pairs) >= 10
    assert manifest["subcommand"] == "pairs"
    assert manifest["inputs"]["compounds"]["sha256"] == file_sha256(workspace["compounds"])


def test_train_outputs_reference_one_manifest(workspace):
    _, _, header = load_checkpoint(workspace["ckpt_n"])
    report = json.loads(open(workspace["ckpt_n"] + ".report.json").read())
    manifest = json.loads(open(workspace["ckpt_n"] + ".manifest.json").read())
    assert header["manifest_hash"] == manifest["manifest_hash"]
    assert report["manifest_hash"] == manifest["manifest_hash"]
    assert report["schema"] == "train-report/1"
    assert "wall_time_s" not in report
    assert header["extras"] == {"split_seed": 0, "ratios": [0.7, 0.1, 0.2]}


def test_eval_single_checkpoint(workspace, tmp_path, capsys):
    out = str(tmp_path / "report.json")
    assert main([
        "eval", "--pairs", workspace["pairs"], "--checkpoint", workspace["ckpt_n"],
        "--out", out,
    ]) == 0
    report = json.loads(open(out).read())
    assert report["schema"] == "eval-report/1"
    assert len(report["models"]) == 1
    entry = report["models"][0]
    assert entry["variant"] == "n"
    assert entry["checkpoint_sha256"] == file_sha256(workspace["ckpt_n"])
    assert set(entry["metrics"]) == {"targets", "avg_rmse", "avg_pcc", "weighted_rmse", "weighted_pcc"}
    assert "sweep" not in report
    assert "avg rmse" in capsys.readouterr().out


def test_eval_two_checkpoints_sweep_and_csv(workspace, tmp_path):
    out = str(tmp_path / "report.json")
    sweep_csv = str(tmp_path / "sweep.csv")
    attr_out = str(tmp_path / "attr.jsonl")
    assert main([
        "eval", "--pairs", workspace["pairs"],
        "--checkpoint", workspace["ckpt_n"], "--checkpoint", workspace["ckpt_gl"],
        "--out", out, "--csv", sweep_csv, "--attributions-out", attr_out,
        "--split", "test", "--methods", "cam,ig", "--ig-steps", "4",
        "--thresholds", "0.5,0.7,0.9",
    ]) == 0
    report = json.loads(open(out).read())
    assert [m["variant"] for m in report["models"]] == ["n", "n-gl"]
    assert set(report["sweep"]["methods"]) == {"cam", "ig"}
    assert report["sweep"]["thresholds"] == [0.5, 0.7, 0.9]

    rows = open(sweep_csv).read().strip().splitlines()
    assert rows[0] == "threshold,method,model,mean_g_dir,n_pairs"
    # 3 thresholds x 2 methods x 2 models
    assert len(rows) == 1 + 12
    digests = {m["model_digest"][:12] for m in report["models"]}
    for row in rows[1:]:
        label, digest = row.split(",")[2].split(":")
        assert label in ("a", "b") and digest in digests

    lines = [json.loads(l) for l in open(attr_out)]
    assert lines[0]["kind"] == "header"
    assert lines[0]["manifest_hash"] == report["manifest_hash"]
    body = lines[1:]
    pairs, _ = read_pairs_jsonl(workspace["pairs"])
    compound_ids = set()
    for p in pairs:
        compound_ids.update((p.compound_i, p.compound_j))
    seen_ids = {r["compound_id"] for r in body}
    assert seen_ids <= compound_ids
    assert {r["method"] for r in body} == {"cam", "ig"}
    assert {r["checkpoint_hash"] for r in body} == {m["model_digest"] for m in report["models"]}


def test_eval_split_test_uses_fewer_pairs(workspace, tmp_path):
    out_all = str(tmp_path / "all.json")
    out_test = str(tmp_path / "test.json")
    for split, out in (("all", out_all), ("test", out_test)):
        assert main([
            "eval", "--pairs", workspace["pairs"], "--checkpoint", workspace["ckpt_n"],
            "--out", out, "--split", split,
        ]) == 0
    n_all = sum(
        t["n_pairs"]
        for t in json.loads(open(out_all).read())["models"][0]["metrics"]["targets"].values()
    )
    n_test = sum(
        t["n_pairs"]
        for t in json.loads(open(out_test).read())["models"][0]["metrics"]["targets"].values()
    )
    pairs, _ = read_pairs_jsonl(workspace["pairs"])
    assert n_all == len(pairs)
    assert 0 < n_test < n_all


def test_render_writes_svg_panels(workspace, tmp_path):
    attr_out = str(tmp_path / "attr.jsonl")
    assert main([
        "eval", "--pairs", workspace["pairs"], "--checkpoint", workspace["ckpt_n"],
        "--out", str(tmp_path / "r.json"), "--attributions-out", attr_out,
        "--methods", "cam,gradinput",
    ]) == 0
    pairs, _ = read_pairs_jsonl(workspace["pairs"])
    pair = pairs[0]
    prefix = str(tmp_path / "panel")
    assert main([
        "render", "--pairs", workspace["pairs"], "--attributions", attr_out,
        "--pair-id", pair.pair_id, "--out", prefix,
    ]) == 0
    for cid in (pair.compound_i, pair.compound_j):
        for suffix in ("cam", "gradinput", "truth"):
            path = f"{prefix}.{cid}.{suffix}.svg"
            assert os.path.exists(path)
            content = open(path).read()
            assert content.startswith("<svg") or "<svg" in content
    manifest = json.loads(open(prefix + ".manifest.json").read())
    assert len(manifest["outputs"]) == 6


def test_render_two_models_requires_model_ref(workspace, tmp_path, capsys):
    attr_out = str(tmp_path / "attr.jsonl")
    assert main([
        "eval", "--pairs", workspace["pairs"],
        "--checkpoint", workspace["ckpt_n"], "--checkpoint", workspace["ckpt_gl"],
        "--out", str(tmp_path / "r.json"), "--attributions-out", attr_out,
        "--methods", "cam",
    ]) == 0
    pairs, _ = read_pairs_jsonl(workspace["pairs"])
    args = [
        "render", "--pairs", workspace["pairs"], "--attributions", attr_out,
        "--pair-id", pairs[0].pair_id, "--out", str(tmp_path / "panel"),
    ]
    assert main(args) == 2
    assert "model-ref" in capsys.readouterr().err
    _, _, header = load_checkpoint(workspace["ckpt_n"])
    report = json.loads(open(str(tmp_path / "r.json")).read())
    digest = report["models"][0]["model_digest"]
    assert main(args + ["--model-ref", digest[:12]]) == 0


def test_render_without_records_writes_nothing(workspace, tmp_path, capsys):
    attr = tmp_path / "attr.jsonl"
    attr.write_text('{"kind":"header","manifest_hash":"","schema":"attribution/1"}\n')
    pairs, _ = read_pairs_jsonl(workspace["pairs"])
    assert main([
        "render", "--pairs", workspace["pairs"], "--attributions", str(attr),
        "--pair-id", pairs[0].pair_id, "--out", str(tmp_path / "panel"),
    ]) == 2
    assert "no attribution records" in capsys.readouterr().err
    assert not list(tmp_path.glob("panel.*"))


def test_reruns_are_byte_identical(tmp_path, monkeypatch):
    """The same commands in two directories produce identical bytes."""
    outputs = {}
    for name in ("one", "two"):
        base = tmp_path / name
        base.mkdir()
        monkeypatch.chdir(base)
        assert main(["synth", "--out", "c.csv", "--decorations", "16", "--seed", "7"]) == 0
        assert main([
            "pairs", "--compounds", "c.csv", "--out", "p.jsonl",
            "--min-pairs-per-target", "5",
        ]) == 0
        assert main([
            "train", "--pairs", "p.jsonl", "--out", "m.ckpt",
            "--hidden-dim", "4", "--max-epochs", "2", "--patience", "2", "--seed", "1",
        ]) == 0
        assert main([
            "eval", "--pairs", "p.jsonl", "--checkpoint", "m.ckpt",
            "--out", "e.json", "--methods", "cam", "--attributions-out", "a.jsonl",
        ]) == 0
        pairs, _ = read_pairs_jsonl("p.jsonl")
        assert main([
            "render", "--pairs", "p.jsonl", "--attributions", "a.jsonl",
            "--pair-id", pairs[0].pair_id, "--out", "v",
        ]) == 0
        outputs[name] = {
            path: open(base / path, "rb").read()
            for path in sorted(os.listdir(base))
        }
    assert sorted(outputs["one"]) == sorted(outputs["two"])
    for path in outputs["one"]:
        assert outputs["one"][path] == outputs["two"][path], path


def test_sample_data_regenerates_byte_identically(tmp_path, monkeypatch):
    """data/README.md's command rebuilds the bundled table and its manifest."""
    data = Path(__file__).resolve().parents[1] / "data"
    lines = (data / "README.md").read_text().splitlines()
    command = next(line for line in lines if line.startswith("cliffkit synth"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data").mkdir()
    assert main(shlex.split(command)[1:]) == 0
    for name in ("sample_compounds.csv", "sample_compounds.csv.manifest.json"):
        assert (tmp_path / "data" / name).read_bytes() == (data / name).read_bytes(), name


@pytest.mark.parametrize(
    "config",
    [SyntheticConfig(), PairGenConfig(), LossConfig(), TrainConfig()],
    ids=lambda c: type(c).__name__,
)
def test_manifest_hash_covers_every_config_field(config):
    base = Manifest("run", config.to_dict()).hash
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        changed = "ucn" if isinstance(value, str) else value + 1 if isinstance(value, int) else value / 2
        altered = dataclasses.replace(config, **{field.name: changed})
        assert Manifest("run", altered.to_dict()).hash != base, field.name


def test_eval_rerun_matches_bytes(workspace, tmp_path):
    args = [
        "eval", "--pairs", workspace["pairs"], "--checkpoint", workspace["ckpt_n"],
        "--methods", "cam",
    ]
    first = str(tmp_path / "first.json")
    second = str(tmp_path / "second.json")
    assert main(args + ["--out", first]) == 0
    assert main(args + ["--out", second]) == 0
    assert open(first, "rb").read() == open(second, "rb").read()


def test_schema_1_checkpoint_exits_2(workspace, tmp_path, capsys):
    blob = open(workspace["ckpt_n"], "rb").read()
    old = tmp_path / "old.ckpt"
    old.write_bytes(blob.replace(b'"schema":"mpnn-ckpt/2"', b'"schema":"mpnn-ckpt/1"'))
    code = main([
        "eval", "--pairs", workspace["pairs"], "--checkpoint", str(old),
        "--out", str(tmp_path / "r.json"), "--methods", "cam",
    ])
    assert code == 2
    assert "mpnn-ckpt/1" in capsys.readouterr().err


def test_missing_input_exits_2(tmp_path, capsys):
    code = main([
        "pairs", "--compounds", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "p.jsonl"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_pairs_file_exits_2(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    for text in (
        "this is not json\n",
        '{"schema":"cliffpair/1","pair_id":"x"}\n',  # a record missing fields
        "[1, 2]\n",  # a line that is not a JSON object
        json.dumps({  # a SMILES that is not a string
            "schema": "cliffpair/1", "pair_id": "x", "target_id": "t", "compound_i": "a",
            "compound_j": "b", "smiles_i": 5, "smiles_j": "CC", "y_i": 5.0, "y_j": 7.0,
            "mcs_fraction": 0.5, "mapping": [], "common_mask_i": [1], "common_mask_j": [1, 1],
        }) + "\n",
    ):
        bad.write_text(text)
        assert main([
            "train", "--pairs", str(bad), "--out", str(tmp_path / "m.ckpt"), *TRAIN_FLAGS,
        ]) == 2
        assert f"{bad}:1:" in capsys.readouterr().err
    pair_id = read_pairs_jsonl(workspace["pairs"])[0][0].pair_id
    for record in (
        {"schema": "attribution/1", "compound_id": "c", "node_values": [], "checkpoint_hash": "h"},
        ["not", "an", "object"],
    ):
        bad.write_text(json.dumps(record) + "\n")
        assert main([
            "render", "--pairs", workspace["pairs"], "--attributions", str(bad),
            "--pair-id", pair_id, "--out", str(tmp_path / "svg"),
        ]) == 2
        assert f"{bad}:1:" in capsys.readouterr().err


def _with_header(blob: bytes, edit) -> bytes:
    """A checkpoint whose JSON header is replaced by ``edit(header)``."""
    (length,) = struct.unpack("<Q", blob[8:16])
    header = edit(json.loads(blob[16 : 16 + length]))
    header_bytes = json.dumps(header).encode()
    return blob[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes + blob[16 + length :]


def test_corrupt_checkpoint_exits_2(workspace, tmp_path, capsys):
    blob = open(workspace["ckpt_n"], "rb").read()
    junk = tmp_path / "junk.ckpt"
    for content in (
        b"not a checkpoint",
        _with_header(blob, lambda h: {k: v for k, v in h.items() if k != "params"}),
        _with_header(blob, lambda h: [h]),
        _with_header(blob, lambda h: {**h, "config": {**h["config"], "dropout": 0.5}}),
    ):
        junk.write_bytes(content)
        assert main([
            "eval", "--pairs", workspace["pairs"], "--checkpoint", str(junk),
            "--out", str(tmp_path / "r.json"),
        ]) == 2
        assert "error:" in capsys.readouterr().err


def test_unknown_method_exits_2(workspace, tmp_path):
    assert main([
        "eval", "--pairs", workspace["pairs"], "--checkpoint", workspace["ckpt_n"],
        "--out", str(tmp_path / "r.json"), "--methods", "saliency",
    ]) == 2


def test_csv_with_single_checkpoint_exits_2(workspace, tmp_path):
    assert main([
        "eval", "--pairs", workspace["pairs"], "--checkpoint", workspace["ckpt_n"],
        "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "s.csv"),
    ]) == 2
    # refused before any work: no report is left behind
    assert not (tmp_path / "r.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_training_exits_3(workspace, tmp_path, capsys):
    code = main([
        "train", "--pairs", workspace["pairs"], "--out", str(tmp_path / "m.ckpt"),
        "--hidden-dim", "4", "--max-epochs", "3", "--lr", "1e150",
    ])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_split_seed_disagreement_exits_4(workspace, tmp_path, capsys):
    other = str(tmp_path / "other.ckpt")
    assert main([
        "train", "--pairs", workspace["pairs"], "--out", other,
        "--seed", "0", "--split-seed", "9", *TRAIN_FLAGS,
    ]) == 0
    code = main([
        "eval", "--pairs", workspace["pairs"],
        "--checkpoint", workspace["ckpt_n"], "--checkpoint", other,
        "--out", str(tmp_path / "r.json"), "--split", "test",
    ])
    assert code == 4
    assert "disagree" in capsys.readouterr().err


def test_feature_width_mismatch_exits_4(workspace, tmp_path, capsys):
    # a checkpoint of a build whose atoms have 12 features
    blob = open(workspace["ckpt_n"], "rb").read()
    narrow = tmp_path / "narrow.ckpt"
    narrow.write_bytes(_with_header(blob, lambda h: {**h, "config": {**h["config"], "atom_feature_width": 12}}))
    assert main([
        "eval", "--pairs", workspace["pairs"], "--checkpoint", str(narrow),
        "--out", str(tmp_path / "r.json"),
    ]) == 4
    assert "feature widths (12, " in capsys.readouterr().err


def test_version_and_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit):
        main([])


def test_strict_pairs_rejects_bad_smiles(tmp_path, capsys):
    csv_path = tmp_path / "c.csv"
    rows = ["compound_id,target_id,smiles,ic50_nm"]
    rows.append("A,T1,CCO,100.0")
    rows.append("B,T1,C((C,100.0")
    csv_path.write_text("\n".join(rows) + "\n")
    out = str(tmp_path / "p.jsonl")
    assert main([
        "pairs", "--compounds", str(csv_path), "--out", out,
        "--min-pairs-per-target", "1", "--strict",
    ]) == 2
    # default mode skips the bad row with a warning and keeps going
    code = main(["pairs", "--compounds", str(csv_path), "--out", out, "--min-pairs-per-target", "1"])
    assert code == 0
    assert "warning: row 3 (B)" in capsys.readouterr().err
