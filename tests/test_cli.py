import json
from pathlib import Path

import numpy as np
import pytest

from aufa.cli import main


def write_site_specs(path, per_class=6, n_rois=6):
    spec = {
        "source": {"n_subjects_per_class": per_class, "n_rois": n_rois,
                   "series_length": 50, "class_separation": 0.8,
                   "noise_std": 0.5, "seed": 1},
        "target": {"n_subjects_per_class": per_class, "n_rois": n_rois,
                   "series_length": 50, "class_separation": 0.8,
                   "shift_rotation_strength": 0.3, "shift_offset_strength": 0.2,
                   "noise_std": 0.5, "seed": 2},
    }
    path.write_text(json.dumps(spec))
    return path


TRAIN_FLAGS = ["--epochs-pretrain", "1", "--epochs-adapt", "1",
               "--batch-size", "4", "--n-layers", "2", "--n-heads", "2",
               "--ffn-hidden", "8", "--clf-hidden", "8", "--lr", "1e-3"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared synth + pretrain + adapt artifacts for the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    specs = write_site_specs(root / "specs.json")
    assert main(["synth", "--spec", str(specs), "--out", str(root / "data")]) == 0
    source = root / "data" / "source" / "manifest.json"
    target = root / "data" / "target" / "manifest.json"
    assert main(["pretrain", "--source", str(source), "--out", str(root / "pre"),
                 "--seed", "3", *TRAIN_FLAGS]) == 0
    ckpt = root / "pre" / "checkpoint.bin"
    assert main(["adapt", "--source", str(source), "--target", str(target),
                 "--init", str(ckpt), "--out", str(root / "ad"),
                 "--seed", "3", *TRAIN_FLAGS]) == 0
    return {"root": root, "specs": specs, "source": source, "target": target,
            "pre_ckpt": ckpt, "adapt_ckpt": root / "ad" / "checkpoint.bin"}


def test_synth_outputs(workspace):
    data = workspace["root"] / "data"
    manifest = json.loads((data / "source" / "manifest.json").read_text())
    assert manifest["n_rois"] == 6
    assert len(manifest["subjects"]) == 12
    assert (data / "run_manifest.json").exists()


def test_pretrain_outputs(workspace):
    pre = workspace["root"] / "pre"
    for name in ("checkpoint.bin", "runlog.jsonl", "config.json", "run_manifest.json"):
        assert (pre / name).exists(), name
    config = json.loads((pre / "config.json").read_text())
    assert config["seed"] == 3
    assert config["epochs_pretrain"] == 1
    log_lines = (pre / "runlog.jsonl").read_text().strip().split("\n")
    assert len(log_lines) == 1


def test_adapt_runlog(workspace):
    lines = (workspace["root"] / "ad" / "runlog.jsonl").read_text().strip().split("\n")
    recs = [json.loads(l) for l in lines]
    assert all(r["stage"] == "adapt" for r in recs)
    assert all(0.0 <= r["kept_fraction"] <= 1.0 for r in recs)


def test_eval_metrics_schema(workspace, tmp_path):
    out = tmp_path / "eval"
    assert main(["eval", "--data", str(workspace["target"]),
                 "--checkpoint", str(workspace["pre_ckpt"]),
                 "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    for key in ("accuracy", "precision", "recall", "auc", "f1",
                "tp", "fp", "tn", "fn", "n_subjects", "flags"):
        assert key in metrics, key
    assert metrics["n_subjects"] == 12
    assert metrics["tp"] + metrics["fp"] + metrics["tn"] + metrics["fn"] == 12
    assert 0.0 <= metrics["accuracy"] <= 1.0


def test_eval_random_init_near_chance(tmp_path):
    # a zero-epoch pretrain gives an untrained checkpoint
    specs = write_site_specs(tmp_path / "specs.json", per_class=25)
    assert main(["synth", "--spec", str(specs), "--out", str(tmp_path / "d")]) == 0
    source = tmp_path / "d" / "source" / "manifest.json"
    assert main(["pretrain", "--source", str(source), "--out", str(tmp_path / "p"),
                 "--epochs-pretrain", "0", "--batch-size", "4",
                 "--n-layers", "2", "--n-heads", "2",
                 "--ffn-hidden", "8", "--clf-hidden", "8"]) == 0
    out = tmp_path / "e"
    assert main(["eval", "--data", str(source),
                 "--checkpoint", str(tmp_path / "p" / "checkpoint.bin"),
                 "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.25 <= metrics["accuracy"] <= 0.75


def test_attn_top(workspace, tmp_path):
    out = tmp_path / "attn"
    assert main(["attn-top", "--data", str(workspace["target"]),
                 "--checkpoint", str(workspace["adapt_ckpt"]),
                 "--k", "5", "--out", str(out)]) == 0
    lines = (out / "connections.csv").read_text().strip().split("\n")
    assert lines[0] == "roi_i,roi_j,weight"
    assert len(lines) == 6
    weights = [float(l.split(",")[2]) for l in lines[1:]]
    assert all(a >= b for a, b in zip(weights, weights[1:]))


def test_export_features_raw(workspace, tmp_path):
    out = tmp_path / "raw"
    assert main(["export-features", "--data", str(workspace["source"]),
                 "--mode", "raw-upper-triangle", "--out", str(out)]) == 0
    lines = (out / "features.csv").read_text().strip().split("\n")
    assert len(lines[0].split(",")) == 3 + 15  # N(N-1)/2 = 15 for N=6


def test_export_features_encoded_needs_checkpoint(workspace, tmp_path):
    assert main(["export-features", "--data", str(workspace["source"]),
                 "--mode", "encoded", "--out", str(tmp_path / "x")]) == 2
    out = tmp_path / "enc"
    assert main(["export-features", "--data", str(workspace["source"]),
                 "--mode", "encoded", "--checkpoint", str(workspace["pre_ckpt"]),
                 "--out", str(out)]) == 0
    lines = (out / "features.csv").read_text().strip().split("\n")
    assert len(lines[0].split(",")) == 3 + 36  # N*N encoded features


def test_gradcheck_command(tmp_path, capsys):
    out = tmp_path / "gc"
    assert main(["gradcheck", "--seeds", "1", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "overall max relative error" in captured
    payload = json.loads((out / "gradcheck.json").read_text())
    assert payload["max_relative_error"] <= 1e-4


def test_exit_codes_bad_usage(workspace, tmp_path):
    assert main(["no-such-command"]) == 2
    assert main(["pretrain", "--bogus-flag", "1"]) == 2
    assert main(["pretrain", "--source", "missing.json",
                 "--out", str(tmp_path / "x")]) == 2
    # invalid config value
    assert main(["pretrain", "--source", str(workspace["source"]),
                 "--epsilon", "0.4", "--out", str(tmp_path / "y")]) == 2


def test_exit_code_architecture_mismatch(workspace, tmp_path):
    assert main(["adapt", "--source", str(workspace["source"]),
                 "--target", str(workspace["target"]),
                 "--init", str(workspace["pre_ckpt"]),
                 "--n-layers", "3", "--out", str(tmp_path / "z"),
                 "--epochs-adapt", "1"]) == 2


def test_exit_code_runtime_failure(workspace, tmp_path):
    # dataset dimensions do not match the checkpoint: config is fine,
    # failure happens at run time
    specs = write_site_specs(tmp_path / "s8.json", n_rois=8)
    assert main(["synth", "--spec", str(specs), "--out", str(tmp_path / "d8")]) == 0
    assert main(["eval", "--data", str(tmp_path / "d8" / "source" / "manifest.json"),
                 "--checkpoint", str(workspace["pre_ckpt"]),
                 "--out", str(tmp_path / "e8")]) == 1


def test_config_file_with_flag_override(workspace, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"lr": 1e-3, "epochs_pretrain": 1,
                                    "batch_size": 4, "n_layers": 2,
                                    "n_heads": 2, "ffn_hidden": 8,
                                    "clf_hidden": 8}))
    out = tmp_path / "run"
    assert main(["pretrain", "--source", str(workspace["source"]),
                 "--config", str(cfg_file), "--lr", "5e-4",
                 "--out", str(out)]) == 0
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["lr"] == 5e-4  # flag wins over file
    assert resolved["batch_size"] == 4


def test_fcn_command(tmp_path):
    series = tmp_path / "ts.csv"
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(30, 4))
    series.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n")
    out = tmp_path / "fcn"
    assert main(["fcn", str(series), "--out", str(out)]) == 0
    fcn_lines = (out / "ts_fcn.csv").read_text().strip().split("\n")
    assert len(fcn_lines) == 4
    m = np.array([[float(v) for v in l.split(",")] for l in fcn_lines])
    assert np.array_equal(np.diag(m), np.ones(4))


def read_tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_rerun_reproduces_bitwise(workspace, tmp_path):
    first = tmp_path / "first"
    assert main(["pretrain", "--source", str(workspace["source"]),
                 "--out", str(first), "--seed", "7", *TRAIN_FLAGS]) == 0
    second = tmp_path / "second"
    assert main(["rerun", str(first / "run_manifest.json"),
                 "--out", str(second), "--serial"]) == 0
    assert read_tree(first) == read_tree(second)


def test_rerun_adapt_bitwise(workspace, tmp_path):
    first = tmp_path / "a1"
    assert main(["adapt", "--source", str(workspace["source"]),
                 "--target", str(workspace["target"]),
                 "--init", str(workspace["pre_ckpt"]),
                 "--out", str(first), "--seed", "11", *TRAIN_FLAGS]) == 0
    second = tmp_path / "a2"
    assert main(["rerun", str(first / "run_manifest.json"),
                 "--out", str(second)]) == 0
    assert read_tree(first) == read_tree(second)


def test_rerun_synth_bitwise(workspace, tmp_path):
    first = tmp_path / "s1"
    assert main(["synth", "--spec", str(workspace["specs"]),
                 "--out", str(first)]) == 0
    second = tmp_path / "s2"
    assert main(["rerun", str(first / "run_manifest.json"),
                 "--out", str(second)]) == 0
    assert read_tree(first) == read_tree(second)


def test_ablate_command(tmp_path):
    specs = write_site_specs(tmp_path / "specs.json", per_class=8)
    assert main(["synth", "--spec", str(specs), "--out", str(tmp_path / "d")]) == 0
    out = tmp_path / "abl"
    assert main(["ablate",
                 "--source", str(tmp_path / "d" / "source" / "manifest.json"),
                 "--target", str(tmp_path / "d" / "target" / "manifest.json"),
                 "--seeds", "0,1", "--out", str(out), *TRAIN_FLAGS]) == 0
    payload = json.loads((out / "ablation.json").read_text())
    variants = [row["variant"] for row in payload["rows"]]
    assert variants == ["pretrain", "AUFA-C", "AUFA-AUG", "AUFA-MMD", "AUFA"]
    csv_lines = (out / "ablation.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 6


def test_training_outputs_are_exactly_the_manifest(workspace):
    # the atomic checkpoint write leaves no temp file behind
    for run in ("pre", "ad"):
        out = workspace["root"] / run
        manifest = json.loads((out / "run_manifest.json").read_text())
        listed = set(manifest["outputs"]) | {"run_manifest.json"}
        assert {p.name for p in out.iterdir()} == listed


@pytest.mark.parametrize("field,value", [("ln_eps", 1e-3), ("d_head", 2)])
def test_exit_code_config_file_architecture_mismatch(workspace, tmp_path, capsys,
                                                     field, value):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({field: value}))
    out = tmp_path / "mismatch"
    assert main(["adapt", "--source", str(workspace["source"]),
                 "--target", str(workspace["target"]),
                 "--init", str(workspace["pre_ckpt"]), "--config", str(cfg_file),
                 "--out", str(out), *TRAIN_FLAGS]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_undecodable_config_file(workspace, tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_bytes(b"\xff\xfe\x00binary")
    assert main(["pretrain", "--source", str(workspace["source"]),
                 "--config", str(cfg_file), "--out", str(tmp_path / "x")]) == 2
    assert str(cfg_file) in capsys.readouterr().err


def test_exit_code_undecodable_run_manifest(tmp_path, capsys):
    manifest = tmp_path / "run_manifest.json"
    manifest.write_bytes(b"\x80\x81\x82")
    assert main(["rerun", str(manifest), "--out", str(tmp_path / "x")]) == 2
    assert str(manifest) in capsys.readouterr().err


def _flip_last_byte(blob: bytes) -> bytes:
    return blob[:-1] + bytes([blob[-1] ^ 1])


def _garble_header(blob: bytes) -> bytes:
    n = int.from_bytes(blob[8:16], "little")
    return blob[:16] + b"\xff" * n + blob[16 + n:]


LEGACY_JSON = b'{"config": {"n_layers": 2}, "params": {}}\n'


def _empty_header(blob: bytes) -> bytes:
    n = int.from_bytes(blob[8:16], "little")
    return blob[:8] + (2).to_bytes(8, "little") + b"{}" + blob[16 + n:]


@pytest.mark.parametrize("corrupt,message", [
    (lambda blob: LEGACY_JSON, "JSON checkpoint of an earlier version"),
    (lambda blob: blob[:len(blob) // 2], "truncated"),
    (lambda blob: blob[:12], "truncated inside its header"),
    (_garble_header, "header is not JSON"),
    (_empty_header, "header is malformed"),
    (lambda blob: blob + bytes(8), "header shapes need"),
    (_flip_last_byte, "sha256"),
], ids=["legacy-json", "truncated-payload", "truncated-header", "header-not-json",
        "header-malformed", "payload-length", "digest"])
def test_exit_code_malformed_checkpoint(workspace, tmp_path, capsys, corrupt, message):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(corrupt(workspace["pre_ckpt"].read_bytes()))
    assert main(["eval", "--data", str(workspace["target"]),
                 "--checkpoint", str(bad), "--out", str(tmp_path / "e")]) == 2
    err = capsys.readouterr().err
    assert message in err and str(bad) in err
