import hashlib
import json
import shutil
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
    # an unlabelled dataset cannot be evaluated: the request is fine,
    # failure happens at run time
    data = tmp_path / "data"
    assert main(["synth", "--spec", str(workspace["specs"]), "--out", str(data)]) == 0
    manifest = data / "target" / "manifest.json"
    entries = json.loads(manifest.read_text())
    for entry in entries["subjects"]:
        entry["label"] = None
    manifest.write_text(json.dumps(entries))
    assert main(["eval", "--data", str(manifest),
                 "--checkpoint", str(workspace["pre_ckpt"]),
                 "--out", str(tmp_path / "e")]) == 1


def _edit_manifest(edit):
    def corrupt(manifest: Path) -> Path:
        data = json.loads(manifest.read_text())
        data = edit(data)
        manifest.write_text(data if isinstance(data, str) else json.dumps(data))
        return manifest
    return corrupt


def _drop_subject_key(key):
    def edit(data):
        del data["subjects"][1][key]
        return data
    return edit


def _edit_first_csv(edit):
    def corrupt(manifest: Path) -> Path:
        entry = json.loads(manifest.read_text())["subjects"][0]
        csv = manifest.parent / entry["path"]
        rows = [line.split(",") for line in csv.read_text().splitlines()]
        edit(rows)
        csv.write_text("".join(",".join(row) + "\n" for row in rows))
        return csv
    return corrupt


def _set_cell(value):
    def edit(rows):
        rows[0][1] = value
    return edit


@pytest.mark.parametrize("corrupt,message", [
    (_edit_manifest(lambda d: "{not json"), "is not valid UTF-8 JSON"),
    (_edit_manifest(lambda d: [d]), "the top level is not a JSON object"),
    (_edit_manifest(lambda d: {k: v for k, v in d.items() if k != "n_rois"}),
     "the top level lacks 'n_rois'"),
    (_edit_manifest(lambda d: {k: v for k, v in d.items() if k != "subjects"}),
     "the top level lacks 'subjects'"),
    (_edit_manifest(lambda d: {**d, "n_rois": "six"}),
     "the top level has an invalid 'n_rois': 'six'"),
    (_edit_manifest(lambda d: {**d, "subjects": [7]}), "subject 0 is not a JSON object"),
    (_edit_manifest(lambda d: {**d, "subjects": [{**d["subjects"][0], "label": "x"}]}),
     "has an invalid 'label': 'x'"),
    (_edit_manifest(_drop_subject_key("id")), "subject 1 lacks 'id'"),
    (_edit_manifest(_drop_subject_key("path")), "lacks 'path'"),
    (_edit_first_csv(_set_cell("abc")), "non-numeric cell 'abc'"),
    (_edit_first_csv(_set_cell("0.123")), "not symmetric"),
    (_edit_manifest(lambda d: {**d, "subjects": []}), "'subjects' is empty"),
], ids=["not-json", "not-object", "no-n_rois", "no-subjects", "n_rois-not-int",
        "subject-not-object", "label-not-int", "no-id", "no-path", "non-numeric-cell",
        "asymmetric-matrix", "no-subject-entries"])
def test_exit_code_malformed_dataset(workspace, tmp_path, capsys, corrupt, message):
    data = tmp_path / "source"
    shutil.copytree(workspace["source"].parent, data)
    named = corrupt(data / "manifest.json").resolve()
    out = tmp_path / "out"
    assert main(["pretrain", "--source", str(data / "manifest.json"),
                 "--out", str(out), *TRAIN_FLAGS]) == 2
    err = capsys.readouterr().err
    assert message in err and str(named) in err
    assert not out.exists()


@pytest.fixture(scope="module")
def data8(tmp_path_factory):
    """An 8-ROI synth dataset, against the workspace's 6-ROI checkpoints."""
    root = tmp_path_factory.mktemp("d8")
    specs = write_site_specs(root / "s8.json", n_rois=8)
    assert main(["synth", "--spec", str(specs), "--out", str(root / "d8")]) == 0
    return root / "d8" / "source" / "manifest.json"


@pytest.mark.parametrize("command", ["eval", "attn-top", "export-features", "adapt"])
def test_exit_code_roi_count_mismatch(workspace, data8, tmp_path, capsys, command):
    ckpt = str(workspace["pre_ckpt"])
    argv = {"eval": ["--data", str(data8), "--checkpoint", ckpt],
            "attn-top": ["--data", str(data8), "--checkpoint", ckpt],
            "export-features": ["--data", str(data8), "--mode", "encoded",
                                "--checkpoint", ckpt],
            "adapt": ["--source", str(workspace["source"]), "--target", str(data8),
                      "--init", ckpt, *TRAIN_FLAGS]}[command]
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "n_rois=8" in err and "d_model=6" in err
    assert str(data8) in err and ckpt in err
    assert not out.exists()


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
                 "--out", str(second)]) == 0
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


def test_rerun_rejects_invalid_manifest_config(workspace, tmp_path, capsys):
    # e.g. a manifest of an earlier version with a since-removed field
    manifest = json.loads((workspace["root"] / "pre" / "run_manifest.json").read_text())
    manifest["params"]["config"]["log_target_metrics"] = False
    path = tmp_path / "run_manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "again"
    assert main(["rerun", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "log_target_metrics" in err and str(path) in err
    assert not out.exists()


@pytest.mark.parametrize("field,value", [
    ("inputs", []), ("inputs", {}), ("params", []), ("command", "no-such-command")],
    ids=["inputs-list", "inputs-empty", "params-list", "unknown-command"])
def test_rerun_rejects_malformed_manifest(workspace, tmp_path, capsys, field, value):
    manifest = json.loads((workspace["root"] / "pre" / "run_manifest.json").read_text())
    manifest[field] = value
    path = tmp_path / "run_manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "again"
    assert main(["rerun", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert field in err and str(path) in err
    assert not out.exists()


def _valid_request(workspace, command):
    source, target = str(workspace["source"]), str(workspace["target"])
    pre = json.loads((workspace["root"] / "pre" / "run_manifest.json").read_text())
    inputs, params = {
        "attn-top": ({"data": target, "checkpoint": str(workspace["pre_ckpt"])}, {"k": 3}),
        "gradcheck": ({}, {"seeds": 1, "step": 1e-5}),
        "ablate": ({"source": source, "target": target},
                   {"config": pre["params"]["config"], "seeds": [0, 1]}),
        "export-features": ({"data": source}, {"mode": "raw-upper-triangle"}),
        "fcn": ({"series": [source]}, {}),
    }[command]
    return {"command": command, "inputs": inputs, "params": params}


@pytest.mark.parametrize("command,field,key,value", [
    ("attn-top", "params", "k", "3"), ("attn-top", "params", "k", 0),
    ("attn-top", "params", "k", True), ("attn-top", "inputs", "data", 5),
    ("attn-top", "inputs", "data", "no-such-dir/manifest.json"),
    ("attn-top", "inputs", "data", "<8-region data>"),
    ("gradcheck", "params", "seeds", 0), ("gradcheck", "params", "seeds", 1.5),
    ("gradcheck", "params", "step", 1.0), ("gradcheck", "params", "step", "1e-5"),
    ("ablate", "params", "seeds", [0, 0]), ("ablate", "params", "seeds", []),
    ("ablate", "params", "seeds", "0,1"), ("ablate", "inputs", "target", None),
    ("export-features", "params", "mode", "bogus"),
    ("fcn", "inputs", "series", "ts.csv"), ("fcn", "inputs", "series", [5]),
    ("fcn", "inputs", "series", [])],
    ids=["k-string", "k-zero", "k-bool", "data-number", "data-missing",
         "data-does-not-fit-checkpoint", "gradcheck-seeds-zero",
         "gradcheck-seeds-float", "step-out-of-range", "step-string", "repeated-seed",
         "no-seeds", "seeds-string", "target-null", "unknown-mode", "series-string",
         "series-number", "series-empty"])
def test_rerun_rejects_bad_manifest_values(workspace, data8, tmp_path, capsys,
                                           command, field, key, value):
    request = _valid_request(workspace, command)
    request[field][key] = str(data8) if value == "<8-region data>" else value
    path = tmp_path / "run_manifest.json"
    path.write_text(json.dumps(request))
    out = tmp_path / "again"
    assert main(["rerun", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and key in err
    assert not out.exists()


def test_rerun_runs_a_valid_hand_written_manifest(workspace, tmp_path):
    # the base of the bad-value cases above is itself a valid request
    path = tmp_path / "run_manifest.json"
    path.write_text(json.dumps(_valid_request(workspace, "attn-top")))
    assert main(["rerun", str(path), "--out", str(tmp_path / "again")]) == 0
    assert len((tmp_path / "again" / "connections.csv").read_text().splitlines()) == 4


@pytest.mark.parametrize("case", ["gamma-both", "raw-export-checkpoint", "repeated-seed"])
def test_exit_code_flag_that_would_be_ignored(workspace, tmp_path, capsys, case):
    source, target = str(workspace["source"]), str(workspace["target"])
    argv, flag = {
        "gamma-both": (["pretrain", "--source", source, "--gamma-fixed", "0.3",
                        "--gamma-max", "0.9"], "--gamma-max"),
        "raw-export-checkpoint": (["export-features", "--data", source, "--mode",
                                   "raw-upper-triangle", "--checkpoint",
                                   str(workspace["pre_ckpt"])], "--checkpoint"),
        "repeated-seed": (["ablate", "--source", source, "--target", target,
                           "--seeds", "0,0"], "--seeds"),
    }[case]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("flags,config", [
    (["--n-layers", "0"], None), (["--ffn-hidden", "0"], None),
    (["--clf-hidden", "0"], None), ([], {"ln_eps": 0})],
    ids=["n-layers", "ffn-hidden", "clf-hidden", "config-ln-eps"])
def test_exit_code_invalid_architecture(workspace, tmp_path, capsys, flags, config):
    extra = []
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        extra = ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "bad-arch"
    assert main(["pretrain", "--source", str(workspace["source"]), "--out", str(out),
                 *extra, *flags]) == 2
    assert "invalid config" in capsys.readouterr().err
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


def _edit_params(edit):
    """A corruption that rewrites the parameter list with `edit` and keeps
    the header, payload length and digest consistent."""
    def corrupt(blob: bytes) -> bytes:
        n = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + n])
        payload = np.frombuffer(blob[16 + n:], dtype="<f8")
        params, offset = [], 0
        for name, (rows, cols) in header["params"]:
            params.append((name, payload[offset:offset + rows * cols].reshape(rows, cols)))
            offset += rows * cols
        params = edit(params)
        data = b"".join(np.ascontiguousarray(a).tobytes() for _, a in params)
        header["params"] = [[name, list(a.shape)] for name, a in params]
        header["sha256"] = hashlib.sha256(data).hexdigest()
        raw = json.dumps(header).encode()
        return blob[:8] + len(raw).to_bytes(8, "little") + raw + data
    return corrupt


@pytest.mark.parametrize("corrupt,message", [
    (lambda blob: LEGACY_JSON, "JSON checkpoint of an earlier version"),
    (lambda blob: blob[:len(blob) // 2], "truncated"),
    (lambda blob: blob[:12], "truncated inside its header"),
    (_garble_header, "header is not JSON"),
    (_empty_header, "header is malformed"),
    (lambda blob: blob + bytes(8), "header shapes need"),
    (_flip_last_byte, "sha256"),
    (_edit_params(lambda ps: [p for p in ps if p[0] != "layer1.ln2.b"]),
     "lacks parameter layer1.ln2.b"),
    (_edit_params(lambda ps: [(n, a.T if n == "clf.W2" else a) for n, a in ps]),
     "parameter clf.W2 has shape (2, 8), expected (8, 2)"),
    (_edit_params(lambda ps: ps + [("layer2.W", np.zeros((1, 6)))]),
     "unexpected parameter layer2.W"),
], ids=["legacy-json", "truncated-payload", "truncated-header", "header-not-json",
        "header-malformed", "payload-length", "digest", "missing-parameter",
        "transposed-parameter", "extra-parameter"])
def test_exit_code_malformed_checkpoint(workspace, tmp_path, capsys, corrupt, message):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(corrupt(workspace["pre_ckpt"].read_bytes()))
    assert main(["eval", "--data", str(workspace["target"]),
                 "--checkpoint", str(bad), "--out", str(tmp_path / "e")]) == 2
    err = capsys.readouterr().err
    assert message in err and str(bad) in err
