"""Byte-identity ledger: the sha256 of every output of one small fixed
pipeline, run through the CLI at 8 regions.

The pipeline is `synth`; `pretrain`; `adapt` at (lambda1, lambda2) of
(1, 1), (1, 0), (0, 1) and (0, 0); `eval`; `attn-top`; raw and encoded
`export-features`; `gradcheck --seeds 1`; and a 2-seed `ablate`. Every
output file but `run_manifest.json` (which holds input paths) is digested.

The digests depend on the BLAS kernels, so `ledger.json` stores the
environment it was made in beside them, and the test skips under another
one. The test never writes the ledger. A change that is meant to alter
outputs regenerates it with

    PYTHONPATH=src python tests/test_ledger.py

and names every changed digest and its reason in CHANGES.md.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from aufa.cli import main

LEDGER = Path(__file__).with_name("ledger.json")

SPEC = {
    "source": {"n_subjects_per_class": 8, "n_rois": 8, "series_length": 60,
               "class_separation": 0.8, "noise_std": 0.5, "seed": 1},
    "target": {"n_subjects_per_class": 8, "n_rois": 8, "series_length": 60,
               "class_separation": 0.8, "shift_rotation_strength": 0.3,
               "shift_offset_strength": 0.2, "noise_std": 0.5, "seed": 2},
}

MODEL_FLAGS = ["--batch-size", "6", "--n-layers", "2", "--n-heads", "2",
               "--ffn-hidden", "8", "--clf-hidden", "64", "--lr", "1e-3", "--seed", "0"]
TRAIN_FLAGS = ["--epochs-pretrain", "3", "--epochs-adapt", "3", *MODEL_FLAGS]


def environment() -> dict:
    """What the digests depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"machine": platform.machine(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_pipeline(root: Path) -> dict[str, str]:
    """Run the ledger pipeline under `root`; sha256 of every output file,
    keyed by its path relative to `root`."""
    spec = root / "spec.json"
    spec.write_text(json.dumps(SPEC))
    source = str(root / "synth" / "source" / "manifest.json")
    target = str(root / "synth" / "target" / "manifest.json")
    pre = str(root / "pretrain" / "checkpoint.bin")
    commands = {
        "synth": ["synth", "--spec", str(spec)],
        "pretrain": ["pretrain", "--source", source, *TRAIN_FLAGS],
        **{f"adapt-{l1}{l2}": ["adapt", "--source", source, "--target", target,
                               "--init", pre, "--lambda1", l1, "--lambda2", l2,
                               *TRAIN_FLAGS]
           for l1, l2 in (("1", "1"), ("1", "0"), ("0", "1"), ("0", "0"))},
        "eval": ["eval", "--data", target, "--checkpoint", pre],
        "attn-top": ["attn-top", "--data", target, "--checkpoint", pre, "--k", "1000"],
        "export-raw": ["export-features", "--data", source],
        "export-encoded": ["export-features", "--data", target, "--mode", "encoded",
                           "--checkpoint", str(root / "adapt-11" / "checkpoint.bin")],
        "gradcheck": ["gradcheck", "--seeds", "1"],
        "ablate": ["ablate", "--source", source, "--target", target, "--seeds", "0,1",
                   "--epochs-pretrain", "1", "--epochs-adapt", "1", *MODEL_FLAGS],
    }
    for out, argv in commands.items():
        assert main([*argv, "--out", str(root / out)]) == 0, out
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for out in commands for p in sorted((root / out).rglob("*"))
            if p.is_file() and p.name != "run_manifest.json"}


def test_outputs_match_the_ledger(tmp_path):
    ledger = json.loads(LEDGER.read_text())
    if ledger["environment"] != environment():
        pytest.skip(f"ledger made under {ledger['environment']}, "
                    f"this is {environment()}")
    got = run_pipeline(tmp_path)
    want = ledger["files"]
    differ = sorted(name for name in want.keys() | got.keys()
                    if want.get(name) != got.get(name))
    assert not differ, f"outputs differ from the ledger: {differ}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = run_pipeline(Path(tmp))
    LEDGER.write_text(json.dumps({"environment": environment(), "files": files},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(files)} digests to {LEDGER}", file=sys.stderr)
