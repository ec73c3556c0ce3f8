"""Command-line entry point.

Every command resolves its inputs and configuration up front, runs, and
writes a run manifest (run_manifest.json) into the output directory; the
`rerun` command re-executes any manifest and reproduces the same output
files byte for byte. Exit codes: 0 success, 1 runtime failure, 2 bad
flags, invalid configuration, malformed input data (a dataset manifest,
time-series or connectivity CSV), a malformed checkpoint or one that does
not fit a dataset's region count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import benchmark as bm
from .connectome import DataError, SiteSpec, load_dataset, load_timeseries, \
    pearson_fcn, save_dataset, synth_multisite, write_csv_matrix
from .evalreport import ConnectionRanking, aggregate_attention, evaluate_model, \
    export_features, predict_dataset
from .gradcheck import run_suite
from .model import CheckpointError, load_checkpoint, read_checkpoint_config, \
    save_checkpoint
from .trainer import TrainConfig, adapt, pretrain

GRADCHECK_TOLERANCE = 1e-4


class ConfigError(ValueError):
    """Invalid flags, config files, or inconsistent inputs (exit 2)."""


def _require_file(path: str, what: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return str(p.resolve())


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} is not valid UTF-8 JSON: {path} ({exc})") from None


# TrainConfig fields that have a flag of the same name
_OVERRIDES = ("seed", "lr", "epochs_pretrain", "epochs_adapt", "batch_size",
              "lambda1", "lambda2", "epsilon", "n_layers", "n_heads",
              "ffn_hidden", "clf_hidden")


def _config_overrides(args: argparse.Namespace) -> dict:
    out = {key: getattr(args, key) for key in _OVERRIDES
           if getattr(args, key, None) is not None}
    if getattr(args, "gamma_fixed", None) is not None:
        out["gamma_policy"] = {"kind": "fixed", "value": args.gamma_fixed}
    elif getattr(args, "gamma_max", None) is not None:
        out["gamma_policy"] = {"kind": "uniform", "value": args.gamma_max}
    return out


def _resolve_config(args: argparse.Namespace) -> TrainConfig:
    """The --config file, if any, overridden by the flags."""
    base: dict = {}
    if args.config:
        path = _require_file(args.config, "config file")
        base = _load_json(path, "config file")
        if not isinstance(base, dict):
            raise ConfigError(f"config file must hold a JSON object: {path}")
    base.update(_config_overrides(args))
    try:
        return TrainConfig.from_dict(base)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from None


def _check_architecture(config: TrainConfig, checkpoint_path: str) -> None:
    ckpt, clf_hidden = read_checkpoint_config(checkpoint_path)
    want = config.encoder_config(ckpt.d_model)
    pairs = [(key, getattr(want, key), getattr(ckpt, key))
             for key in ("n_layers", "n_heads", "ffn_hidden", "ln_eps")]
    # d_head None means d_model // n_heads, so compare resolved head widths
    pairs += [("d_head", want.head_width, ckpt.head_width),
              ("clf_hidden", config.clf_hidden, clf_hidden)]
    for key, ours, theirs in pairs:
        if ours != theirs:
            raise ConfigError(
                f"config {key}={ours} does not match checkpoint {key}={theirs}: "
                f"{checkpoint_path}")


def _check_rois(checkpoint_path: str, *manifest_paths: str) -> None:
    """Every dataset must have as many regions as the checkpoint's d_model."""
    d_model = read_checkpoint_config(checkpoint_path)[0].d_model
    for path in manifest_paths:
        manifest = _load_json(path, "dataset manifest")
        n_rois = manifest.get("n_rois") if isinstance(manifest, dict) else None
        if n_rois != d_model:
            raise ConfigError(f"dataset {path} has n_rois={n_rois}, but checkpoint "
                              f"{checkpoint_path} has d_model={d_model}")


# ---------------------------------------------------------------------------
# request construction and validation


def _build_request(args: argparse.Namespace) -> dict:
    cmd = args.command
    if cmd == "synth":
        return {"command": cmd,
                "inputs": {"spec": _require_file(args.spec, "site spec")},
                "params": {}}
    if cmd == "fcn":
        return {"command": cmd,
                "inputs": {"series": [_require_file(p, "time series") for p in args.series]},
                "params": {}}
    if cmd == "pretrain":
        config = _resolve_config(args)
        return {"command": cmd,
                "inputs": {"source": _require_file(args.source, "source manifest")},
                "params": {"config": config.to_dict()}}
    if cmd == "adapt":
        config = _resolve_config(args)
        inputs = {"source": _require_file(args.source, "source manifest"),
                  "target": _require_file(args.target, "target manifest"),
                  "checkpoint": _require_file(args.init, "checkpoint")}
        _check_architecture(config, inputs["checkpoint"])
        _check_rois(inputs["checkpoint"], inputs["source"], inputs["target"])
        return {"command": cmd, "inputs": inputs, "params": {"config": config.to_dict()}}
    if cmd in ("eval", "attn-top"):
        if cmd == "attn-top" and args.k < 1:
            raise ConfigError("--k must be positive")
        inputs = {"data": _require_file(args.data, "dataset manifest"),
                  "checkpoint": _require_file(args.checkpoint, "checkpoint")}
        _check_rois(inputs["checkpoint"], inputs["data"])
        return {"command": cmd, "inputs": inputs,
                "params": {"k": args.k} if cmd == "attn-top" else {}}
    if cmd == "export-features":
        if args.mode not in ("raw-upper-triangle", "encoded"):
            raise ConfigError(f"unknown export mode {args.mode!r}")
        inputs = {"data": _require_file(args.data, "dataset manifest")}
        if args.mode == "encoded":
            if not args.checkpoint:
                raise ConfigError("encoded export needs --checkpoint")
            inputs["checkpoint"] = _require_file(args.checkpoint, "checkpoint")
            _check_rois(inputs["checkpoint"], inputs["data"])
        return {"command": cmd, "inputs": inputs, "params": {"mode": args.mode}}
    if cmd == "gradcheck":
        if args.seeds < 1:
            raise ConfigError("--seeds must be positive")
        if not 1e-7 <= args.step <= 1e-3:
            raise ConfigError("--step must lie in [1e-7, 1e-3]")
        return {"command": cmd, "inputs": {},
                "params": {"seeds": args.seeds, "step": args.step}}
    if cmd == "ablate":
        config = _resolve_config(args)
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
        except ValueError:
            raise ConfigError(f"--seeds must be comma-separated integers: {args.seeds!r}")
        if not seeds:
            raise ConfigError("--seeds must name at least one seed")
        return {"command": cmd,
                "inputs": {"source": _require_file(args.source, "source manifest"),
                           "target": _require_file(args.target, "target manifest")},
                "params": {"config": config.to_dict(), "seeds": seeds}}
    raise ConfigError(f"unknown command {cmd!r}")


# ---------------------------------------------------------------------------
# command execution


def _write_json(payload, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _execute(request: dict, out_dir: Path) -> int:
    cmd = request["command"]
    inputs = request["inputs"]
    params = request["params"]
    # a malformed dataset fails here, before the output directory exists
    datasets = {key: load_dataset(inputs[key])
                for key in ("source", "target", "data") if key in inputs}
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []

    if cmd == "synth":
        spec = _load_json(inputs["spec"], "site spec")
        try:
            source_spec = SiteSpec(**spec["source"])
            target_spec = SiteSpec(**spec["target"])
        except (KeyError, TypeError, DataError) as exc:
            raise ConfigError(f"invalid site spec: {exc}") from None
        source, target = synth_multisite(source_spec, target_spec)
        save_dataset(source, out_dir / "source")
        save_dataset(target, out_dir / "target")
        outputs += ["source/manifest.json", "target/manifest.json"]

    elif cmd == "fcn":
        for path in inputs["series"]:
            ts = load_timeseries(path)
            fcn = pearson_fcn(ts)
            name = f"{Path(path).stem}_fcn.csv"
            write_csv_matrix(fcn.values, out_dir / name)
            outputs.append(name)

    elif cmd in ("pretrain", "adapt"):
        config = TrainConfig.from_dict(params["config"])
        if cmd == "pretrain":
            model, _, log = pretrain(datasets["source"], config)
        else:
            model = load_checkpoint(inputs["checkpoint"])
            model, log = adapt(model, datasets["source"], datasets["target"], config)
        save_checkpoint(model, out_dir / "checkpoint.bin")
        log.save(out_dir / "runlog.jsonl")
        _write_json(config.to_dict(), out_dir / "config.json")
        outputs += ["checkpoint.bin", "runlog.jsonl", "config.json"]

    elif cmd == "eval":
        model = load_checkpoint(inputs["checkpoint"])
        report = evaluate_model(model, datasets["data"])
        _write_json(report.to_dict(), out_dir / "metrics.json")
        print(json.dumps(report.to_dict(), indent=2))
        outputs.append("metrics.json")

    elif cmd == "attn-top":
        model = load_checkpoint(inputs["checkpoint"])
        _, _, maps = predict_dataset(model, datasets["data"], with_maps=True)
        ranking = aggregate_attention(maps)
        top = ranking.top(params["k"])
        ConnectionRanking(tuple(top)).write_csv(out_dir / "connections.csv")
        for i, j, w in top:
            print(f"{i:4d} {j:4d} {w:.6f}")
        outputs.append("connections.csv")

    elif cmd == "export-features":
        model = load_checkpoint(inputs["checkpoint"]) if "checkpoint" in inputs else None
        table = export_features(datasets["data"], params["mode"], model)
        table.write_csv(out_dir / "features.csv")
        outputs.append("features.csv")

    elif cmd == "gradcheck":
        results, worst = run_suite(seeds=params["seeds"], step=params["step"])
        for name in sorted(results):
            print(f"{name:<16} max_rel_err {results[name]:.3e}")
        print(f"overall max relative error: {worst:.3e}")
        _write_json({"results": results, "max_relative_error": worst},
                    out_dir / "gradcheck.json")
        outputs.append("gradcheck.json")
        if worst > GRADCHECK_TOLERANCE:
            _write_manifest(request, out_dir, outputs)
            return 1

    elif cmd == "ablate":
        config = TrainConfig.from_dict(params["config"])
        result = bm.run_ablation(datasets["source"], datasets["target"], config,
                                 seeds=params["seeds"])
        rows = result.table_rows()
        _write_json({"seeds": list(result.seeds), "rows": rows},
                    out_dir / "ablation.json")
        with open(out_dir / "ablation.csv", "w", encoding="utf-8", newline="\n") as fh:
            cols = list(rows[0].keys())
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(str(row[c]) for c in cols) + "\n")
        print(result.format_table())
        outputs += ["ablation.json", "ablation.csv"]

    else:
        raise ConfigError(f"unknown command {cmd!r}")

    _write_manifest(request, out_dir, outputs)
    return 0


def _write_manifest(request: dict, out_dir: Path, outputs: list[str]) -> None:
    manifest = {
        "command": request["command"],
        "inputs": request["inputs"],
        "params": request["params"],
        "outputs": outputs,
    }
    _write_json(manifest, out_dir / "run_manifest.json")


# ---------------------------------------------------------------------------
# argument parsing


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file mirroring TrainConfig fields")
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs-pretrain", dest="epochs_pretrain", type=int)
    p.add_argument("--epochs-adapt", dest="epochs_adapt", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--gamma-fixed", dest="gamma_fixed", type=float)
    p.add_argument("--gamma-max", dest="gamma_max", type=float)
    p.add_argument("--n-layers", dest="n_layers", type=int)
    p.add_argument("--n-heads", dest="n_heads", type=int)
    p.add_argument("--ffn-hidden", dest="ffn_hidden", type=int)
    p.add_argument("--clf-hidden", dest="clf_hidden", type=int)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aufa",
        description="Cross-site adaptation for connectivity-graph classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="output directory (default $AUFA_OUT/<command>)")
        p.add_argument("--serial", action="store_true",
                       help="force fully sequential execution (the default mode)")
        return p

    p = add("synth", "generate paired source/target datasets from a site-spec JSON")
    p.add_argument("--spec", required=True)

    p = add("fcn", "convert time-series CSVs to connectivity CSVs")
    p.add_argument("series", nargs="+")

    p = add("pretrain", "stage one: source-only supervised training")
    p.add_argument("--source", required=True)
    _add_config_flags(p)

    p = add("adapt", "stage two: joint-loss adaptation to an unlabelled target")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--init", required=True, help="pretrained checkpoint")
    _add_config_flags(p)

    p = add("eval", "metrics JSON for a labelled dataset under a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)

    p = add("attn-top", "strongest mean-attention region pairs")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--k", type=int, default=10)

    p = add("export-features", "per-subject feature table (raw or encoded)")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", default="raw-upper-triangle")
    p.add_argument("--checkpoint")

    p = add("gradcheck", "finite-difference gradient suite")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--step", type=float, default=1e-5)

    p = add("ablate", "train and compare all loss-ablation variants")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--seeds", default="0,1,2,3,4")
    _add_config_flags(p)

    p = add("rerun", "re-execute a previous run from its manifest")
    p.add_argument("manifest")

    return parser


def _default_out(command: str) -> Path:
    base = os.environ.get("AUFA_OUT", "runs")
    return Path(base) / command


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        if args.command == "rerun":
            manifest_path = _require_file(args.manifest, "run manifest")
            request = _load_json(manifest_path, "run manifest")
            for key in ("command", "inputs", "params"):
                if key not in request:
                    raise ConfigError(f"run manifest missing {key!r}: {manifest_path}")
            if "config" in request["params"]:
                try:
                    TrainConfig.from_dict(request["params"]["config"])
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"invalid config in run manifest "
                                      f"{manifest_path}: {exc}") from None
            out_dir = Path(args.out) if args.out else _default_out(request["command"])
        else:
            request = _build_request(args)
            out_dir = Path(args.out) if args.out else _default_out(args.command)
    except (ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        return _execute(request, out_dir)
    except (ConfigError, CheckpointError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
