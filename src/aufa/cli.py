"""Command-line entry point.

Every command resolves its inputs and configuration up front, runs, and
writes a run manifest (run_manifest.json) into the output directory; the
`rerun` command re-executes any manifest and reproduces the same output
files byte for byte. Exit codes: 0 success, 1 runtime failure, 2 bad
flags or run manifest, invalid configuration, malformed input data (a
dataset manifest, time-series or connectivity CSV), a malformed checkpoint
or one that does not fit a dataset's region count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import benchmark as bm
from .connectome import DataError, SiteSpec, load_dataset, load_timeseries, \
    pearson_fcn, save_dataset, synth_multisite, write_csv_matrix
from .evalreport import ConnectionRanking, aggregate_attention, attention_maps, \
    evaluate_model, export_features
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


def _check_checkpoint(checkpoint_path: str, *manifest_paths: str,
                      config: TrainConfig | None = None) -> None:
    """The checkpoint's architecture must be the one `config`, if given, gives,
    and every dataset must have as many regions as its d_model."""
    ckpt = read_checkpoint_config(checkpoint_path)
    if config is not None:
        # d_head None means d_model // n_heads, so compare resolved head widths
        ours, theirs = (asdict(replace(c, d_head=c.head_width))
                        for c in (config.model_config(ckpt.d_model), ckpt))
        for key, value in ours.items():
            if value != theirs[key]:
                raise ConfigError(f"config {key}={value} does not match checkpoint "
                                  f"{key}={theirs[key]}: {checkpoint_path}")
    for path in manifest_paths:
        manifest = _load_json(path, "dataset manifest")
        n_rois = manifest.get("n_rois") if isinstance(manifest, dict) else None
        if n_rois != ckpt.d_model:
            raise ConfigError(f"dataset {path} has n_rois={n_rois}, but checkpoint "
                              f"{checkpoint_path} has d_model={ckpt.d_model}")


# ---------------------------------------------------------------------------
# request construction and validation


def _build_request(args: argparse.Namespace) -> dict:
    cmd = args.command
    inputs: dict = {}
    params: dict = {}
    if cmd in ("pretrain", "adapt", "ablate"):
        params["config"] = _resolve_config(args).to_dict()
        inputs["source"] = args.source
        if cmd != "pretrain":
            inputs["target"] = args.target
    if cmd in ("eval", "attn-top", "export-features"):
        inputs["data"] = args.data
    if cmd == "synth":
        inputs["spec"] = args.spec
    elif cmd == "fcn":
        inputs["series"] = args.series
    elif cmd == "adapt":
        inputs["checkpoint"] = args.init
    elif cmd in ("eval", "attn-top"):
        inputs["checkpoint"] = args.checkpoint
        if cmd == "attn-top":
            params["k"] = args.k
    elif cmd == "export-features":
        if args.mode == "encoded":
            if not args.checkpoint:
                raise ConfigError("encoded export needs --checkpoint")
            inputs["checkpoint"] = args.checkpoint
        elif args.checkpoint:
            raise ConfigError("--checkpoint is only read with --mode encoded")
        params["mode"] = args.mode
    elif cmd == "gradcheck":
        params.update(seeds=args.seeds, step=args.step)
    elif cmd == "ablate":
        try:
            params["seeds"] = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
        except ValueError:
            raise ConfigError(f"--seeds must be comma-separated integers: {args.seeds!r}")
    request = {"command": cmd, "inputs": inputs, "params": params}
    _check_values(request)
    _check_inputs(request)
    return request


# what each input file is, for the message when it is missing
_INPUT_NAMES = {"source": "source manifest", "target": "target manifest",
                "data": "dataset manifest", "spec": "site spec", "series": "time series",
                "checkpoint": "checkpoint"}


def _check_inputs(request: dict) -> None:
    """Every input file must exist (its path is made absolute in place), and
    a checkpoint must fit the request's config, if any, and its datasets."""
    inputs = request["inputs"]
    for key, value in inputs.items():
        inputs[key] = ([_require_file(p, _INPUT_NAMES[key]) for p in value]
                       if key == "series" else _require_file(value, _INPUT_NAMES[key]))
    if "checkpoint" in inputs:
        config = request["params"].get("config")
        _check_checkpoint(inputs["checkpoint"],
                          *(inputs[k] for k in ("source", "target", "data") if k in inputs),
                          config=None if config is None else TrainConfig.from_dict(config))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_values(request: dict) -> None:
    """The input and parameter values of a request, whether built from flags
    or read from a run manifest; the error names the flag of the bad one."""
    inputs, params = request["inputs"], request["params"]
    for key, value in inputs.items():
        if key == "series":
            if not (isinstance(value, list) and value and all(isinstance(p, str) for p in value)):
                raise ConfigError(f"input {key} must be a list of paths, got {value!r}")
        elif not isinstance(value, str):
            raise ConfigError(f"input {key} must be a path, got {value!r}")
    if "k" in params and not (_is_int(params["k"]) and params["k"] >= 1):
        raise ConfigError(f"--k must be a positive integer, got {params['k']!r}")
    if "mode" in params and params["mode"] not in ("raw-upper-triangle", "encoded"):
        raise ConfigError(f"--mode must be raw-upper-triangle or encoded, got {params['mode']!r}")
    if request["command"] == "gradcheck":
        seeds, step = params["seeds"], params["step"]
        if not (_is_int(seeds) and seeds >= 1):
            raise ConfigError(f"--seeds must be a positive integer, got {seeds!r}")
        if not ((_is_int(step) or isinstance(step, float)) and 1e-7 <= step <= 1e-3):
            raise ConfigError(f"--step must lie in [1e-7, 1e-3], got {step!r}")
    if request["command"] == "ablate":
        seeds = params["seeds"]
        if not (isinstance(seeds, list) and seeds and all(_is_int(s) for s in seeds)
                and len(set(seeds)) == len(seeds)):
            raise ConfigError(f"--seeds must name one or more distinct seeds: {seeds!r}")


# the inputs and params of each command's request (an encoded export adds a checkpoint)
_REQUEST_KEYS = {
    "synth": ({"spec"}, set()), "fcn": ({"series"}, set()),
    "pretrain": ({"source"}, {"config"}),
    "adapt": ({"source", "target", "checkpoint"}, {"config"}),
    "eval": ({"data", "checkpoint"}, set()), "attn-top": ({"data", "checkpoint"}, {"k"}),
    "export-features": ({"data"}, {"mode"}), "gradcheck": (set(), {"seeds", "step"}),
    "ablate": ({"source", "target"}, {"config", "seeds"}),
}


def _check_manifest(request, path: str) -> None:
    """A run manifest must hold a request of the shape `_build_request` makes."""
    command = request.get("command") if isinstance(request, dict) else None
    if not isinstance(command, str) or command not in _REQUEST_KEYS:
        raise ConfigError(f"run manifest has no known command: {path}")
    inputs, params = _REQUEST_KEYS[command]
    if isinstance(request.get("params"), dict) and request["params"].get("mode") == "encoded":
        inputs = inputs | {"checkpoint"}
    for field, names in (("inputs", inputs), ("params", params)):
        if not isinstance(request.get(field), dict) or request[field].keys() != names:
            raise ConfigError(f"run manifest {field} must be an object with the keys "
                              f"{sorted(names)}: {path}")
    if "config" in params:
        try:
            TrainConfig.from_dict(request["params"]["config"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config in run manifest {path}: {exc}") from None
    try:
        _check_values(request)
        _check_inputs(request)
    except (ConfigError, CheckpointError) as exc:
        raise ConfigError(f"invalid run manifest {path}: {exc}") from None


# ---------------------------------------------------------------------------
# command execution


def _write_json(payload, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _execute(request: dict, out_dir: Path, workers: int | None = None) -> int:
    """Run a request; `workers` is the number of `ablate` seed processes
    (default: `benchmark.default_workers`)."""
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
            model, log = pretrain(datasets["source"], config)
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
        ranking = aggregate_attention(attention_maps(model, datasets["data"]))
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
                                 seeds=params["seeds"], workers=workers)
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
    gamma = p.add_mutually_exclusive_group()
    gamma.add_argument("--gamma-fixed", dest="gamma_fixed", type=float)
    gamma.add_argument("--gamma-max", dest="gamma_max", type=float)
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
    p.add_argument("--mode", default="raw-upper-triangle",
                   choices=("raw-upper-triangle", "encoded"))
    p.add_argument("--checkpoint")

    p = add("gradcheck", "finite-difference gradient suite")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--step", type=float, default=1e-5)

    p = add("ablate", "train and compare all loss-ablation variants")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--serial", action="store_true",
                   help="run the seeds one after another in this process "
                        "(the outputs are the same)")
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
            _check_manifest(request, manifest_path)
            out_dir = Path(args.out) if args.out else _default_out(request["command"])
        else:
            request = _build_request(args)
            out_dir = Path(args.out) if args.out else _default_out(args.command)
    except (ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workers = 1 if getattr(args, "serial", False) else None
    try:
        return _execute(request, out_dir, workers)
    except (ConfigError, CheckpointError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
