"""Command-line entry point.

Each command is one row of `COMMANDS`, read by the parser, the request
checks for flags and run manifests alike, and `_execute`, which reads every
input before it makes the output directory and writes the outputs plus a run
manifest (run_manifest.json) there; `rerun` reproduces them byte for byte.
Exit codes: 0 success, 1 runtime failure, 2 bad flags or run manifest,
invalid configuration, malformed input data (a dataset manifest, site spec,
time-series or connectivity CSV), a dataset without the labels or the
subjects for a batch that its command needs, a malformed checkpoint or one
that does not fit a dataset's region count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, NamedTuple

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


def _write_json(payload, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _train_config(fields) -> TrainConfig:
    try:
        return TrainConfig.from_dict(fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from None


# TrainConfig fields that have a flag of the same name
_OVERRIDES = ("seed", "lr", "epochs_pretrain", "epochs_adapt", "batch_size",
              "lambda1", "lambda2", "epsilon", "n_layers", "n_heads",
              "ffn_hidden", "clf_hidden")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """The flags that override fields of the --config file."""
    for key in _OVERRIDES:
        p.add_argument("--" + key.replace("_", "-"), type=type(getattr(TrainConfig, key)))
    gamma = p.add_mutually_exclusive_group()
    gamma.add_argument("--gamma-fixed", type=float)
    gamma.add_argument("--gamma-max", type=float)


def _resolve_config(args: argparse.Namespace) -> dict:
    """The --config file, if any, overridden by the flags."""
    base: dict = {}
    if args.config:
        path = _require_file(args.config, "config file")
        base = _load_json(path, "config file")
        if not isinstance(base, dict):
            raise ConfigError(f"config file must hold a JSON object: {path}")
    base.update({key: getattr(args, key) for key in _OVERRIDES
                 if getattr(args, key) is not None})
    if args.gamma_fixed is not None:
        base["gamma_policy"] = {"kind": "fixed", "value": args.gamma_fixed}
    elif args.gamma_max is not None:
        base["gamma_policy"] = {"kind": "uniform", "value": args.gamma_max}
    return _train_config(base).to_dict()


def _read_site_spec(path: str):
    """The source and target datasets a site spec describes."""
    spec = _load_json(path, "site spec")
    if not isinstance(spec, dict):
        raise ConfigError(f"site spec {path}: the top level is not a JSON object")
    sites = []
    for site in ("source", "target"):
        if not isinstance(spec.get(site), dict):
            raise ConfigError(f"site spec {path}: {site!r} is missing or not a JSON object")
        try:
            sites.append(SiteSpec(**spec[site]))
        except (TypeError, DataError) as exc:
            raise ConfigError(f"site spec {path}: {site}: {exc}") from None
    try:
        return synth_multisite(*sites)
    except DataError as exc:
        raise ConfigError(f"site spec {path}: {exc}") from None


def _read_series(paths: list[str]) -> dict:
    """Each time series, keyed by the connectivity CSV `fcn` makes of it."""
    named: dict = {}
    for path in paths:
        name = f"{Path(path).stem}_fcn.csv"
        if name in named:
            raise ConfigError(f"time series {named[name]} and {path} both make {name}")
        named[name] = path
    return {name: load_timeseries(path) for name, path in named.items()}


class Kind(NamedTuple):
    what: str  # names a missing file
    read: Callable  # what `_execute` hands the runner


# The readers call library functions by their module-global names at call
# time: a profiler that rebinds `load_dataset` or `load_checkpoint` in this
# module (perfbench's tracer) must see every call.
DATASET = Kind("dataset manifest", lambda path: load_dataset(path))
SITE_SPEC = Kind("site spec", _read_site_spec)
SERIES = Kind("time series", _read_series)
CHECKPOINT = Kind("checkpoint", lambda path: load_checkpoint(path))


def _run_synth(data, params, out, workers):
    source, target = data["spec"]
    save_dataset(source, out / "source")
    save_dataset(target, out / "target")
    return ["source/manifest.json", "target/manifest.json"], 0


def _run_fcn(data, params, out, workers):
    for name, series in data["series"].items():
        write_csv_matrix(pearson_fcn(series).values, out / name)
    return list(data["series"]), 0


def _run_training(data, params, out, workers):
    config = TrainConfig.from_dict(params["config"])
    if "checkpoint" in data:
        model, log = adapt(data["checkpoint"], data["source"], data["target"], config)
    else:
        model, log = pretrain(data["source"], config)
    save_checkpoint(model, out / "checkpoint.bin")
    log.save(out / "runlog.jsonl")
    _write_json(config.to_dict(), out / "config.json")
    return ["checkpoint.bin", "runlog.jsonl", "config.json"], 0


def _run_eval(data, params, out, workers):
    report = evaluate_model(data["checkpoint"], data["data"]).to_dict()
    _write_json(report, out / "metrics.json")
    print(json.dumps(report, indent=2))
    return ["metrics.json"], 0


def _run_attn_top(data, params, out, workers):
    ranking = aggregate_attention(attention_maps(data["checkpoint"], data["data"]))
    top = ranking.top(params["k"])
    ConnectionRanking(tuple(top)).write_csv(out / "connections.csv")
    for i, j, w in top:
        print(f"{i:4d} {j:4d} {w:.6f}")
    return ["connections.csv"], 0


def _run_export(data, params, out, workers):
    table = export_features(data["data"], params["mode"], data.get("checkpoint"))
    table.write_csv(out / "features.csv")
    return ["features.csv"], 0


def _run_gradcheck(data, params, out, workers):
    results, worst = run_suite(seeds=params["seeds"], step=params["step"])
    for name in sorted(results):
        print(f"{name:<16} max_rel_err {results[name]:.3e}")
    print(f"overall max relative error: {worst:.3e}")
    _write_json({"results": results, "max_relative_error": worst}, out / "gradcheck.json")
    return ["gradcheck.json"], 1 if worst > GRADCHECK_TOLERANCE else 0


def _run_ablate(data, params, out, workers):
    result = bm.run_ablation(data["source"], data["target"],
                             TrainConfig.from_dict(params["config"]),
                             seeds=params["seeds"], workers=workers)
    rows = result.table_rows()
    _write_json({"seeds": list(result.seeds), "rows": rows}, out / "ablation.json")
    with open(out / "ablation.csv", "w", encoding="utf-8", newline="\n") as fh:
        cols = list(rows[0].keys())
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")
    print(result.format_table())
    return ["ablation.json", "ablation.csv"], 0


class Input(NamedTuple):
    flag: str  # a series list's is positional
    kind: Kind
    help: str | None = None


class Param(NamedTuple):
    flag: str
    settings: dict  # argparse keyword arguments
    valid: Callable  # value -> bool; it may raise ConfigError with a fuller message
    message: str  # what a valid value is, naming the flag


class Command(NamedTuple):
    help: str
    inputs: dict  # request key -> Input
    params: dict  # request key -> Param
    run: Callable  # (read inputs, params, out dir, ablate workers) -> (outputs, exit code)
    labelled: tuple = ()  # dataset inputs whose every subject needs a label
    batched: dict = {}  # TrainConfig epoch count -> dataset inputs its batches draw from


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_int(value) -> bool:
    return _is_int(value) and value >= 1


def _seed_list(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers: {text!r}") from None


EXPORT_MODES = ("raw-upper-triangle", "encoded")
CONFIG = Param("--config", {"help": "JSON config file mirroring TrainConfig fields"},
               _train_config, "invalid config")
_PAIR = {"source": Input("--source", DATASET), "target": Input("--target", DATASET)}
_SCORED = {"data": Input("--data", DATASET), "checkpoint": Input("--checkpoint", CHECKPOINT)}

COMMANDS = {
    "synth": Command("generate paired source/target datasets from a site-spec JSON",
                     {"spec": Input("--spec", SITE_SPEC)}, {}, _run_synth),
    "fcn": Command("convert time-series CSVs to connectivity CSVs",
                   {"series": Input("series", SERIES)}, {}, _run_fcn),
    "pretrain": Command("stage one: source-only supervised training",
                        {"source": Input("--source", DATASET)}, {"config": CONFIG},
                        _run_training, ("source",), {"epochs_pretrain": ("source",)}),
    "adapt": Command("stage two: joint-loss adaptation to an unlabelled target",
                     {**_PAIR, "checkpoint": Input("--init", CHECKPOINT,
                                                   "pretrained checkpoint")},
                     {"config": CONFIG}, _run_training, ("source",),
                     {"epochs_adapt": ("source", "target")}),
    "eval": Command("metrics JSON for a labelled dataset under a checkpoint",
                    _SCORED, {}, _run_eval, ("data",)),
    "attn-top": Command("strongest mean-attention region pairs", _SCORED,
                        {"k": Param("--k", {"type": int, "default": 10}, _positive_int,
                                    "--k must be a positive integer")},
                        _run_attn_top),
    "export-features": Command(
        "per-subject feature table (raw or encoded)", _SCORED,
        {"mode": Param("--mode", {"default": EXPORT_MODES[0], "choices": EXPORT_MODES},
                       lambda mode: mode in EXPORT_MODES,
                       "--mode must be raw-upper-triangle or encoded")},
        _run_export),
    "gradcheck": Command(
        "finite-difference gradient suite", {},
        {"seeds": Param("--seeds", {"type": int, "default": 5}, _positive_int,
                        "--seeds must be a positive integer"),
         "step": Param("--step", {"type": float, "default": 1e-5},
                       lambda step: (_is_int(step) or isinstance(step, float))
                       and 1e-7 <= step <= 1e-3,
                       "--step must lie in [1e-7, 1e-3]")},
        _run_gradcheck),
    "ablate": Command(
        "train and compare all loss-ablation variants", _PAIR,
        {"config": CONFIG,
         "seeds": Param("--seeds", {"type": _seed_list, "default": "0,1,2,3,4"},
                        lambda seeds: (isinstance(seeds, list) and len(seeds) > 0
                                       and all(_is_int(s) for s in seeds)
                                       and len(set(seeds)) == len(seeds)),
                        "--seeds must name one or more distinct seeds")},
        _run_ablate, ("source", "target"),
        {"epochs_pretrain": ("source",), "epochs_adapt": ("source", "target")}),
}


def _build_request(args: argparse.Namespace) -> dict:
    if args.command == "export-features" and (args.mode == "encoded") != bool(args.checkpoint):
        raise ConfigError("--checkpoint is needed with --mode encoded, and read only there")
    row, flags = COMMANDS[args.command], vars(args)  # the parser's dests are the keys
    inputs = {key: flags[key] for key in row.inputs if flags[key] is not None}
    params = {key: _resolve_config(args) if key == "config" else flags[key]
              for key in row.params}
    return _check_request({"command": args.command, "inputs": inputs, "params": params})


def _manifest_labels(manifest) -> list | None:
    """The label (0, 1 or None) of each subject of a dataset manifest, or
    None if an entry is not an object with such a label: `load_dataset`
    then names what is wrong."""
    entries = manifest.get("subjects") if isinstance(manifest, dict) else None
    if not (isinstance(entries, list) and entries and all(
            isinstance(e, dict) and e.get("label") in (0, 1, None) for e in entries)):
        return None
    return [e.get("label") for e in entries]


def _check_datasets(request: dict, manifests: dict) -> None:
    """Every subject of a dataset the command needs labelled has a label,
    and a training stage that runs finds a batch in each dataset it reads."""
    row, inputs = COMMANDS[request["command"]], request["inputs"]
    labels = {key: _manifest_labels(m) for key, m in manifests.items()}
    for key in row.labelled:
        if labels[key] is not None and None in labels[key]:
            raise ConfigError(f"{request['command']} needs a label for every subject of "
                              f"{row.inputs[key].flag}, but {labels[key].count(None)} of "
                              f"{len(labels[key])} in {inputs[key]} have none")
    if not row.batched:
        return
    config = _train_config(request["params"]["config"])
    for epochs, keys in row.batched.items():
        for key in keys:
            if getattr(config, epochs) and labels[key] is not None \
                    and len(labels[key]) < config.batch_size:
                raise ConfigError(f"--batch-size {config.batch_size} is larger than the "
                                  f"{len(labels[key])} subjects of {row.inputs[key].flag} "
                                  f"{inputs[key]}")


def _check_request(request: dict) -> dict:
    """A request's values, whether built from flags or read from a run
    manifest: each param is one its flag accepts (the error names the flag),
    every input file exists (its path is made absolute in place), a dataset
    has the labels and batch sizes its command needs (`_check_datasets`),
    and a checkpoint has the architecture of the config, if any, and as many
    regions as every dataset."""
    row = COMMANDS[request["command"]]
    inputs, params = request["inputs"], request["params"]
    for key, value in params.items():
        if not row.params[key].valid(value):
            raise ConfigError(f"{row.params[key].message}, got {value!r}")
    for key, value in inputs.items():
        kind = row.inputs[key].kind
        paths = value if kind is SERIES else [value]
        if not (isinstance(paths, list) and paths and all(isinstance(p, str) for p in paths)):
            what = "a list of paths" if kind is SERIES else "a path"
            raise ConfigError(f"input {key} must be {what}, got {value!r}")
        paths = [_require_file(p, kind.what) for p in paths]
        inputs[key] = paths if kind is SERIES else paths[0]
    manifests = {key: _load_json(inputs[key], "dataset manifest")
                 for key, i in row.inputs.items() if i.kind is DATASET and key in inputs}
    _check_datasets(request, manifests)
    if "checkpoint" not in inputs:
        return request
    ckpt = read_checkpoint_config(inputs["checkpoint"])
    if "config" in params:
        # d_head None means d_model // n_heads, so compare resolved head widths
        ours, theirs = (asdict(replace(c, d_head=c.head_width)) for c in
                        (_train_config(params["config"]).model_config(ckpt.d_model), ckpt))
        for key, value in ours.items():
            if value != theirs[key]:
                raise ConfigError(f"config {key}={value} does not match checkpoint "
                                  f"{key}={theirs[key]}: {inputs['checkpoint']}")
    for key, manifest in manifests.items():
        n_rois = manifest.get("n_rois") if isinstance(manifest, dict) else None
        if n_rois != ckpt.d_model:
            raise ConfigError(f"dataset {inputs[key]} has n_rois={n_rois}, but checkpoint "
                              f"{inputs['checkpoint']} has d_model={ckpt.d_model}")
    return request


def _check_manifest(request, path: str) -> dict:
    """A run manifest must hold a request with the keys its command's row
    gives and values `_check_request` accepts."""
    command = request.get("command") if isinstance(request, dict) else None
    if not isinstance(command, str) or command not in COMMANDS:
        raise ConfigError(f"run manifest has no known command: {path}")
    inputs, params = set(COMMANDS[command].inputs), request.get("params")
    if command == "export-features" and not (isinstance(params, dict)
                                             and params.get("mode") == "encoded"):
        inputs.discard("checkpoint")  # an export reads one only with --mode encoded
    for field, names in (("inputs", inputs), ("params", set(COMMANDS[command].params))):
        if not isinstance(request.get(field), dict) or request[field].keys() != names:
            raise ConfigError(f"run manifest {field} must be an object with the keys "
                              f"{sorted(names)}: {path}")
    try:
        return _check_request({key: request[key] for key in ("command", "inputs", "params")})
    except (ConfigError, CheckpointError) as exc:
        raise ConfigError(f"invalid run manifest {path}: {exc}") from None


def _execute(request: dict, out_dir: Path, workers: int | None = None) -> int:
    """Run a request; `workers` is `ablate`'s seed processes (None: the default)."""
    row = COMMANDS[request["command"]]
    # read every input first, so that a malformed one leaves no output directory
    data = {key: row.inputs[key].kind.read(value) for key, value in request["inputs"].items()}
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs, code = row.run(data, request["params"], out_dir, workers)
    _write_json({**request, "outputs": outputs}, out_dir / "run_manifest.json")
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aufa",
        description="Cross-site adaptation for connectivity-graph classification.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output directory (default $AUFA_OUT/<command>)")
    for name, row in COMMANDS.items():
        p = sub.add_parser(name, help=row.help, parents=[common])
        for key, i in row.inputs.items():
            if i.kind is SERIES:  # positional, so its dest is its name
                p.add_argument(i.flag, nargs="+")
            else:  # an export reads a checkpoint only with --mode encoded
                p.add_argument(i.flag, dest=key, metavar=i.flag[2:].upper(), help=i.help,
                               required=not (name == "export-features" and key == "checkpoint"))
        for key, param in row.params.items():
            p.add_argument(param.flag, dest=key, **param.settings)
            if key == "config":
                _add_config_flags(p)
        if name == "ablate":  # chooses how to run, not what: never recorded
            p.add_argument("--serial", action="store_true",
                           help="run the seeds one after another in this process "
                                "(the outputs are the same)")
    sub.add_parser("rerun", help="re-execute a previous run from its manifest",
                   parents=[common]).add_argument("manifest")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        if args.command == "rerun":
            manifest_path = _require_file(args.manifest, "run manifest")
            request = _check_manifest(_load_json(manifest_path, "run manifest"),
                                      manifest_path)
        else:
            request = _build_request(args)
        out_dir = Path(args.out or Path(os.environ.get("AUFA_OUT", "runs")) / request["command"])
        return _execute(request, out_dir, 1 if getattr(args, "serial", False) else None)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, CheckpointError, DataError)) else 1


if __name__ == "__main__":
    sys.exit(main())
