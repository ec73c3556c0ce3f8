#!/usr/bin/env python3
"""Benchmark runner for aufa: the `ablate-16`, `infer-116` and `gradcheck`
workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ablate-16 --seed 0 --seconds 30 --trace 0

Each workload is a closed loop with one caller: it issues the same
in-process `aufa` command (`cli.main`) again as soon as the previous one
returns, for about `--seconds`, and checks every output. The seed fixes the
generated inputs; the program only sees the generated files. With
`--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics, from a run that first repeats
the command untraced and then traced (the difference is the tracing
overhead). Details are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# BLAS threads are pinned, not tuned: 16-ROI steps take the same time at 1
# or 2 OpenBLAS threads, and one thread keeps runs independent of load.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
GRADCHECK_TOLERANCE = 1e-4

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit (emitted on every workload;
    0 where the workload never enters that layer)."""
    from tracer import LAYERS, STAGES

    units: dict[str, str] = {}
    for stage in STAGES:
        units[f"diffkernel.record_nodes_per_step.{stage}"] = "count"
        units[f"diffkernel.matmul_nodes_per_step.{stage}"] = "count"
        units[f"encoder.encode.calls_per_step.{stage}"] = "count"
    for name in ("diffkernel.backward", "encoder.encode", "trainer.adam_step"):
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    units["encoder.encode.injected_calls"] = "count"
    for layer in (0, 1):
        units[f"encoder.multi_head_layer.L{layer}.s"] = "s"
        units[f"encoder.feed_forward.L{layer}.s"] = "s"
    for name in ("adaptation.classify", "adaptation.mmd_loss",
                 "adaptation.self_opt_loss", "trainer.pretrain",
                 "trainer.sample_paired_batches", "model.load_checkpoint",
                 "model.clone_model", "connectome.load_dataset",
                 "connectome.synth_multisite", "connectome.save_dataset",
                 "evalreport.evaluate_model", "evalreport.predict_dataset",
                 "gradcheck.check_joint_loss", "gradcheck.check_primitives",
                 "benchmark.run_ablation"):
        units[f"{name}.s"] = "s"
    for stage in STAGES[1:]:
        units[f"trainer.adapt.{stage}.s"] = "s"
    units["adaptation.kept_frac"] = "ratio"
    units["model.load_checkpoint.bytes"] = "bytes"
    units["connectome.load_dataset.bytes"] = "bytes"
    units["gradcheck.fwd_evals"] = "count"
    for layer in LAYERS:
        units["cli.main.self_s" if layer == "cli" else f"{layer}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    units["trace.spans_per_op"] = "count"
    return units


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Every workload's output file must be byte-identical from request to
    request: the commands are deterministic given their inputs."""

    reference: bytes | None = None

    def same_as_first(self, out: Path, name: str) -> bytes:
        data = (out / name).read_bytes()
        if self.reference is None:
            self.reference = data
        elif data != self.reference:
            raise ValueError(f"{name} differs from the first request's")
        return data


class Ablate(Workload):
    """`aufa ablate --seeds 0,1` at the frozen 16-ROI operating point."""

    name = "ablate-16"
    min_ops = 1

    def __init__(self, smoke: bool):
        self.per_class = (16, 16) if smoke else (150, 75)
        self.epochs = (1, 1) if smoke else (2, 3)
        self.seeds = [0] if smoke else [0, 1]

    def generate(self, seed: int, inputs: Path) -> None:
        from aufa import benchmark, connectome

        specs = benchmark.benchmark_site_specs(*self.per_class, seed=seed)
        source, target = connectome.synth_multisite(*specs)
        connectome.save_dataset(source, inputs / "source")
        connectome.save_dataset(target, inputs / "target")

    def argv(self, inputs: Path, out: Path) -> list[str]:
        return ["ablate", "--source", str(inputs / "source" / "manifest.json"),
                "--target", str(inputs / "target" / "manifest.json"),
                "--seeds", ",".join(map(str, self.seeds)),
                "--epochs-pretrain", str(self.epochs[0]),
                "--epochs-adapt", str(self.epochs[1]), "--out", str(out)]

    def items(self) -> int:
        """Train steps per ablation, fixed by the config and dataset sizes."""
        from aufa.benchmark import VARIANT_NAMES
        from aufa.trainer import TrainConfig

        batch = TrainConfig().batch_size
        n_source, n_target = 2 * self.per_class[0], 2 * self.per_class[1]
        per_seed = (self.epochs[0] * (n_source // batch)
                    + len(VARIANT_NAMES) * self.epochs[1] * (n_target // batch))
        return len(self.seeds) * per_seed

    def check(self, out: Path) -> dict:
        from aufa.benchmark import VARIANT_NAMES

        rows = {r["variant"]: r for r in
                json.loads(self.same_as_first(out, "ablation.json"))["rows"]}
        if set(rows) != {"pretrain", *VARIANT_NAMES}:
            raise ValueError(f"ablation rows are {sorted(rows)}")
        for variant, row in rows.items():
            for key in ("accuracy_mean", "accuracy_std"):
                if not 0.0 <= row[key] <= 1.0:
                    raise ValueError(f"{variant} {key} is not in [0, 1]: {row[key]}")
        # Reported, not required: at these epochs full AUFA fell below
        # pretrain-only on one data seed in forty (seed 61: 0.797 vs 0.823).
        full, pre = rows["AUFA"]["accuracy_mean"], rows["pretrain"]["accuracy_mean"]
        return {"target_acc": full, "pretrain_acc": pre, "aufa_gain": full - pre}


class Infer(Workload):
    """`aufa eval` of a 116-ROI checkpoint on a 32-subject target cohort."""

    name = "infer-116"

    def __init__(self, smoke: bool):
        self.n_rois = 16 if smoke else 116
        self.per_class = 2 if smoke else 16
        self.clf_hidden = 8 if smoke else 64
        # p90 of at least 100 requests has ten samples beyond it
        self.min_ops = 3 if smoke else 100

    def generate(self, seed: int, inputs: Path) -> None:
        from aufa import benchmark, connectome, model
        from aufa.trainer import TrainConfig

        source, target = benchmark.benchmark_site_specs(seed=seed)
        source = replace(source, n_rois=self.n_rois, n_subjects_per_class=1)
        target = replace(target, n_rois=self.n_rois, n_subjects_per_class=self.per_class)
        connectome.save_dataset(connectome.synth_multisite(source, target)[1],
                                inputs / "target")
        cfg = TrainConfig()
        built = model.build_model(self.n_rois, cfg.n_layers, cfg.n_heads, cfg.ffn_hidden,
                                  self.clf_hidden, cfg.ln_eps, seed)
        model.save_checkpoint(built, inputs / "checkpoint.json")

    def argv(self, inputs: Path, out: Path) -> list[str]:
        return ["eval", "--data", str(inputs / "target" / "manifest.json"),
                "--checkpoint", str(inputs / "checkpoint.json"), "--out", str(out)]

    def items(self) -> int:
        return 2 * self.per_class

    def check(self, out: Path) -> dict:
        return {"eval_acc": json.loads(self.same_as_first(out, "metrics.json"))["accuracy"]}


class Gradcheck(Workload):
    """`aufa gradcheck` at its defaults (acceptance criterion 1)."""

    name = "gradcheck"
    min_ops = 1

    def __init__(self, smoke: bool):
        self.extra = ["--seeds", "1"] if smoke else []
        self.fwd_evals = 0

    def generate(self, seed: int, inputs: Path) -> None:
        """The suite builds its own toy inputs; the seed changes nothing."""

    def argv(self, inputs: Path, out: Path) -> list[str]:
        return ["gradcheck", "--out", str(out)] + self.extra

    def count_fwd_evals(self) -> None:
        """Count objective evaluations: one Python call per evaluation,
        against about 2 ms of work in each."""
        import aufa.diffkernel
        from tracer import rebind

        fdc = aufa.diffkernel.finite_diff_check

        def counting(f, params, *args, **kwargs):
            def objective():
                self.fwd_evals += 1
                return f()
            return fdc(objective, params, *args, **kwargs)

        rebind(fdc, counting)

    def items(self) -> int:
        n, self.fwd_evals = self.fwd_evals, 0
        return n

    def check(self, out: Path) -> dict:
        worst = json.loads(self.same_as_first(out, "gradcheck.json"))["max_relative_error"]
        if not worst <= GRADCHECK_TOLERANCE:
            raise ValueError(f"max relative error {worst} above {GRADCHECK_TOLERANCE}")
        return {"max_rel_err": worst}


WORKLOADS = {w.name: w for w in (Ablate, Infer, Gradcheck)}


# ---------------------------------------------------------------------------
# measurement


class Loop:
    """Closed loop over one command: runs it, times it, checks its outputs."""

    def __init__(self, workload, inputs: Path, out: Path):
        self.workload = workload
        self.inputs = inputs
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.info: dict = {}

    def once(self, tracer=None) -> tuple[float, int, dict] | None:
        """One request; returns (seconds, items, exact counts) or None on failure."""
        import aufa.cli

        self.attempted += 1
        # A fresh directory per request: rewriting an existing file costs
        # tens of ms of synchronous block I/O on some filesystems, which
        # would swamp the program's own work with disk noise.
        out = self.out / f"request{self.attempted}"
        argv = self.workload.argv(self.inputs, out)
        before = dict(tracer.counts) if tracer else {}
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = (tracer.wrap(aufa.cli.main, "bench.op") if tracer else aufa.cli.main)(argv)
                elapsed = time.perf_counter() - t0
            items = self.workload.items()
            if code != 0:
                raise RuntimeError(f"{argv[0]} exited with code {code}")
            self.info = self.workload.check(out)
        except Exception as exc:  # a failed request is counted, not fatal
            print(f"request {self.attempted} failed: {exc!r}", file=sys.stderr)
            self.failed += 1
            return None
        counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()} if tracer else {}
        return elapsed, items, counts

    def run(self, budget: float, min_ops: int, tracer=None) -> list[tuple[float, int, dict]]:
        """Repeat until the next request would overrun `budget` seconds."""
        done: list[tuple[float, int, dict]] = []
        t0 = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t0
            if len(done) >= min_ops:
                typical = statistics.median(d[0] for d in done)
                if elapsed + typical > budget:
                    break
            if elapsed > 150.0 or self.failed > 3 * (len(done) + 1):
                break
            result = self.once(tracer)
            if result is not None:
                done.append(result)
        return done


def self_check_counts(ops: list[tuple[float, int, dict]]) -> list[str]:
    """Exact counts must repeat from request to request."""
    problems = []
    for i, (_, items, counts) in enumerate(ops[1:], start=2):
        if items != ops[0][1]:
            problems.append(f"request {i}: {items} items, first had {ops[0][1]}")
        if counts != ops[0][2]:
            diff = sorted(k for k in set(counts) | set(ops[0][2])
                          if counts.get(k) != ops[0][2].get(k))
            problems.append(f"request {i}: counts differ in {diff[:5]}")
    return problems


def time_setup(args, work: Path) -> list[float]:
    """Wall time of complete fresh-process set-ups (interpreter start,
    imports, input generation, model build), run one after another."""
    times = []
    for i in range(1 if args.smoke else SETUP_REPEATS):
        target = work / "setup"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
               "--setup-only", str(target)]
        if args.smoke:
            cmd.append("--smoke")
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(target, ignore_errors=True)
    return times


def peak_rss_mb() -> float:
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_commit": git_commit(), "seed": seed}


def layer_metrics(tracer, op_spans: int, ops: list, untraced: list) -> dict[str, float]:
    """Per-layer values per traced request; the two input-generation
    layers, which run only in set-up, per set-up."""
    from tracer import STAGES

    n_ops = len(ops)
    totals = tracer.totals({"bench.op": n_ops})
    counts = {k: v / n_ops for k, v in tracer.counts.items()}
    values = {name: totals.get(name, 0.0) for name in per_layer_units()}
    per_setup = tracer.totals({"bench.setup": 1})
    for name in ("connectome.synth_multisite.s", "connectome.save_dataset.s"):
        values[name] = per_setup.get(name, 0.0)
    for stage in STAGES:
        steps = counts.get(f"steps.{stage}", 0)
        per_step = (lambda key: counts.get(key, 0) / steps) if steps else (lambda key: 0.0)
        values[f"diffkernel.record_nodes_per_step.{stage}"] = per_step(f"nodes.{stage}")
        values[f"diffkernel.matmul_nodes_per_step.{stage}"] = per_step(f"nodes.{stage}.matmul")
        values[f"encoder.encode.calls_per_step.{stage}"] = per_step(f"encode.{stage}")
    filtered = counts.get("filtered_rows", 0)
    values["adaptation.kept_frac"] = counts.get("kept_rows", 0) / filtered if filtered else 0.0
    values["encoder.encode.injected_calls"] = counts.get("encode.injected", 0)
    values["model.load_checkpoint.bytes"] = counts.get("model.load_checkpoint.bytes", 0)
    values["connectome.load_dataset.bytes"] = counts.get("connectome.load_dataset.bytes", 0)
    values["cli.main.self_s"] = totals.get("cli.self_s", 0.0)
    values["gradcheck.fwd_evals"] = totals.get("gradcheck.objective.calls", 0.0)
    values["trace.spans_per_op"] = op_spans / n_ops
    traced_s = statistics.median(o[0] for o in ops)
    untraced_s = statistics.median(o[0] for o in untraced)
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return values


def nodes_per_step(counts: dict) -> dict[str, dict[str, float]]:
    """Recorded graph nodes per train step, by stage and op."""
    table: dict[str, dict[str, float]] = {}
    for key, n in sorted(counts.items()):
        parts = key.split(".")
        if parts[0] == "nodes" and len(parts) == 3:
            table.setdefault(parts[1], {})[parts[2]] = n / counts[f"steps.{parts[1]}"]
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and sizes, to check that the runner works")
    parser.add_argument("--setup-only", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aufa" / "__init__.py").is_file():
        print(f"error: no aufa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import aufa.cli  # noqa: F401  (every module the commands use)
    from tracer import Tracer

    workload = WORKLOADS[args.workload](args.smoke)
    if args.setup_only:
        workload.generate(args.seed, Path(args.setup_only))
        return 0

    work = Path.cwd() / ".bench_build" / "perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    generated = work / "generated"  # inputs and request outputs
    inputs = generated / "inputs"
    setup_times = [] if args.trace else time_setup(args, work)
    if isinstance(workload, Gradcheck):
        workload.count_fwd_evals()
    tracer = Tracer()
    loop = Loop(workload, inputs, generated / "out")

    if args.trace:
        tracer.install()
        tracer.wrap(workload.generate, "bench.setup")(args.seed, inputs)
        tracer.uninstall()
        untraced = loop.run(args.seconds / 2, 1)
        tracer.install()
        spans_before = len(tracer.spans)
        ops = loop.run(args.seconds / 2, 1, tracer)
        tracer.uninstall()
    else:
        workload.generate(args.seed, inputs)
        untraced = ops = loop.run(args.seconds, workload.min_ops)

    problems = self_check_counts(untraced) + (self_check_counts(ops) if args.trace else [])
    if args.trace and isinstance(workload, Ablate) and ops:
        steps = sum(v for k, v in ops[0][2].items() if k.startswith("steps."))
        if steps != workload.items():
            problems.append(f"traced {steps} train steps, config gives {workload.items()}")
    for problem in problems:
        print(f"count self-check: {problem}", file=sys.stderr)

    durations = [o[0] for o in ops]
    report = {"workload": args.workload, "trace": args.trace,
              "env": environment(args.seed), "setup_times_s": setup_times,
              "request_s": durations, "items_per_request": ops[0][1] if ops else 0,
              "outputs": loop.info}
    if ops and args.trace:
        metrics = layer_metrics(tracer, len(tracer.spans) - spans_before, ops, untraced)
        units = per_layer_units()
        report["counts_per_request"] = ops[0][2]
        report["nodes_per_step"] = nodes_per_step(ops[0][2])
        report["untraced_request_s"] = [o[0] for o in untraced]
        tracer.save(work / f"spans-seed{args.seed}.npz")
    elif ops:
        ms = sorted(1000.0 * d for d in durations)
        report["request_ms_p50"] = statistics.median(ms)
        if len(ms) >= 100:  # ten samples beyond p90
            report["request_ms_p90"] = statistics.quantiles(ms, n=10)[-1]
        metrics = {"setup_s": statistics.median(setup_times),
                   "wall_s": statistics.median(durations),
                   "items_per_s": ops[0][1] / statistics.median(durations),
                   "peak_rss_mb": peak_rss_mb()}
        units = END_TO_END_UNITS
    else:
        metrics, units = {}, {}
    report["metrics"] = metrics
    report["failed_frac"] = f"{loop.failed}/{loop.attempted} requests"
    with open(work / f"result-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    shutil.rmtree(generated, ignore_errors=True)

    print("env", json.dumps(report["env"]))
    for stage, by_op in report.get("nodes_per_step", {}).items():
        print(f"nodes/step {stage}: {sum(by_op.values()):g}", json.dumps(by_op))
    print("outputs", json.dumps(report["outputs"]),
          "failed", report["failed_frac"], "requests", len(ops))
    result = {"correct": bool(ops) and loop.failed == 0 and not problems,
              "attempted": max(loop.attempted, 1), "failed": loop.failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units}
              if ops else {}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
