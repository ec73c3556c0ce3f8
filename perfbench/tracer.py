"""Spans and exact counts around the public functions of the aufa modules.

Tracing is done from outside the program: `Tracer.install()` replaces each
listed function, in every `aufa.*` module namespace that binds it, with a
wrapper that records a span (name, start, end, parent) in memory. Callers
look names up in their own module's globals, so patching the binding in
each namespace is what makes e.g. `aufa.trainer.encode` and
`aufa.evalreport.encode` both traced. `uninstall()` puts the originals
back. No file of the program changes.

Counts that a span cannot see (graph nodes by op, kept rows, bytes read)
are taken by small hooks that run after the wrapped call returns.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

import numpy as np

# Module name of each layer; the first component of every span name.
LAYERS = ("connectome", "diffkernel", "encoder", "adaptation", "trainer",
          "model", "evalreport", "gradcheck", "cli", "benchmark")

STAGES = ("pretrain", "AUFA-C", "AUFA-AUG", "AUFA-MMD", "AUFA")


def variant_of(config) -> str:
    """Ablation variant name implied by an adapt config's loss weights."""
    return {(False, False): "AUFA-C", (False, True): "AUFA-AUG",
            (True, False): "AUFA-MMD", (True, True): "AUFA"}[
        (config.lambda1 != 0.0, config.lambda2 != 0.0)]


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every `aufa.*` module attribute bound to `original` at
    `replacement`; returns (module, attribute, original) for undoing."""
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "aufa" or name.startswith("aufa.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def _dataset_bytes(manifest_path) -> int:
    import json
    from pathlib import Path

    manifest_path = Path(manifest_path)
    with open(manifest_path, encoding="utf-8") as fh:
        entries = json.load(fh)["subjects"]
    return manifest_path.stat().st_size + sum(
        (manifest_path.parent / e["path"]).stat().st_size for e in entries)


class Tracer:
    """In-memory span recorder. Span i is `spans[i] = (name_id, start,
    end, parent_index)`, with parent -1 for a root span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.stage: str | None = None
        self._patched: list[tuple[object, str, object]] = []
        self._bytes_cache: dict[tuple[str, str], int] = {}

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, name, stage=None, after=None):
        """Return `fn` wrapped in a span. `name` is a string or a function
        of the call's arguments; `stage`, if given, names the training
        stage active during the call; `after(result, *args, **kwargs)` runs
        once the span has closed."""
        spans, stack, clock, ident = self.spans, self._stack, time.perf_counter, self._id
        static = None if callable(name) else ident(name)

        def wrapper(*args, **kwargs):
            nid = static if static is not None else ident(name(*args, **kwargs))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            prev_stage = self.stage
            if stage is not None:
                self.stage = stage(*args, **kwargs)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
                self.stage = prev_stage
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks -------------------------------------------------------------

    def _count_nodes(self, _result, loss, record, *a, **k) -> None:
        stage = self.stage
        if stage is None:
            return
        self.counts[f"steps.{stage}"] += 1
        self.counts[f"nodes.{stage}"] += len(record.nodes)
        for op, n in Counter(node.op for node in record.nodes).items():
            self.counts[f"nodes.{stage}.{op}"] += n

    def _count_encode(self, _result, x, params, injection=None, capture=None) -> None:
        self.counts[f"encode.{self.stage}"] += 1
        if injection is not None:
            self.counts["encode.injected"] += 1

    def _count_kept(self, mask, *a, **k) -> None:
        self.counts["kept_rows"] += int(mask.keep.sum())
        self.counts["filtered_rows"] += int(mask.keep.size)

    def _count_bytes(self, key: str, measure):
        def after(_result, path, *a, **k):
            cache_key = (key, os.fspath(path))
            if cache_key not in self._bytes_cache:
                self._bytes_cache[cache_key] = measure(path)
            self.counts[key] += self._bytes_cache[cache_key]
        return after

    def _finite_diff_check(self, fn):
        def finite_diff_check(f, params, *args, **kwargs):
            return fn(self.wrap(f, "gradcheck.objective"), params, *args, **kwargs)
        return finite_diff_check

    # -- installation ------------------------------------------------------

    def targets(self):
        """(module, function, span name, stage, after) for every traced call."""
        def per_layer(prefix):
            return lambda z, params, layer, *a, **k: f"{prefix}.L{layer}"

        def adapt_name(model, source, target, config, *a, **k):
            return f"trainer.adapt.{variant_of(config)}"

        def adapt_stage(model, source, target, config, *a, **k):
            return variant_of(config)

        ckpt_bytes = self._count_bytes("model.load_checkpoint.bytes", os.path.getsize)
        data_bytes = self._count_bytes("connectome.load_dataset.bytes", _dataset_bytes)
        return [
            ("connectome", "load_dataset", "connectome.load_dataset", None, data_bytes),
            ("connectome", "save_dataset", "connectome.save_dataset", None, None),
            ("connectome", "synth_multisite", "connectome.synth_multisite", None, None),
            ("diffkernel", "backward", "diffkernel.backward", None, self._count_nodes),
            ("encoder", "encode", "encoder.encode", None, self._count_encode),
            ("encoder", "multi_head_layer", per_layer("encoder.multi_head_layer"), None, None),
            ("encoder", "feed_forward", per_layer("encoder.feed_forward"), None, None),
            ("adaptation", "classify", "adaptation.classify", None, None),
            ("adaptation", "mmd_loss", "adaptation.mmd_loss", None, None),
            ("adaptation", "self_opt_loss", "adaptation.self_opt_loss", None, None),
            ("adaptation", "confidence_filter", "adaptation.confidence_filter", None,
             self._count_kept),
            ("trainer", "pretrain", "trainer.pretrain", lambda *a, **k: "pretrain", None),
            ("trainer", "adapt", adapt_name, adapt_stage, None),
            ("trainer", "adam_step", "trainer.adam_step", None, None),
            ("trainer", "sample_paired_batches", "trainer.sample_paired_batches", None, None),
            ("trainer", "sample_source_batches", "trainer.sample_source_batches", None, None),
            ("model", "build_model", "model.build_model", None, None),
            ("model", "save_checkpoint", "model.save_checkpoint", None, None),
            ("model", "load_checkpoint", "model.load_checkpoint", None, ckpt_bytes),
            ("model", "clone_model", "model.clone_model", None, None),
            ("evalreport", "evaluate_model", "evalreport.evaluate_model", None, None),
            ("evalreport", "predict_dataset", "evalreport.predict_dataset", None, None),
            ("gradcheck", "run_suite", "gradcheck.run_suite", None, None),
            ("gradcheck", "check_primitives", "gradcheck.check_primitives", None, None),
            ("gradcheck", "check_joint_loss", "gradcheck.check_joint_loss", None, None),
            ("cli", "main", "cli.main", None, None),
            ("benchmark", "run_ablation", "benchmark.run_ablation", None, None),
        ]

    def install(self) -> None:
        """Wrap every target in every aufa module that binds it."""
        replace = []
        for mod, fn_name, name, stage, after in self.targets():
            original = getattr(sys.modules[f"aufa.{mod}"], fn_name)
            replace.append((original, self.wrap(original, name, stage, after)))
        fdc = sys.modules["aufa.diffkernel"].finite_diff_check
        replace.append((fdc, self.wrap(self._finite_diff_check(fdc),
                                       "diffkernel.finite_diff_check")))
        for original, wrapped in replace:
            self._patched += rebind(original, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def save(self, path) -> None:
        """Write all spans (times relative to the first span) to an .npz."""
        table = np.array([s for s in self.spans if s is not None], dtype=np.float64)
        if len(table):
            table[:, 1:3] -= table[:, 1].min()
        np.savez_compressed(path, names=np.array(self.names), spans=table.reshape(-1, 4))

    def totals(self, roots: dict[str, int]) -> dict[str, float]:
        """Inclusive seconds and call counts per span name, plus self
        seconds per layer, over the spans under the root spans named in
        `roots`, each divided by the count given there."""
        n = len(self.spans)
        root = [0] * n
        child_time = [0.0] * n
        for i, (_, t0, t1, parent) in enumerate(self.spans):
            root[i] = i if parent < 0 else root[parent]
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: Counter = Counter()
        for i, (nid, t0, t1, parent) in enumerate(self.spans):
            kind = self.names[self.spans[root[i]][0]]
            per = roots.get(kind)
            if not per:
                continue
            name = self.names[nid]
            out[f"{name}.s"] += (t1 - t0) / per
            out[f"{name}.calls"] += 1 / per
            out[f"{name.split('.')[0]}.self_s"] += (t1 - t0 - child_time[i]) / per
        return dict(out)
