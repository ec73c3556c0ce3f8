"""Synthetic end-to-end benchmark: generator settings, ablation runner,
and the comparison table.

The benchmark settings below were calibrated once on the synthetic
generator and then frozen: a moderate orthogonal channel mixing plus a
common-mode offset on the target site, with class structure strong enough
that the adapted model recovers most of the in-domain accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .connectome import Dataset, SiteSpec, synth_multisite
from .evalreport import MetricsReport, evaluate_model
from .model import clone_model
from .parallel import default_workers, fork_map
from .trainer import TrainConfig, adapt, pretrain

# Frozen generator operating point for the acceptance benchmark. The shift
# is offset-dominant: a strong common-mode component displaces the target
# feature means (which the batch-mean alignment corrects reliably) while the
# mild channel mixing avoids class-correspondence inversions that mean
# alignment could not undo. Class geometry survives the shift (AUC stays at
# 1.0 before adaptation); only the decision calibration degrades.
BENCHMARK_N_ROIS = 16
BENCHMARK_SERIES_LENGTH = 150
BENCHMARK_CLASS_SEPARATION = 1.2
BENCHMARK_ROTATION = 0.1
BENCHMARK_OFFSET = 0.7
BENCHMARK_NOISE_STD = 0.5

VARIANT_NAMES = ("AUFA-C", "AUFA-AUG", "AUFA-MMD", "AUFA")


def benchmark_site_specs(n_source_per_class: int = 150,
                         n_target_per_class: int = 75,
                         seed: int = 0) -> tuple[SiteSpec, SiteSpec]:
    """Source/target site recipes at the frozen benchmark operating point."""
    source = SiteSpec(
        n_subjects_per_class=n_source_per_class,
        n_rois=BENCHMARK_N_ROIS,
        series_length=BENCHMARK_SERIES_LENGTH,
        class_separation=BENCHMARK_CLASS_SEPARATION,
        noise_std=BENCHMARK_NOISE_STD,
        seed=seed,
    )
    target = SiteSpec(
        n_subjects_per_class=n_target_per_class,
        n_rois=BENCHMARK_N_ROIS,
        series_length=BENCHMARK_SERIES_LENGTH,
        class_separation=BENCHMARK_CLASS_SEPARATION,
        shift_rotation_strength=BENCHMARK_ROTATION,
        shift_offset_strength=BENCHMARK_OFFSET,
        noise_std=BENCHMARK_NOISE_STD,
        seed=seed + 1,
    )
    return source, target


def benchmark_datasets(seed: int = 0) -> tuple[Dataset, Dataset]:
    source_spec, target_spec = benchmark_site_specs(seed=seed)
    return synth_multisite(source_spec, target_spec)


def variant_weights(config: TrainConfig) -> dict[str, tuple[float, float]]:
    """Loss-weight pairs (lambda1, lambda2) for each ablation variant."""
    return {
        "AUFA-C": (0.0, 0.0),
        "AUFA-AUG": (0.0, config.lambda2),
        "AUFA-MMD": (config.lambda1, 0.0),
        "AUFA": (config.lambda1, config.lambda2),
    }


@dataclass
class AblationResult:
    seeds: tuple[int, ...]
    reports: dict[str, list[MetricsReport]]  # variant (or "pretrain") -> per seed

    def mean_accuracy(self, name: str) -> float:
        return float(np.mean([r.accuracy for r in self.reports[name]]))

    def table_rows(self) -> list[dict]:
        rows = []
        for name in ("pretrain",) + VARIANT_NAMES:
            reports = self.reports[name]
            rows.append({
                "variant": name,
                "accuracy_mean": float(np.mean([r.accuracy for r in reports])),
                "accuracy_std": float(np.std([r.accuracy for r in reports])),
                "precision_mean": float(np.mean([r.precision for r in reports])),
                "recall_mean": float(np.mean([r.recall for r in reports])),
                "auc_mean": float(np.mean([r.auc for r in reports])),
                "f1_mean": float(np.mean([r.f1 for r in reports])),
            })
        return rows

    def format_table(self) -> str:
        lines = [f"{'variant':<10} {'acc':>12} {'prec':>7} {'rec':>7} {'auc':>7} {'f1':>7}"]
        for row in self.table_rows():
            lines.append(
                f"{row['variant']:<10} "
                f"{row['accuracy_mean']:.3f}+-{row['accuracy_std']:.3f} "
                f"{row['precision_mean']:7.3f} {row['recall_mean']:7.3f} "
                f"{row['auc_mean']:7.3f} {row['f1_mean']:7.3f}")
        return "\n".join(lines)


def _ablate_seed(source: Dataset, target: Dataset, config: TrainConfig,
                 seed: int) -> list[MetricsReport]:
    """Pretrain at `seed`, then adapt each variant from a clone of the
    pretrained model; target reports, pretrain first, then VARIANT_NAMES."""
    weights = variant_weights(config)
    cfg = replace(config, seed=int(seed))
    pretrained, _ = pretrain(source, cfg)
    reports = [evaluate_model(pretrained, target)]
    for name in VARIANT_NAMES:
        l1, l2 = weights[name]
        variant_model = clone_model(pretrained)
        adapt(variant_model, source, target, replace(cfg, lambda1=l1, lambda2=l2))
        reports.append(evaluate_model(variant_model, target))
    return reports


def run_ablation(source: Dataset, target: Dataset, config: TrainConfig,
                 seeds=(0, 1, 2, 3, 4), workers: int | None = None) -> AblationResult:
    """Pretrain once per seed, then adapt each ablation variant from the
    same pretrained weights; evaluates everything on the labelled target.

    Seeds are independent. `workers` forked children (default
    `default_workers`) run one contiguous run of them each while this
    process waits (`parallel.fork_map`); `workers=1`, or another thread
    alive in the caller, runs them one after another here. The result is
    the same either way, but each worker holds its own models and
    optimizer state, so the peak memory is about `workers` times one
    seed's. The first seed, in seed order, that raises re-raises here and
    kills the workers still running; a worker that dies (killed for
    memory, say) raises ChildProcessError naming the signal."""
    seeds = tuple(int(s) for s in seeds)
    if workers is None:
        workers = default_workers(len(seeds), pretrain, adapt, evaluate_model, clone_model)
    per_seed = fork_map(partial(_ablate_seed, source, target, config), seeds, workers,
                        keep_first=False)
    names = ("pretrain",) + VARIANT_NAMES
    return AblationResult(seeds=seeds, reports={
        name: [reports[i] for reports in per_seed] for i, name in enumerate(names)})
