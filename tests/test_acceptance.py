"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end benchmark
(criterion 9) trains all ablation variants over five seeds and is the slow
part of the suite.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from aufa import diffkernel as dk
from aufa.adaptation import FilterMask, classify, mmd_loss, self_opt_loss
from aufa.benchmark import benchmark_datasets, run_ablation
from aufa.cli import main as cli_main
from aufa.connectome import SiteSpec, TimeSeries, pearson_fcn, synth_multisite
from aufa.diffkernel import ComputationRecord, Value, backward
from aufa.encoder import AugmentInjection, attention, encode
from aufa.evalreport import (auc, betweenness_centrality, local_efficiency)
from aufa.gradcheck import run_suite
from aufa.model import Model, ModelConfig, build_model, init_values, parameter_shapes
from aufa.trainer import (OptimizerState, TrainConfig, adam_step, adapt,
                          sample_paired_batches, _rng_children)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\ncriterion {criterion:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient integrity


def test_criterion_01_gradient_integrity():
    t0 = time.monotonic()
    results, worst = run_suite(seeds=5, step=1e-5)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and elapsed < 120.0
    report(1, ok, f"max rel error {worst:.2e} over {len(results)} checks "
                  f"(joint loss {results['joint_loss']:.2e}), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. pearson oracle


def pearson_scalar(x, y):
    mx = sum(x) / len(x)
    my = sum(y) / len(y)
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = math.sqrt(sum((a - mx) ** 2 for a in x))
    dy = math.sqrt(sum((b - my) ** 2 for b in y))
    return num / (dx * dy)


def test_criterion_02_pearson_oracle():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        series = rng.normal(size=(20, 8)) * rng.uniform(0.5, 3.0, size=8)
        fcn = pearson_fcn(TimeSeries(f"s{seed}", series)).values
        assert np.abs(fcn - fcn.T).max() <= 1e-12
        assert (np.diag(fcn) == 1.0).all()
        assert (np.abs(fcn) <= 1.0).all()
        for i in range(8):
            for j in range(i + 1, 8):
                expect = pearson_scalar(series[:, i].tolist(), series[:, j].tolist())
                worst = max(worst, abs(fcn[i, j] - expect))
    report(2, worst <= 1e-10, f"max |impl - scalar oracle| = {worst:.2e} over 20 subjects")


# ---------------------------------------------------------------------------
# 3. attention stochasticity


def test_criterion_03_attention_rows_stochastic():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 10))
        cfg = ModelConfig(n_layers=2, n_heads=2, d_model=n, ffn_hidden=8)
        params = Model(cfg, init_values(parameter_shapes(cfg), seed=int(rng.integers(1 << 30))))
        x = pearson_fcn(TimeSeries("s", rng.standard_normal((25, n))))
        maps = attention([x], params)
        worst = max(worst, np.abs(maps.sum(axis=-1) - 1.0).max())
    report(3, worst <= 1e-9, f"worst row-sum deviation {worst:.2e} over 100 encodes")


# ---------------------------------------------------------------------------
# 4. blend endpoints


def test_criterion_04_blend_endpoints():
    cfg = ModelConfig(n_layers=2, n_heads=2, d_model=6, ffn_hidden=8)
    params = Model(cfg, init_values(parameter_shapes(cfg), seed=5))
    rng = np.random.default_rng(6)
    x = pearson_fcn(TimeSeries("a", rng.standard_normal((30, 6))))
    partner = pearson_fcn(TimeSeries("b", rng.standard_normal((30, 6))))

    clean = encode([x], params)
    gamma0_ok = True
    for layer in (0, 1):
        blended = encode([x], params, injection=AugmentInjection(
            layer, Value(partner.values[None]), 0.0))
        gamma0_ok &= np.array_equal(clean.data, blended.data)

    partner_clean = encode([partner], params)
    blended1 = encode([x], params, injection=AugmentInjection(
        0, Value(partner.values[None]), 1.0))
    gamma1_ok = np.array_equal(partner_clean.data, blended1.data)

    # identical clean/blended paths give a consistency loss of exactly zero
    clf = build_model(6, 2, 2, 8, 8, 1e-5, seed=7)
    f_clean = encode([x], params)
    f_blend = encode([x], params, injection=AugmentInjection(
        1, Value(partner.values[None]), 0.0))
    p_clean = classify(f_clean, clf)
    p_blend = classify(f_blend, clf)
    mask = FilterMask(keep=np.array([True]), threshold=0.8)
    la = abs(self_opt_loss(p_clean, p_blend, mask).item())

    ok = gamma0_ok and gamma1_ok and la <= 1e-12
    report(4, ok, f"gamma=0 bitwise {gamma0_ok}, gamma=1 bitwise {gamma1_ok}, "
                  f"L_A under gamma=0 = {la:.1e}")


# ---------------------------------------------------------------------------
# 5. alignment-loss properties


def test_criterion_05_mmd_properties():
    rng = np.random.default_rng(8)
    feats = [Value(rng.normal(size=(4, 7))), Value(rng.normal(size=(4, 2)))]
    twin = [Value(f.data.copy()) for f in feats]
    zero_ok = mmd_loss(feats, twin).item() == 0.0
    other = [Value(rng.normal(size=(4, 7))), Value(rng.normal(size=(4, 2)))]
    sym_ok = mmd_loss(feats, other).item() == mmd_loss(other, feats).item()
    unit = mmd_loss([Value(np.array([[1.0, 0.0]]))],
                    [Value(np.array([[0.0, 1.0]]))]).item()
    ok = zero_ok and sym_ok and unit == 2.0
    report(5, ok, f"identical-batch zero {zero_ok}, swap symmetry {sym_ok}, "
                  f"unit-vector case = {unit}")


# ---------------------------------------------------------------------------
# 6. weight degeneracy


def test_criterion_06_zero_weights_match_pure_source_training():
    spec = dict(n_subjects_per_class=8, n_rois=6, series_length=60,
                class_separation=0.8, noise_std=0.5)
    source, target = synth_multisite(SiteSpec(seed=0, **spec),
                                     SiteSpec(seed=1, shift_rotation_strength=0.3,
                                              shift_offset_strength=0.2, **spec))
    cfg = TrainConfig(lr=1e-3, epochs_pretrain=0, epochs_adapt=3, batch_size=4,
                      lambda1=0.0, lambda2=0.0, seed=5, n_layers=2, n_heads=2,
                      ffn_hidden=8, clf_hidden=8)

    def fresh_model():
        return build_model(6, cfg.n_layers, cfg.n_heads, cfg.ffn_hidden,
                           cfg.clf_hidden, cfg.ln_eps, cfg.seed)

    adapted = fresh_model()
    adapt(adapted, source, target, cfg)

    baseline = fresh_model()
    params = baseline.params
    state = OptimizerState()
    rng = _rng_children(cfg.seed)[3]
    for _ in range(cfg.epochs_adapt):
        for batch in sample_paired_batches(source, target, cfg.batch_size, rng):
            rng.integers(cfg.n_layers)
            cfg.gamma_policy.sample(rng)
            labels = [source.subjects[i].label for i in batch.source_indices]
            with ComputationRecord() as rec:  # the batch as one stack
                pred = classify(encode([source.subjects[i].fcn for i in batch.source_indices],
                                       baseline), baseline)
                loss = dk.cross_entropy(pred.logits, labels)
            grads = backward(loss, rec, params.values())
            adam_step(params, dict(zip(params, grads)), state,
                      cfg.lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)

    same = all(np.array_equal(v.data, params[k].data)
               for k, v in adapted.params.items())
    report(6, same, "zero-weight adaptation equals pure source training bitwise")


# ---------------------------------------------------------------------------
# 7. graph-metric oracles


def test_criterion_07_graph_metric_oracles():
    from test_evalreport import bc_brute_force, graph_from_edges, le_brute_force, random_graph

    path = graph_from_edges(3, [(0, 1), (1, 2)])
    star = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    tri = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    closed = (betweenness_centrality(path).tolist() == [0.0, 1.0, 0.0]
              and betweenness_centrality(star).tolist() == [6.0, 0.0, 0.0, 0.0, 0.0]
              and local_efficiency(tri).tolist() == [1.0, 1.0, 1.0]
              and local_efficiency(path)[1] == 0.0)

    rng = np.random.default_rng(9)
    worst_bc, worst_le = 0.0, 0.0
    for _ in range(20):
        n = int(rng.integers(4, 13))
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        worst_bc = max(worst_bc, np.abs(betweenness_centrality(g)
                                        - bc_brute_force(g)).max())
        worst_le = max(worst_le, np.abs(local_efficiency(g)
                                        - le_brute_force(g)).max())
    ok = closed and worst_bc < 1e-9 and worst_le < 1e-12
    report(7, ok, f"closed forms {closed}, BC dev {worst_bc:.1e}, LE dev {worst_le:.1e} "
                  f"over 20 random graphs")


# ---------------------------------------------------------------------------
# 8. auc oracle


def test_criterion_08_auc_oracle():
    from test_evalreport import auc_pair_oracle

    rng = np.random.default_rng(10)
    exact = True
    for _ in range(40):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = np.round(rng.uniform(0, 1, n), 1)
        exact &= auc(scores, labels) == auc_pair_oracle(scores.tolist(),
                                                        labels.tolist())
    report(8, exact, "rank AUC equals exhaustive pair counting on 40 inputs with ties")


# ---------------------------------------------------------------------------
# 9. end-to-end synthetic benchmark


def test_criterion_09_end_to_end_benchmark():
    cfg = TrainConfig()
    assert (cfg.n_layers, cfg.n_heads) == (2, 4)
    assert (cfg.lambda1, cfg.lambda2) == (1.0, 1.0)
    assert cfg.lr == 1e-5 and cfg.batch_size == 32
    assert cfg.epochs_pretrain + cfg.epochs_adapt == 45

    t0 = time.monotonic()
    source, target = benchmark_datasets(seed=0)
    assert len(source) == 300 and len(target) == 150
    result = run_ablation(source, target, cfg, seeds=(0, 1, 2, 3, 4))
    elapsed = time.monotonic() - t0

    full = result.mean_accuracy("AUFA")
    pre = result.mean_accuracy("pretrain")
    margins = {name: full - result.mean_accuracy(name)
               for name in ("AUFA-C", "AUFA-AUG", "AUFA-MMD")}
    ok = (full - pre >= 0.05 and all(m >= 0.0 for m in margins.values())
          and elapsed < 900.0)
    print("\n" + result.format_table())
    report(9, ok, f"full {full:.3f} vs pretrain {pre:.3f} "
                  f"(margin {full - pre:+.3f}), ablation margins "
                  + ", ".join(f"{k} {v:+.3f}" for k, v in margins.items())
                  + f", runtime {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. manifest reruns


def test_criterion_10_rerun_bitwise(tmp_path):
    spec = {
        "source": {"n_subjects_per_class": 6, "n_rois": 6, "series_length": 50,
                   "class_separation": 0.8, "noise_std": 0.5, "seed": 1},
        "target": {"n_subjects_per_class": 6, "n_rois": 6, "series_length": 50,
                   "class_separation": 0.8, "shift_rotation_strength": 0.3,
                   "shift_offset_strength": 0.2, "noise_std": 0.5, "seed": 2},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))

    def tree(root: Path) -> dict:
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    flags = ["--epochs-pretrain", "1", "--epochs-adapt", "1", "--batch-size", "4",
             "--n-layers", "2", "--n-heads", "2", "--ffn-hidden", "8",
             "--clf-hidden", "8"]
    ok = True
    assert cli_main(["synth", "--spec", str(spec_path),
                     "--out", str(tmp_path / "d1")]) == 0
    assert cli_main(["rerun", str(tmp_path / "d1" / "run_manifest.json"),
                     "--out", str(tmp_path / "d2")]) == 0
    ok &= tree(tmp_path / "d1") == tree(tmp_path / "d2")

    source = tmp_path / "d1" / "source" / "manifest.json"
    assert cli_main(["pretrain", "--source", str(source),
                     "--out", str(tmp_path / "p1"), *flags]) == 0
    assert cli_main(["rerun", str(tmp_path / "p1" / "run_manifest.json"),
                     "--out", str(tmp_path / "p2")]) == 0
    ok &= tree(tmp_path / "p1") == tree(tmp_path / "p2")

    target = tmp_path / "d1" / "target" / "manifest.json"
    assert cli_main(["adapt", "--source", str(source), "--target", str(target),
                     "--init", str(tmp_path / "p1" / "checkpoint.bin"),
                     "--out", str(tmp_path / "a1"), *flags]) == 0
    assert cli_main(["rerun", str(tmp_path / "a1" / "run_manifest.json"),
                     "--out", str(tmp_path / "a2")]) == 0
    ok &= tree(tmp_path / "a1") == tree(tmp_path / "a2")

    report(10, ok, "synth, pretrain, and adapt reruns reproduce outputs byte-for-byte")
