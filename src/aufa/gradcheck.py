"""Finite-difference validation of every differentiable primitive and of
the trainer's joint objective on a small toy setup."""

from __future__ import annotations

import math

import numpy as np

from . import diffkernel as dk
from .adaptation import FilterMask, LossWeights
from .connectome import TimeSeries, pearson_fcn
from .diffkernel import Value, finite_diff_check
from .model import Model, build_model, param_kind
from .trainer import joint_objective


def check_primitives(seeds: int = 5, step: float = 1e-5) -> dict[str, float]:
    """Max relative gradient error per primitive, over random evaluation points."""
    results: dict[str, float] = {}

    def run(name, f, params, randomize=None):
        results[name] = finite_diff_check(f, params, step=step, seeds=seeds,
                                          randomize=randomize)

    a = Value(np.zeros((2, 3)))
    b = Value(np.zeros((3, 2)))
    run("matmul", lambda: dk.sum_squares(dk.matmul(a, b)), [a, b])

    x34 = Value(np.zeros((3, 4)))
    run("row_softmax", lambda: dk.sum_squares(dk.row_softmax(x34, scale=0.7)), [x34])
    w = Value(np.zeros((4, 3)))
    bias = Value(np.zeros((1, 3)))
    x24 = Value(np.zeros((2, 4)))
    run("affine_relu", lambda: dk.sum_squares(dk.affine(x24, w, bias, relu=True)),
        [x24, w, bias])
    run("flatten", lambda: dk.sum_squares(dk.flatten(x34)), [x34])
    run("col_sum", lambda: dk.sum_squares(dk.col_sum(x34)), [x34])
    run("sum_squares", lambda: dk.sum_squares(dk.sum_squares(x34)), [x34])
    run("scale", lambda: dk.sum_squares(dk.scale(x34, -1.7)), [x34])
    run("select_rows", lambda: dk.sum_squares(dk.select_rows(x34, [2, 0, 1, 0])), [x34])

    y34 = Value(np.zeros((3, 4)))
    run("add", lambda: dk.sum_squares(dk.add(x34, y34)), [x34, y34])
    run("sub", lambda: dk.sum_squares(dk.sub(x34, y34)), [x34, y34])
    run("concat_rows", lambda: dk.sum_squares(dk.concat_rows([x34, y34])), [x34, y34])

    # a stack, so each weight's gradient is the flattened-stack GEMM
    z = Value(np.zeros((2, 4, 4)))
    heads = [tuple(Value(np.zeros((4, 2))) for _ in range(3)) for _ in range(2)]
    run("multi_head_attention",
        lambda: dk.sum_squares(dk.flatten(dk.multi_head_attention(z, heads))),
        [z, *(w for head in heads for w in head)])
    # against a constant that differs per subject, so a wrong inverse shows
    s324 = Value(np.zeros((3, 2, 4)))
    c324 = Value(np.linspace(-1.0, 1.0, 24).reshape(3, 2, 4))
    run("permute", lambda: dk.sum_squares(dk.sub(dk.permute(s324, [2, 0, 1]), c324)), [s324])

    x46 = Value(np.zeros((4, 6)))
    g16 = Value(np.zeros((1, 6)))
    b16 = Value(np.zeros((1, 6)))

    def randomize_ln(rng):
        x46.data[...] = rng.uniform(-0.5, 0.5, x46.shape)
        g16.data[...] = rng.uniform(0.9, 1.1, g16.shape)
        b16.data[...] = rng.uniform(-0.1, 0.1, b16.shape)

    run("row_layer_norm",
        lambda: dk.sum_squares(dk.row_layer_norm(x46, g16, b16, eps=1e-5)),
        [x46, g16, b16], randomize=randomize_ln)

    run("affine", lambda: dk.sum_squares(dk.affine(x24, w, bias)), [x24, w, bias])

    logits = Value(np.zeros((4, 2)))
    run("cross_entropy", lambda: dk.cross_entropy(logits, [0, 1, 1, 0]), [logits])

    pz = Value(np.zeros((4, 2)))
    qz = Value(np.zeros((4, 2)))
    run("kl_divergence",
        lambda: dk.kl_divergence(dk.row_softmax(pz, 1.0), dk.row_softmax(qz, 1.0)),
        [pz, qz])

    return results


def _toy_fcns(rng: np.random.Generator, n_rois: int, count: int):
    out = []
    for i in range(count):
        series = rng.standard_normal((20, n_rois))
        out.append(pearson_fcn(TimeSeries(f"toy{i}", series)))
    return out


def _xavier_randomize(model: Model):
    """Re-draw every parameter at its init scale (gains near 1, biases small)."""

    def randomize(rng: np.random.Generator):
        for name, p in model.params.items():
            kind = param_kind(name)
            if kind == "gain":
                p.data[...] = rng.uniform(0.9, 1.1, p.shape)
            elif kind == "bias":
                p.data[...] = rng.uniform(-0.1, 0.1, p.shape)
            else:
                a = math.sqrt(6.0 / sum(p.shape))
                p.data[...] = rng.uniform(-a, a, p.shape)

    return randomize


def check_joint_loss(seeds: int = 5, step: float = 1e-5,
                     n_rois: int = 6, batch: int = 4) -> float:
    """Gradient check of the trainer's joint objective (cross-entropy +
    alignment + consistency) on a 2-layer, 2-head toy model.

    The batch, the blend layer/strength, the partner pairing, and the
    confidence mask (held at keep-all) are fixed inside the closure so the
    objective is differentiable at the evaluation point.
    """
    data_rng = np.random.default_rng(20240101)
    model = build_model(n_rois=n_rois, n_layers=2, n_heads=2, ffn_hidden=6,
                        clf_hidden=6, ln_eps=1e-5, seed=7)
    src = _toy_fcns(data_rng, n_rois, batch)
    tgt = _toy_fcns(data_rng, n_rois, batch)
    labels = [i % 2 for i in range(batch)]
    partners = [(i + 1) % batch for i in range(batch)]

    def keep_all(clean, blended) -> FilterMask:
        return FilterMask(keep=np.ones(batch, dtype=bool), threshold=0.8)

    def f() -> Value:
        return joint_objective(model, src, labels, tgt, partners, layer=1, gamma=0.3,
                               weights=LossWeights(1.0, 1.0), mask=keep_all)[0]

    params = list(model.params.values())
    return finite_diff_check(f, params, step=step, seeds=seeds,
                             randomize=_xavier_randomize(model))


def run_suite(seeds: int = 5, step: float = 1e-5) -> tuple[dict[str, float], float]:
    """Full gradient-check suite; returns (per-check errors, overall max)."""
    results = check_primitives(seeds=seeds, step=step)
    results["joint_loss"] = check_joint_loss(seeds=seeds, step=step)
    return results, max(results.values())
