"""Two-stage optimization: source-only pretraining, then joint adaptation.

Stage one fits the encoder and classifier on labelled source subjects with
cross-entropy alone. Stage two continues training on the joint objective:
source cross-entropy, batch-mean feature alignment against the unlabelled
target batch, and the confidence-filtered consistency term between clean
and feature-blended target predictions.

All randomness flows through numpy Generators seeded from the run seed, and
the per-step draw order is fixed and independent of the loss weights, so a
run with both weights zero consumes the stream exactly like pure source
training.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import diffkernel as dk
from .adaptation import (FilterMask, LossWeights, Prediction, classify,
                         confidence_filter, joint_loss, mmd_loss, self_opt_loss)
from .connectome import Dataset
from .diffkernel import ComputationRecord, Value, backward
from .encoder import AugmentInjection, encode, resume
from .model import Model, ModelConfig, build_model


@dataclass(frozen=True)
class GammaPolicy:
    """Blend-strength schedule: either a fixed value or uniform(0, value)."""

    kind: str = "uniform"
    value: float = 0.5

    def __post_init__(self):
        if self.kind not in ("fixed", "uniform"):
            raise ValueError(f"unknown gamma policy kind {self.kind!r}")
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("gamma policy value must lie in [0, 1]")

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "fixed":
            return self.value
        return float(rng.uniform(0.0, self.value))

    @staticmethod
    def from_dict(d: dict) -> "GammaPolicy":
        return GammaPolicy(kind=str(d["kind"]), value=float(d["value"]))


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-5
    epochs_pretrain: int = 15
    epochs_adapt: int = 30
    batch_size: int = 32
    lambda1: float = 1.0
    lambda2: float = 1.0
    epsilon: float = 0.8
    gamma_policy: GammaPolicy = field(default_factory=GammaPolicy)
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    n_layers: int = 2
    n_heads: int = 4
    ffn_hidden: int = 256
    clf_hidden: int = 4096
    ln_eps: float = 1e-5
    d_head: int | None = None

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if not 0.5 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0.5, 1)")
        if self.epochs_pretrain < 0 or self.epochs_adapt < 0:
            raise ValueError("epoch counts must be nonnegative")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("loss weights must be nonnegative")
        self.model_config(d_model=1)  # the architecture's own rules; data sets d_model

    def model_config(self, d_model: int) -> ModelConfig:
        return ModelConfig(n_layers=self.n_layers, n_heads=self.n_heads, d_model=d_model,
                           d_head=self.d_head, ffn_hidden=self.ffn_hidden,
                           ln_eps=self.ln_eps, clf_hidden=self.clf_hidden)

    def weights(self) -> LossWeights:
        return LossWeights(lambda1=self.lambda1, lambda2=self.lambda2)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        d = dict(d)
        if "gamma_policy" in d and isinstance(d["gamma_policy"], dict):
            d["gamma_policy"] = GammaPolicy.from_dict(d["gamma_policy"])
        known = set(TrainConfig.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return TrainConfig(**d)


@dataclass
class OptimizerState:
    """Adam moment accumulators and step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


# Elements per Adam chunk (1 MB). A factored gradient's chunk is formed by
# GEMMs that read each factor's whole g, so fewer chunks read less: a
# 13,456x4,096 update from three factors took 0.90 s at 128K and 1.03 s at
# 32K (one core); a dense 256x4096 one, 10.1 and 9.7 ms (14.1 unchunked).
ADAM_CHUNK = 131072


def adam_step(params: dict[str, Value], grads: dict[str, np.ndarray | list],
              state: OptimizerState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> tuple[dict[str, Value], OptimizerState]:
    """Bias-corrected Adam update of `params`, in place; `grads` (arrays, or
    factor lists from backward(..., factored=True)) are only read.

    The update is elementwise, so it runs chunk by chunk: whole slices
    along each parameter's leading axis, about ADAM_CHUNK elements each,
    through chunk-sized scratch buffers; a factored gradient is formed a
    chunk at a time (dk.factor_sum). Every element sees the same operations
    in the same order as in one pass over the whole dense gradient, so the
    result is the same to the bit, at any strides.
    """
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for name, p in params.items():
        grad = grads[name]
        shapes = ([(x.shape[1], g.shape[1]) for x, g in grad] if isinstance(grad, list)
                  else [grad.shape])
        if any(shape != p.shape for shape in shapes):
            raise ValueError(f"gradient shape mismatch for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
    # a chunk has at most step + 1 rows, step = max(2, ADAM_CHUNK // row)
    scratch = np.empty((2, ADAM_CHUNK + 3 * max([p.data[0].size for p in params.values()],
                                                default=0)))
    for name, p in params.items():
        grad, n = grads[name], p.shape[0]
        # two or more rows a chunk and no one-row tail (see dk.factor_sum)
        starts = range(0, max(1, n - 1), max(2, ADAM_CHUNK // p.data[0].size))
        for lo, hi in zip(starts, [*starts[1:], n]):
            x, m, v = p.data[lo:hi], state.m[name][lo:hi], state.v[name][lo:hi]
            tmp = scratch[0, :x.size].reshape(x.shape)
            g = (dk.factor_sum(grad, slice(lo, hi), scratch[1, :x.size].reshape(x.shape))
                 if isinstance(grad, list) else grad[lo:hi])
            m *= beta1
            np.multiply(g, 1.0 - beta1, out=tmp)
            m += tmp
            v *= beta2
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - beta2
            v += tmp
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += eps
            np.divide(m, tmp, out=tmp)
            tmp *= lr / bc1
            x -= tmp
    return params, state


@dataclass
class RunLog:
    records: list[dict] = field(default_factory=list)

    def append(self, record: dict) -> None:
        for key, value in record.items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"non-finite log value for {key!r}")
        self.records.append(record)

    def save(self, path) -> None:
        import json

        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")


@dataclass(frozen=True)
class PairedBatch:
    source_indices: tuple[int, ...]
    target_indices: tuple[int, ...]
    partners: tuple[int, ...]  # within-batch position of each target's partner


class _ClassStreams:
    """Endless class-balanced index streams over the labelled source set."""

    def __init__(self, source: Dataset, rng: np.random.Generator):
        self.pools = [
            [i for i, s in enumerate(source.subjects) if s.label == cls]
            for cls in (0, 1)
        ]
        if not self.pools[0] or not self.pools[1]:
            raise ValueError("source dataset must contain both classes")
        self.rng = rng
        self.queues: list[list[int]] = [[], []]

    def take(self, cls: int, k: int) -> list[int]:
        out = []
        q = self.queues[cls]
        while len(out) < k:
            if not q:
                q.extend(self.rng.permutation(self.pools[cls]).tolist())
            out.append(q.pop(0))
        return out


def _derangement(n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        perm = rng.permutation(n)
        if not (perm == np.arange(n)).any():
            return perm


def sample_source_batches(source: Dataset, batch_size: int,
                          rng: np.random.Generator) -> list[tuple[int, ...]]:
    """Class-balanced source batches for one epoch (ragged tail dropped)."""
    if len(source) < batch_size:
        raise ValueError(f"source dataset ({len(source)}) smaller than batch ({batch_size})")
    streams = _ClassStreams(source, rng)
    n_steps = len(source) // batch_size
    half = batch_size // 2
    batches = []
    for _ in range(n_steps):
        idx = streams.take(0, half) + streams.take(1, batch_size - half)
        batches.append(tuple(idx))
    return batches


def sample_paired_batches(source: Dataset, target: Dataset, batch_size: int,
                          rng: np.random.Generator) -> list[PairedBatch]:
    """One epoch of paired batches.

    Target subjects are consumed without replacement (ragged tail dropped);
    each batch gets class-balanced source subjects and a fixed-point-free
    random pairing assigning every target subject a distinct partner.
    """
    if len(source) < batch_size:
        raise ValueError(f"source dataset ({len(source)}) smaller than batch ({batch_size})")
    if len(target) < batch_size:
        raise ValueError(f"target dataset ({len(target)}) smaller than batch ({batch_size})")
    streams = _ClassStreams(source, rng)
    target_order = rng.permutation(len(target))
    n_steps = len(target) // batch_size
    half = batch_size // 2
    batches = []
    for step in range(n_steps):
        src = streams.take(0, half) + streams.take(1, batch_size - half)
        tgt = target_order[step * batch_size:(step + 1) * batch_size]
        partners = _derangement(batch_size, rng)
        batches.append(PairedBatch(tuple(src), tuple(int(i) for i in tgt),
                                   tuple(int(i) for i in partners)))
    return batches


def _rng_children(seed: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)]


def _fcns(dataset: Dataset, indices) -> list:
    return [dataset.subjects[i].fcn for i in indices]


def _step(params: dict[str, Value], state: OptimizerState, config: TrainConfig,
          objective: Callable[[], tuple[Value, object]]) -> object:
    """One update: record `objective()`, which returns (loss, stats), take
    the loss's gradient for every parameter, take an Adam step, and return
    the stats."""
    with ComputationRecord() as rec:
        loss, stats = objective()
    grads = backward(loss, rec, params.values(), factored=True)
    adam_step(params, dict(zip(params, grads)), state,
              config.lr, config.adam_beta1, config.adam_beta2, config.adam_eps)
    return stats


def pretrain(source: Dataset, config: TrainConfig) -> tuple[Model, RunLog]:
    """Stage one: supervised training on the labelled source domain."""
    for s in source.subjects:
        if s.label is None:
            raise ValueError(f"unlabeled source subject {s.subject_id!r}")
    model = build_model(source.n_rois, config.n_layers, config.n_heads,
                        config.ffn_hidden, config.clf_hidden, config.ln_eps,
                        config.seed, d_head=config.d_head)
    _, _, pretrain_rng, _ = _rng_children(config.seed)
    state = OptimizerState()
    log = RunLog()
    params = model.params
    for epoch in range(config.epochs_pretrain):
        losses = []
        for batch in sample_source_batches(source, config.batch_size, pretrain_rng):
            def source_loss():
                pred = classify(encode(_fcns(source, batch), model), model)
                loss = dk.cross_entropy(pred.logits, [source.subjects[i].label for i in batch])
                return loss, loss.item()

            losses.append(_step(params, state, config, source_loss))
        log.append({
            "stage": "pretrain", "epoch": epoch,
            "loss_c": float(np.mean(losses)), "loss_m": 0.0, "loss_a": 0.0,
            "loss_joint": float(np.mean(losses)), "kept_fraction": 0.0,
        })
    return model, log


def joint_objective(model: Model, source_x, labels, target_x, partners,
                    layer: int, gamma: float, weights: LossWeights,
                    mask: Callable[[Prediction, Prediction], FilterMask]
                    ) -> tuple[Value, dict]:
    """The stage-two loss of one batch and its parts.

    Source subjects `source_x` with `labels` give the cross-entropy. The
    clean target subjects `target_x` give the alignment term against the
    source batch, and, blended at `layer` by `gamma` toward their partners
    (`partners[k]` is the within-batch position of subject k's partner),
    the consistency term over the rows that `mask(clean, blended)` keeps.
    A term with zero weight is not computed; with both weights zero the
    target batch is not encoded at all. Returns the loss and a dict of
    `loss_c`, `loss_m`, `loss_a`, `loss_joint` and `kept_fraction`.
    """
    pred_s = classify(encode(source_x, model), model)
    l_c = dk.cross_entropy(pred_s.logits, labels)
    l_m = l_a = dk.scalar(0.0)
    kept = 0.0
    if weights.lambda1 != 0.0 or weights.lambda2 != 0.0:
        capture: list[Value] = []
        pred_t = classify(encode(target_x, model, capture=capture), model)
        if weights.lambda1 != 0.0:
            l_m = mmd_loss(pred_s.fc_features, pred_t.fc_features)
        if weights.lambda2 != 0.0:
            # the blended pass resumes from the clean pass's input to `layer`
            own = capture[layer]
            injection = AugmentInjection(layer, dk.permute(own, partners), gamma)
            pred_a = classify(resume(own, model, injection), model)
            keep = mask(pred_t, pred_a)
            l_a = self_opt_loss(pred_t, pred_a, keep)
            kept = keep.kept_fraction
    loss = joint_loss(l_c, l_m, l_a, weights)
    return loss, {"loss_c": l_c.item(), "loss_m": l_m.item(), "loss_a": l_a.item(),
                  "loss_joint": loss.item(), "kept_fraction": kept}


def adapt(model: Model, source: Dataset, target: Dataset,
          config: TrainConfig) -> tuple[Model, RunLog]:
    """Stage two: minimize the joint loss on labelled source plus unlabelled
    target. Target labels are never read."""
    if source.n_rois != model.config.d_model or target.n_rois != model.config.d_model:
        raise ValueError("dataset dimensions do not match the model")
    for s in source.subjects:
        if s.label is None:
            raise ValueError(f"unlabeled source subject {s.subject_id!r}")
    _, _, _, adapt_rng = _rng_children(config.seed)
    state = OptimizerState()
    params = model.params
    log = RunLog()
    weights = config.weights()

    def mask(clean: Prediction, blended: Prediction) -> FilterMask:
        return confidence_filter(clean, blended, config.epsilon)

    for epoch in range(config.epochs_adapt):
        stats: list[dict] = []
        for batch in sample_paired_batches(source, target, config.batch_size, adapt_rng):
            # drawn unconditionally so stream use is independent of the weights
            layer = int(adapt_rng.integers(config.n_layers))
            gamma = config.gamma_policy.sample(adapt_rng)
            labels = [source.subjects[i].label for i in batch.source_indices]
            stats.append(_step(params, state, config, lambda: joint_objective(
                model, _fcns(source, batch.source_indices), labels,
                _fcns(target, batch.target_indices), batch.partners, layer, gamma,
                weights, mask)))
        log.append({"stage": "adapt", "epoch": epoch,
                    **{key: float(np.mean([s[key] for s in stats])) for key in stats[0]}})
    return model, log
