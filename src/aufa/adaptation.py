"""Classification head and the three training losses.

Source subjects carry labels and contribute a cross-entropy term. The
feature-alignment term is the squared distance between per-domain batch
means of the two fully-connected feature layers (a linear-kernel MMD).
The self-optimization term is a symmetric KL divergence between the
predictions for a clean target subject and its feature-blended variant,
restricted to rows where both predictions are confident.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffkernel as dk
from .diffkernel import Value
from .model import Model


@dataclass
class Prediction:
    """Batch prediction: raw logits, softmax probabilities, and the two
    fully-connected feature layers used for alignment."""

    logits: Value
    probs: Value
    fc_features: list[Value]

    @property
    def batch_size(self) -> int:
        return self.logits.shape[0]

    def hard_labels(self) -> np.ndarray:
        return self.probs.data.argmax(axis=1)

    def positive_scores(self) -> np.ndarray:
        return self.probs.data[:, 1].copy()


def classify(f: Value, model: Model) -> Prediction:
    """Apply the model's two-layer head to a batch of graph-level feature
    rows; the input width is read from the shape of clf.W1."""
    n_inputs = model["clf.W1"].shape[0]
    if f.shape[1] != n_inputs:
        raise ValueError(f"classifier expects {n_inputs} inputs, got {f.shape[1]}")
    f1 = dk.affine(f, model["clf.W1"], model["clf.b1"], relu=True)
    logits = dk.affine(f1, model["clf.W2"], model["clf.b2"])
    probs = dk.row_softmax(logits, scale=1.0)
    return Prediction(logits=logits, probs=probs, fc_features=[f1, logits])


@dataclass(frozen=True)
class LossWeights:
    lambda1: float = 1.0
    lambda2: float = 1.0

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("loss weights must be nonnegative")


def mmd_loss(source_feats: list[Value], target_feats: list[Value]) -> Value:
    """Squared distance of per-domain batch means, summed over feature layers.

    Computed as (1/B^2) * sum_l ||colsum(source_l) - colsum(target_l)||^2,
    which equals sum_l ||mean_source_l - mean_target_l||^2 exactly.
    """
    if len(source_feats) != len(target_feats):
        raise ValueError(
            f"layer count mismatch: {len(source_feats)} vs {len(target_feats)}")
    if not source_feats:
        raise ValueError("mmd_loss needs at least one feature layer")
    b = source_feats[0].shape[0]
    total: Value | None = None
    for fs, ft in zip(source_feats, target_feats):
        if fs.shape[0] != b or ft.shape[0] != b:
            raise ValueError("mmd_loss needs equal batch sizes on both sides")
        if fs.shape[1] != ft.shape[1]:
            raise ValueError("mmd_loss feature widths must agree per layer")
        gap = dk.sub(dk.col_sum(fs), dk.col_sum(ft))
        term = dk.sum_squares(gap)
        total = term if total is None else dk.add(total, term)
    return dk.scale(total, 1.0 / (b * b))


@dataclass(frozen=True)
class FilterMask:
    """Per-row keep decisions of the confidence filter."""

    keep: np.ndarray
    threshold: float

    @property
    def kept_indices(self) -> np.ndarray:
        return np.flatnonzero(self.keep)

    @property
    def kept_fraction(self) -> float:
        return float(self.keep.mean()) if self.keep.size else 0.0


def confidence_filter(p: Prediction, p_aug: Prediction, epsilon: float) -> FilterMask:
    """Keep a row only when both the clean and the blended prediction are
    confident: max probability strictly above epsilon on each."""
    if not 0.5 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0.5, 1), got {epsilon}")
    if p.batch_size != p_aug.batch_size:
        raise ValueError("confidence_filter needs equal batch sizes")
    keep = (p.probs.data.max(axis=1) > epsilon) & (p_aug.probs.data.max(axis=1) > epsilon)
    return FilterMask(keep=keep, threshold=epsilon)


def self_opt_loss(p: Prediction, p_aug: Prediction, mask: FilterMask) -> Value:
    """Symmetric KL between clean and blended predictions over kept rows;
    exactly zero (with zero gradients) when nothing is kept."""
    if mask.keep.shape[0] != p.batch_size:
        raise ValueError("mask size does not match batch")
    idx = mask.kept_indices
    if idx.size == 0:
        return dk.scalar(0.0)
    pt = dk.select_rows(p.probs, idx)
    pa = dk.select_rows(p_aug.probs, idx)
    both = dk.add(dk.kl_divergence(pt, pa), dk.kl_divergence(pa, pt))
    return dk.scale(both, 0.5)


def joint_loss(l_c: Value, l_m: Value, l_a: Value, weights: LossWeights) -> Value:
    """l_c + lambda1 * l_m + lambda2 * l_a."""
    for name, v in ("l_c", l_c), ("l_m", l_m), ("l_a", l_a):
        if v.shape != (1, 1):
            raise ValueError(f"{name} must be scalar, got {v.shape}")
    return dk.add(dk.add(l_c, dk.scale(l_m, weights.lambda1)),
                  dk.scale(l_a, weights.lambda2))
