"""Transformer graph encoder over connectivity matrices.

The NxN connectivity matrix is the initial node-feature matrix (one row
per region, d_model = N). Each layer applies multi-head self-attention
with post-projection layer norm, then a two-layer feed-forward block with
its own layer norm; both blocks are purely post-norm, with no residual
connections. The final node features are flattened row-major into a
single graph-level feature row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffkernel as dk
from .connectome import ConnectivityMatrix
from .diffkernel import Value
from .model import Model


@dataclass(frozen=True)
class AugmentInjection:
    """Feature-mixing instruction: before layer `layer_index`, move the
    subject's features a fraction `gamma` of the way toward
    `partner_features` (another subject's features at the same depth)."""

    layer_index: int
    partner_features: Value
    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")


def attention_head(z: Value, wq: Value, wk: Value, wv: Value) -> tuple[Value, Value]:
    """Single attention head: returns (weighted value projection, score matrix)."""
    d_head = wq.shape[1]
    q = dk.matmul(z, wq)
    k = dk.matmul(z, wk)
    scores = dk.row_softmax(dk.matmul(q, dk.transpose(k)), scale=1.0 / math.sqrt(d_head))
    out = dk.matmul(scores, dk.matmul(z, wv))
    return out, scores


def multi_head_layer(z: Value, model: Model, layer: int,
                     scores: list[np.ndarray] | None = None) -> Value:
    """Concatenate all head outputs, project back to d_model, layer-normalize.

    `z` is one subject's (N, N) features or a (B, N, N) stack of them. If
    `scores` is a list, each head's attention scores, shaped like `z`, are
    appended to it.
    """
    p = f"layer{layer}"
    heads = []
    for head in range(model.config.n_heads):
        out, s = attention_head(
            z, model[f"{p}.head{head}.WQ"], model[f"{p}.head{head}.WK"],
            model[f"{p}.head{head}.WV"])
        if scores is not None:
            scores.append(s.data)
        heads.append(out)
    projected = dk.matmul(dk.concat_cols(heads), model[f"{p}.W"])
    return dk.row_layer_norm(projected, model[f"{p}.ln1.g"], model[f"{p}.ln1.b"],
                             model.config.ln_eps)


def feed_forward(z: Value, model: Model, layer: int) -> Value:
    p = f"layer{layer}"
    hidden = dk.affine(z, model[f"{p}.W1"], model[f"{p}.b1"], relu=True)
    out = dk.affine(hidden, model[f"{p}.W2"], model[f"{p}.b2"])
    return dk.row_layer_norm(out, model[f"{p}.ln2.g"], model[f"{p}.ln2.b"],
                             model.config.ln_eps)


def _mix(own: Value, partner: Value, gamma: float) -> Value:
    # exact endpoints: gamma 0 keeps the subject, gamma 1 becomes the partner
    if gamma == 0.0:
        return own
    if gamma == 1.0:
        return partner
    return dk.add(dk.scale(own, 1.0 - gamma), dk.scale(partner, gamma))


def _array(x: ConnectivityMatrix | np.ndarray | Value) -> np.ndarray:
    if isinstance(x, ConnectivityMatrix):
        return x.values
    return x.data if isinstance(x, Value) else np.asarray(x)


def _layers(xs, model: Model, injection: AugmentInjection | None,
            capture: list[Value] | None, scores: list[np.ndarray] | None) -> Value:
    """Every encoder layer over the subjects of `xs` as one (B, N, N) stack,
    then flatten each subject's features into one row."""
    if not xs:
        raise ValueError("the encoder needs at least one subject")
    z = Value(np.stack([_array(x) for x in xs]))
    cfg = model.config
    n = cfg.d_model
    if z.shape[-2:] != (n, n):
        raise ValueError(f"encoder expects a {n}x{n} input, got {z.shape[-2:]}")
    if injection is not None:
        if not 0 <= injection.layer_index < cfg.n_layers:
            raise ValueError(f"injection layer {injection.layer_index} out of range")
        if injection.partner_features.shape != z.shape:
            raise ValueError(f"partner features {injection.partner_features.shape} "
                             f"do not match the input {z.shape}")
    for layer in range(cfg.n_layers):
        if capture is not None:
            capture.append(z)
        if injection is not None and injection.layer_index == layer:
            z = _mix(z, injection.partner_features, injection.gamma)
        z = multi_head_layer(z, model, layer, scores)
        z = feed_forward(z, model, layer)
    return dk.flatten(z)


def encode(xs, model: Model, injection: AugmentInjection | None = None,
           capture: list[Value] | None = None) -> Value:
    """Encode the subjects of `xs` (connectivity matrices, arrays or values)
    as one (B, N, N) stack, one graph op per layer step for the whole
    batch; returns the (B, N*N) feature rows. Each subject's row is the
    same bits at any stack size and position; `encode([x], model)` encodes
    one subject.

    If `injection` is given, the stack entering layer `injection.layer_index`
    is first blended toward its `partner_features`, a (B, N, N) stack (see
    `dk.permute`). If `capture` is a list, the unblended input stack of every
    layer is appended to it (these are what partner subjects contribute at
    each depth).
    """
    return _layers(xs, model, injection, capture, None)


def attention(xs, model: Model) -> np.ndarray:
    """The attention scores of every subject of `xs`, layer and head, as one
    (B, n_layers * n_heads, N, N) array in (layer, head) order. Each map is
    row-stochastic."""
    scores: list[np.ndarray] = []
    _layers(xs, model, None, None, scores)
    return np.stack(scores, axis=1)
