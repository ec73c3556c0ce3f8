"""Transformer graph encoder over connectivity matrices.

The NxN connectivity matrix is the initial node-feature matrix (one row
per region, d_model = N). Each layer applies multi-head self-attention
with post-projection layer norm, then a two-layer feed-forward block with
its own layer norm; both blocks are purely post-norm, with no residual
connections. The final node features are flattened row-major into a
single graph-level feature row.
"""

from __future__ import annotations

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


def multi_head_layer(z: Value, model: Model, layer: int,
                     scores: list[np.ndarray] | None = None) -> Value:
    """Concatenate all head outputs, project back to d_model, layer-normalize.

    `z` is one subject's (N, N) features or a (B, N, N) stack of them. If
    `scores` is a list, each head's attention scores, shaped like `z`, are
    appended to it.
    """
    p = f"layer{layer}"
    attended = dk.multi_head_attention(z, [
        tuple(model[f"{p}.head{head}.{w}"] for w in ("WQ", "WK", "WV"))
        for head in range(model.config.n_heads)], scores)
    projected = dk.matmul(attended, model[f"{p}.W"])
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


def _stack(xs, model: Model) -> Value:
    if not xs:
        raise ValueError("the encoder needs at least one subject")
    z = Value(np.stack([_array(x) for x in xs]))
    n = model.config.d_model
    if z.shape[-2:] != (n, n):
        raise ValueError(f"encoder expects a {n}x{n} input, got {z.shape[-2:]}")
    return z


def _layers(z: Value, model: Model, first: int, injection: AugmentInjection | None,
            capture: list[Value] | None, scores: list[np.ndarray] | None) -> Value:
    """Encoder layers `first`, ..., n_layers - 1 over the stack `z`, then
    flatten each subject's features into one row."""
    cfg = model.config
    if injection is not None:
        if not first <= injection.layer_index < cfg.n_layers:
            raise ValueError(f"injection layer {injection.layer_index} out of range")
        if injection.partner_features.shape != z.shape:
            raise ValueError(f"partner features {injection.partner_features.shape} "
                             f"do not match the input {z.shape}")
    for layer in range(first, cfg.n_layers):
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
    return _layers(_stack(xs, model), model, 0, injection, capture, None)


def resume(z: Value, model: Model, injection: AugmentInjection) -> Value:
    """The encoder from layer `injection.layer_index` on: `z`, the (B, N, N)
    stack entering that layer, is blended as `injection` says and run
    through the remaining layers; returns the (B, N*N) feature rows.

    With `z` the stack that `encode(xs, model, capture=...)` captured at
    that layer, this is `encode(xs, model, injection=injection)` bit for
    bit, without recomputing the layers below the blend.
    """
    return _layers(z, model, injection.layer_index, injection, None, None)


def attention(xs, model: Model) -> np.ndarray:
    """The attention scores of every subject of `xs`, layer and head, as one
    (B, n_layers * n_heads, N, N) array in (layer, head) order. Each map is
    row-stochastic."""
    scores: list[np.ndarray] = []
    _layers(_stack(xs, model), model, 0, None, None, scores)
    return np.stack(scores, axis=1)
