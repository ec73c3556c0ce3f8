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


@dataclass(frozen=True)
class EncoderConfig:
    n_layers: int = 2
    n_heads: int = 4
    d_model: int = 116
    d_head: int | None = None  # defaults to d_model // n_heads
    ffn_hidden: int = 256
    ln_eps: float = 1e-5

    def __post_init__(self):
        if self.n_layers < 1 or self.n_heads < 1:
            raise ValueError("EncoderConfig needs at least one layer and one head")
        if self.d_model < 1 or self.ffn_hidden < 1:
            raise ValueError("EncoderConfig widths must be positive")
        if self.ln_eps <= 0:
            raise ValueError("EncoderConfig ln_eps must be positive")
        if self.d_head is not None and self.d_head < 1:
            raise ValueError("EncoderConfig d_head must be positive")

    @property
    def head_width(self) -> int:
        return self.d_head if self.d_head is not None else max(1, self.d_model // self.n_heads)


class EncoderParams:
    """All learnable encoder weights, keyed by dotted name."""

    def __init__(self, config: EncoderConfig, values: dict[str, Value]):
        self.config = config
        self.values = values

    def __getitem__(self, name: str) -> Value:
        return self.values[name]

    def all_values(self) -> list[Value]:
        return list(self.values.values())


class AttentionMaps:
    """Row-stochastic attention matrices indexed by (layer, head)."""

    def __init__(self) -> None:
        self._maps: dict[tuple[int, int], np.ndarray] = {}

    def put(self, layer: int, head: int, scores: np.ndarray) -> None:
        sums = scores.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-9 or scores.min() < 0:
            raise ValueError(f"attention map ({layer},{head}) is not row-stochastic")
        self._maps[(layer, head)] = scores

    def get(self, layer: int, head: int) -> np.ndarray:
        return self._maps[(layer, head)]

    def keys(self):
        return sorted(self._maps.keys())

    def stack(self) -> np.ndarray:
        """All maps as one (n_maps, N, N) array in (layer, head) order."""
        return np.stack([self._maps[k] for k in self.keys()])

    def __len__(self) -> int:
        return len(self._maps)


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


def parameter_shapes(config: EncoderConfig) -> dict[str, tuple[int, int]]:
    """Name and shape of every encoder weight, in initialization order."""
    d, dk_, h, f = config.d_model, config.head_width, config.n_heads, config.ffn_hidden
    shapes: dict[str, tuple[int, int]] = {}
    for layer in range(config.n_layers):
        p = f"layer{layer}"
        for head in range(h):
            for w in ("WQ", "WK", "WV"):
                shapes[f"{p}.head{head}.{w}"] = (d, dk_)
        shapes[f"{p}.W"] = (h * dk_, d)
        shapes[f"{p}.ln1.g"] = (1, d)
        shapes[f"{p}.ln1.b"] = (1, d)
        shapes[f"{p}.W1"] = (d, f)
        shapes[f"{p}.b1"] = (1, f)
        shapes[f"{p}.W2"] = (f, d)
        shapes[f"{p}.b2"] = (1, d)
        shapes[f"{p}.ln2.g"] = (1, d)
        shapes[f"{p}.ln2.b"] = (1, d)
    return shapes


def init_values(shapes: dict[str, tuple[int, int]], seed: int) -> dict[str, Value]:
    """Layer-norm gains (`.g`) 1, biases and offsets (`.b*`) 0, and uniform
    Xavier weight matrices drawn in `shapes` order. Deterministic given the
    seed."""
    rng = np.random.default_rng(seed)
    values: dict[str, Value] = {}
    for name, shape in shapes.items():
        kind = name.rsplit(".", 1)[1]
        if kind == "g":
            values[name] = Value(np.ones(shape))
        elif kind.startswith("b"):
            values[name] = Value(np.zeros(shape))
        else:
            a = math.sqrt(6.0 / sum(shape))
            values[name] = Value(rng.uniform(-a, a, size=shape))
    return values


def init_encoder(config: EncoderConfig, seed: int) -> EncoderParams:
    return EncoderParams(config, init_values(parameter_shapes(config), seed))


def attention_head(z: Value, wq: Value, wk: Value, wv: Value) -> tuple[Value, Value]:
    """Single attention head: returns (weighted value projection, score matrix)."""
    d_head = wq.shape[1]
    q = dk.matmul(z, wq)
    k = dk.matmul(z, wk)
    scores = dk.row_softmax(dk.matmul(q, dk.transpose(k)), scale=1.0 / math.sqrt(d_head))
    out = dk.matmul(scores, dk.matmul(z, wv))
    return out, scores


def multi_head_layer(z: Value, params: EncoderParams, layer: int,
                     maps: list[AttentionMaps] | None = None) -> Value:
    """Concatenate all head outputs, project back to d_model, layer-normalize.

    `z` is one subject's (N, N) features or a (B, N, N) stack of them. If
    `maps` holds one AttentionMaps per subject, each head's score matrices
    are put there.
    """
    cfg = params.config
    p = f"layer{layer}"
    heads = []
    for head in range(cfg.n_heads):
        out, scores = attention_head(
            z, params[f"{p}.head{head}.WQ"], params[f"{p}.head{head}.WK"],
            params[f"{p}.head{head}.WV"])
        if maps is not None:
            n = scores.shape[-1]
            for subject_maps, s in zip(maps, scores.data.reshape(-1, n, n), strict=True):
                subject_maps.put(layer, head, s)
        heads.append(out)
    projected = dk.matmul(dk.concat_cols(heads), params[f"{p}.W"])
    return dk.row_layer_norm(projected, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"], cfg.ln_eps)


def feed_forward(z: Value, params: EncoderParams, layer: int) -> Value:
    cfg = params.config
    p = f"layer{layer}"
    hidden = dk.affine(z, params[f"{p}.W1"], params[f"{p}.b1"], relu=True)
    out = dk.affine(hidden, params[f"{p}.W2"], params[f"{p}.b2"])
    return dk.row_layer_norm(out, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"], cfg.ln_eps)


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


def _layers(z: Value, params: EncoderParams, injection: AugmentInjection | None,
            capture: list[Value] | None, maps: list[AttentionMaps] | None) -> Value:
    """Every encoder layer over `z` (one subject or a stack), then flatten."""
    cfg = params.config
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
        z = multi_head_layer(z, params, layer, maps)
        z = feed_forward(z, params, layer)
    return dk.flatten(z)


def encode(
    x: ConnectivityMatrix | np.ndarray | Value,
    params: EncoderParams,
    injection: AugmentInjection | None = None,
    capture: list[Value] | None = None,
) -> tuple[Value, AttentionMaps]:
    """Encode one subject; returns its (1, N*N) graph feature row and all
    its attention maps.

    If `injection` is given, the features entering layer `injection.layer_index`
    are first blended toward the partner features. If `capture` is a list, the
    unblended input features of every layer are appended to it (these are what
    a partner subject contributes at each depth).
    """
    z = x if isinstance(x, Value) else Value(_array(x))
    if len(z.shape) != 2:
        raise ValueError(f"encode takes one subject's matrix, got shape {z.shape}")
    maps = AttentionMaps()
    return _layers(z, params, injection, capture, [maps]), maps


def encode_batch(xs, params: EncoderParams,
                 captures: list[Value] | None = None,
                 injection: AugmentInjection | None = None,
                 maps: list[AttentionMaps] | None = None) -> Value:
    """Encode the subjects of `xs` as one (B, N, N) stack, one graph op per
    layer step for the whole batch; returns the (B, N*N) feature rows, row
    k bitwise equal to `encode(xs[k], ...)`.

    `injection`, if given, blends the whole stack toward its
    `partner_features`, a (B, N, N) stack (see `dk.permute`). If `captures`
    is a list, the stacked input of every layer is appended to it. If
    `maps` is a list, one AttentionMaps per subject is appended to it;
    otherwise no maps are built.
    """
    if not xs:
        raise ValueError("encode_batch needs at least one subject")
    z = Value(np.stack([_array(x) for x in xs]))
    per_subject = [AttentionMaps() for _ in xs] if maps is not None else None
    feats = _layers(z, params, injection, captures, per_subject)
    if maps is not None:
        maps.extend(per_subject)
    return feats
