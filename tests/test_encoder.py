import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aufa import diffkernel as dk
from aufa.connectome import TimeSeries, pearson_fcn
from aufa.diffkernel import Value, finite_diff_check
from aufa.encoder import (AugmentInjection, attention, attention_head, encode,
                          feed_forward, multi_head_layer)
from aufa.model import Model, ModelConfig, init_values, parameter_shapes


def toy_config(n=6, layers=2, heads=2, ffn=8):
    return ModelConfig(n_layers=layers, n_heads=heads, d_model=n, ffn_hidden=ffn)


def encoder_model(cfg, seed):
    """A model holding only the encoder weights of `cfg`. They come first in
    `parameter_shapes` order, so `init_values` draws them as the builder does."""
    shapes = {k: s for k, s in parameter_shapes(cfg).items() if not k.startswith("clf.")}
    return Model(cfg, init_values(shapes, seed))


def toy_fcn(seed, n=6):
    rng = np.random.default_rng(seed)
    return pearson_fcn(TimeSeries(f"t{seed}", rng.standard_normal((30, n))))


# ---------------------------------------------------------------------------
# initialization


def test_init_deterministic():
    cfg = toy_config()
    p1 = encoder_model(cfg, seed=5)
    p2 = encoder_model(cfg, seed=5)
    assert p1.params.keys() == p2.params.keys()
    for k in p1.params:
        assert np.array_equal(p1[k].data, p2[k].data)
    p3 = encoder_model(cfg, seed=6)
    assert not np.array_equal(p1["layer0.head0.WQ"].data, p3["layer0.head0.WQ"].data)


def test_init_layer_norm_gains_and_biases():
    model = encoder_model(toy_config(), seed=0)
    for layer in range(2):
        for ln in ("ln1", "ln2"):
            assert np.array_equal(model[f"layer{layer}.{ln}.g"].data, np.ones((1, 6)))
            assert np.array_equal(model[f"layer{layer}.{ln}.b"].data, np.zeros((1, 6)))
        assert np.array_equal(model[f"layer{layer}.b1"].data, np.zeros((1, 8)))
        assert np.array_equal(model[f"layer{layer}.b2"].data, np.zeros((1, 6)))


def test_init_weight_mean_within_three_sigma():
    cfg = ModelConfig(n_layers=2, n_heads=4, d_model=32, d_head=8, ffn_hidden=128)
    model = encoder_model(cfg, seed=123)
    standardized = []
    for name, v in model.params.items():
        if name.endswith((".g", ".b", ".b1", ".b2")):
            continue
        bound = math.sqrt(6.0 / sum(v.shape))
        assert np.abs(v.data).max() <= bound
        standardized.append(v.data.reshape(-1) / bound)
    pooled = np.concatenate(standardized)
    assert pooled.size >= 10_000
    sigma_mean = math.sqrt(1.0 / (3.0 * pooled.size))
    assert abs(pooled.mean()) <= 3.0 * sigma_mean


# ---------------------------------------------------------------------------
# attention head


def test_attention_head_uniform_when_scores_zero():
    n, d_head = 5, 3
    rng = np.random.default_rng(0)
    z = Value(rng.normal(size=(n, n)))
    wq = Value(np.zeros((n, d_head)))
    wk = Value(np.zeros((n, d_head)))
    wv = Value(rng.normal(size=(n, d_head)))
    out, scores = attention_head(z, wq, wk, wv)
    assert np.abs(scores.data - 1.0 / n).max() < 1e-15
    col_mean = (z.data @ wv.data).mean(axis=0)
    assert np.abs(out.data - col_mean).max() < 1e-12


def test_attention_head_uniform_permutation_invariant():
    n = 5
    rng = np.random.default_rng(1)
    z = rng.normal(size=(n, n))
    perm = rng.permutation(n)
    wq = Value(np.zeros((n, n)))
    wk = Value(np.zeros((n, n)))
    wv = Value(np.eye(n))
    out, _ = attention_head(Value(z), wq, wk, wv)
    out_p, _ = attention_head(Value(z[perm]), wq, wk, wv)
    # uniform attention averages rows, so row-permuted input gives the
    # same (row-constant) output, i.e. the permuted original rows
    assert np.abs(out_p.data - out.data[perm]).max() < 1e-12


def test_attention_head_permutation_equivariance():
    n = 6
    rng = np.random.default_rng(2)
    z = rng.normal(size=(n, n))
    perm = rng.permutation(n)
    ws = [Value(rng.normal(size=(n, 3)) * 0.3) for _ in range(3)]
    out, scores = attention_head(Value(z), *ws)
    out_p, scores_p = attention_head(Value(z[perm]), *ws)
    assert np.abs(out_p.data - out.data[perm]).max() < 1e-10
    assert np.abs(scores_p.data - scores.data[perm][:, perm]).max() < 1e-10


def attention_scalar_oracle(z, wq, wk, wv):
    n = len(z)
    d_head = len(wq[0])
    q = [[sum(z[i][l] * wq[l][j] for l in range(len(z[0]))) for j in range(d_head)]
         for i in range(n)]
    k = [[sum(z[i][l] * wk[l][j] for l in range(len(z[0]))) for j in range(d_head)]
         for i in range(n)]
    v = [[sum(z[i][l] * wv[l][j] for l in range(len(z[0]))) for j in range(d_head)]
         for i in range(n)]
    scale = 1.0 / math.sqrt(d_head)
    a = []
    for i in range(n):
        logits = [scale * sum(q[i][d] * k[j][d] for d in range(d_head)) for j in range(n)]
        m = max(logits)
        exps = [math.exp(x - m) for x in logits]
        tot = sum(exps)
        a.append([e / tot for e in exps])
    out = [[sum(a[i][j] * v[j][d] for j in range(n)) for d in range(d_head)]
           for i in range(n)]
    return np.array(out), np.array(a)


def test_attention_head_matches_scalar_oracle():
    n = 5
    rng = np.random.default_rng(3)
    z = rng.normal(size=(n, n))
    wq = rng.normal(size=(n, 2))
    wk = rng.normal(size=(n, 2))
    wv = rng.normal(size=(n, 2))
    out, scores = attention_head(Value(z), Value(wq), Value(wk), Value(wv))
    want_out, want_a = attention_scalar_oracle(z.tolist(), wq.tolist(),
                                               wk.tolist(), wv.tolist())
    assert np.abs(scores.data.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(out.data - want_out).max() < 1e-12
    assert np.abs(scores.data - want_a).max() < 1e-12


# ---------------------------------------------------------------------------
# layers


def test_single_head_layer_reduces_to_layer_norm_of_head():
    cfg = ModelConfig(n_layers=1, n_heads=1, d_model=4, d_head=4, ffn_hidden=8)
    model = encoder_model(cfg, seed=9)
    model.params["layer0.W"] = Value(np.eye(4))
    z = Value(np.random.default_rng(4).normal(size=(4, 4)))
    head_out, _ = attention_head(z, model["layer0.head0.WQ"],
                                 model["layer0.head0.WK"], model["layer0.head0.WV"])
    direct = dk.row_layer_norm(dk.matmul(head_out, Value(np.eye(4))),
                               model["layer0.ln1.g"], model["layer0.ln1.b"],
                               cfg.ln_eps)
    via_layer = multi_head_layer(z, model, 0)
    assert np.abs(via_layer.data - direct.data).max() < 1e-14


def test_layer_output_standardized_before_gain():
    cfg = toy_config(n=8, layers=1, heads=2)
    model = encoder_model(cfg, seed=11)
    z = Value(np.random.default_rng(5).normal(size=(8, 8)))
    out = multi_head_layer(z, model, 0)
    assert np.abs(out.data.mean(axis=1)).max() <= 1e-9
    assert np.abs(out.data.var(axis=1) - 1.0).max() <= 1e-4  # eps-deflated variance


def test_feed_forward_zero_weights():
    cfg = toy_config(n=4, layers=1, heads=1, ffn=6)
    model = encoder_model(cfg, seed=12)
    for name in ("W1", "W2"):
        model.params[f"layer0.{name}"] = Value(np.zeros(model[f"layer0.{name}"].shape))
    z = Value(np.random.default_rng(6).normal(size=(4, 4)))
    out = feed_forward(z, model, 0)
    assert np.array_equal(out.data, np.zeros((4, 4)))


def test_feed_forward_shape_contract():
    cfg = toy_config(n=7, layers=1, heads=2, ffn=13)
    model = encoder_model(cfg, seed=13)
    z = Value(np.random.default_rng(7).normal(size=(7, 7)))
    assert feed_forward(z, model, 0).shape == (7, 7)


def test_multi_head_layer_gradient():
    cfg = ModelConfig(n_layers=1, n_heads=2, d_model=5, ffn_hidden=6)
    model = encoder_model(cfg, seed=14)
    x = toy_fcn(0, n=5)
    plist = list(model.params.values())

    def randomize(rng):
        for name, p in model.params.items():
            if name.endswith(".g"):
                p.data[...] = rng.uniform(0.9, 1.1, p.shape)
            elif name.endswith((".b", ".b1", ".b2")):
                p.data[...] = rng.uniform(-0.1, 0.1, p.shape)
            else:
                a = math.sqrt(6.0 / sum(p.shape))
                p.data[...] = rng.uniform(-a, a, p.shape)

    err = finite_diff_check(
        lambda: dk.sum_squares(feed_forward(multi_head_layer(Value(x.values), model, 0), model, 0)),
        plist, seeds=2, randomize=randomize)
    assert err <= 1e-4


# ---------------------------------------------------------------------------
# full encode


def test_encode_deterministic():
    model = encoder_model(toy_config(), seed=15)
    x = toy_fcn(1)
    assert np.array_equal(encode([x], model).data, encode([x], model).data)
    assert np.array_equal(attention([x], model), attention([x], model))


def test_encode_shape_and_maps():
    cfg = toy_config(n=6, layers=2, heads=2)
    model = encoder_model(cfg, seed=16)
    xs = [toy_fcn(2), toy_fcn(3), toy_fcn(4)]
    assert encode(xs, model).shape == (3, 36)
    assert attention(xs, model).shape == (3, 4, 6, 6)


def test_encode_rejects_wrong_size():
    model = encoder_model(toy_config(n=6), seed=17)
    with pytest.raises(ValueError, match="6x6"):
        encode([np.eye(5)], model)


def test_encode_rejects_bad_injection_layer():
    model = encoder_model(toy_config(), seed=18)
    x = toy_fcn(3)
    inj = AugmentInjection(layer_index=2, partner_features=Value(x.values[None]), gamma=0.5)
    with pytest.raises(ValueError, match="out of range"):
        encode([x], model, injection=inj)


def test_injection_gamma_validated():
    with pytest.raises(ValueError, match="gamma"):
        AugmentInjection(layer_index=0, partner_features=Value(np.zeros((2, 2))),
                         gamma=1.5)


def test_encode_gamma_zero_bitwise_identical():
    model = encoder_model(toy_config(), seed=19)
    x, partner = toy_fcn(4), toy_fcn(5)
    clean = encode([x], model)
    for layer in (0, 1):
        inj = AugmentInjection(layer, Value(partner.values[None]), gamma=0.0)
        blended = encode([x], model, injection=inj)
        assert np.array_equal(clean.data, blended.data)


def test_encode_gamma_one_at_layer_zero_becomes_partner():
    model = encoder_model(toy_config(), seed=20)
    x, partner = toy_fcn(6), toy_fcn(7)
    partner_f = encode([partner], model)
    inj = AugmentInjection(0, Value(partner.values[None]), gamma=1.0)
    blended = encode([x], model, injection=inj)
    assert np.array_equal(partner_f.data, blended.data)


def test_encode_capture_matches_partner_path():
    # captured features at layer l are exactly what a gamma=1 injection
    # at layer l reproduces from there on
    model = encoder_model(toy_config(), seed=21)
    x, partner = toy_fcn(8), toy_fcn(9)
    cap: list[Value] = []
    partner_f = encode([partner], model, capture=cap)
    assert len(cap) == 2
    inj = AugmentInjection(1, cap[1], gamma=1.0)
    blended = encode([x], model, injection=inj)
    assert np.array_equal(partner_f.data, blended.data)


def test_encode_stack_matches_stacks_of_one_bitwise():
    model = encoder_model(toy_config(), seed=23)
    xs = [toy_fcn(s) for s in range(30, 34)]
    capture: list[Value] = []
    feats = encode(xs, model, capture=capture)
    maps = attention(xs, model)
    assert feats.shape == (4, 36)
    assert len(capture) == 2 and maps.shape == (4, 4, 6, 6)
    for pos, x in enumerate(xs):
        cap: list[Value] = []
        f = encode([x], model, capture=cap)
        assert np.array_equal(feats.data[pos], f.data[0])
        for got, want in zip(capture, cap, strict=True):
            assert np.array_equal(got.data[pos], want.data[0])
        assert np.array_equal(maps[pos], attention([x], model)[0])

    # the whole stack blended toward a permutation of its own captures
    order = [1, 2, 3, 0]
    partner = dk.permute(capture[1], order)
    blended = encode(xs, model, injection=AugmentInjection(1, partner, 0.3))
    for pos, x in enumerate(xs):
        inj = AugmentInjection(1, Value(capture[1].data[order[pos]][None]), 0.3)
        assert np.array_equal(blended.data[pos], encode([x], model, injection=inj).data[0])


def test_encode_takes_exactly_the_parameters_the_tracer_binds():
    # perfbench's tracer wraps `encode` and calls its count hook with the
    # call's own arguments, keyword names included, so these names are fixed
    import inspect

    assert list(inspect.signature(encode).parameters) == ["xs", "model", "injection",
                                                           "capture"]


def test_encode_rejects_mismatched_partner_stack():
    model = encoder_model(toy_config(), seed=25)
    xs = [toy_fcn(s) for s in range(3)]
    inj = AugmentInjection(0, Value(np.zeros((2, 6, 6))), 0.5)
    with pytest.raises(ValueError, match="partner features"):
        encode(xs, model, injection=inj)
    with pytest.raises(ValueError, match="at least one subject"):
        encode([], model)


def _classifier_gradients(model, loss_of):
    with dk.ComputationRecord() as rec:
        loss = loss_of()
    return dict(zip(model.params, dk.backward(loss, rec, model.params.values())))


@pytest.mark.parametrize("batch", [1, 4, 32])
def test_batched_encoder_gradients_bitwise_equal_per_subject(batch):
    from aufa.adaptation import classify
    from aufa.model import build_model

    model = build_model(n_rois=6, n_layers=2, n_heads=2, ffn_hidden=8,
                        clf_hidden=16, ln_eps=1e-5, seed=26)
    xs = [toy_fcn(100 + s) for s in range(batch)]
    labels = [s % 2 for s in range(batch)]

    def batched():
        pred = classify(encode(xs, model), model)
        return dk.cross_entropy(pred.logits, labels)

    def per_subject():
        rows = dk.concat_rows([encode([x], model) for x in xs])
        return dk.cross_entropy(classify(rows, model).logits, labels)

    got = _classifier_gradients(model, batched)
    want = _classifier_gradients(model, per_subject)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def test_training_builds_no_attention_maps(monkeypatch):
    import sys

    import aufa.encoder
    from aufa.connectome import SiteSpec, synth_multisite
    from aufa.trainer import TrainConfig, adapt, pretrain

    calls = []
    attention_fn, layer_fn = aufa.encoder.attention, aufa.encoder.multi_head_layer

    def attention_spy(xs, model):
        calls.append("attention")
        return attention_fn(xs, model)

    def layer_spy(z, model, layer, scores=None):
        if scores is not None:
            calls.append("scores")
        return layer_fn(z, model, layer, scores)

    # every aufa module that binds the name, as a caller looks it up there
    for name, module in list(sys.modules.items()):
        if name.startswith("aufa."):
            for attr, original, spy in (("attention", attention_fn, attention_spy),
                                        ("multi_head_layer", layer_fn, layer_spy)):
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, spy)
    spec = dict(n_subjects_per_class=4, n_rois=6, series_length=40)
    source, target = synth_multisite(SiteSpec(seed=3, **spec), SiteSpec(seed=4, **spec))
    cfg = TrainConfig(epochs_pretrain=1, epochs_adapt=1, batch_size=4, n_heads=2,
                      ffn_hidden=8, clf_hidden=8, epsilon=0.55)
    model, _ = pretrain(source, cfg)
    adapt(model, source, target, cfg)
    assert calls == []
    aufa.encoder.attention([toy_fcn(0)], model)
    assert calls == ["attention"] + ["scores"] * cfg.n_layers


_PERMUTATION_MODEL = encoder_model(toy_config(), seed=27)
_PERMUTATION_XS = [toy_fcn(200 + s) for s in range(6)]


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(6)))
def test_permuting_subjects_permutes_feature_rows_bitwise(order):
    feats = encode(_PERMUTATION_XS, _PERMUTATION_MODEL).data
    permuted = encode([_PERMUTATION_XS[k] for k in order], _PERMUTATION_MODEL).data
    assert np.array_equal(permuted, feats[list(order)])


def test_attention_rows_stochastic_across_random_calls():
    rng = np.random.default_rng(22)
    for trial in range(100):
        cfg = toy_config(n=int(rng.integers(4, 9)), layers=2, heads=2)
        model = encoder_model(cfg, seed=int(rng.integers(1_000_000)))
        x = pearson_fcn(TimeSeries("s", rng.standard_normal((25, cfg.d_model))))
        maps = attention([x], model)
        assert np.abs(maps.sum(axis=-1) - 1.0).max() <= 1e-9
        assert (maps >= 0).all()


def test_full_encode_gradient():
    cfg = toy_config(n=6, layers=2, heads=2)
    model = encoder_model(cfg, seed=23)
    x = toy_fcn(10)

    def randomize(rng):
        for name, p in model.params.items():
            if name.endswith(".g"):
                p.data[...] = rng.uniform(0.9, 1.1, p.shape)
            elif name.endswith((".b", ".b1", ".b2")):
                p.data[...] = rng.uniform(-0.1, 0.1, p.shape)
            else:
                a = math.sqrt(6.0 / sum(p.shape))
                p.data[...] = rng.uniform(-a, a, p.shape)

    err = finite_diff_check(lambda: dk.sum_squares(encode([x], model)),
                            list(model.params.values()), seeds=2, randomize=randomize)
    assert err <= 1e-4
