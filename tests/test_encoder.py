import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aufa import diffkernel as dk
from aufa.connectome import TimeSeries, pearson_fcn
from aufa.diffkernel import Value, finite_diff_check
from aufa.encoder import (AugmentInjection, EncoderConfig,
                          attention_head, encode, encode_batch, feed_forward,
                          init_encoder, multi_head_layer)


def toy_config(n=6, layers=2, heads=2, ffn=8):
    return EncoderConfig(n_layers=layers, n_heads=heads, d_model=n, ffn_hidden=ffn)


def toy_fcn(seed, n=6):
    rng = np.random.default_rng(seed)
    return pearson_fcn(TimeSeries(f"t{seed}", rng.standard_normal((30, n))))


# ---------------------------------------------------------------------------
# initialization


def test_init_deterministic():
    cfg = toy_config()
    p1 = init_encoder(cfg, seed=5)
    p2 = init_encoder(cfg, seed=5)
    assert p1.values.keys() == p2.values.keys()
    for k in p1.values:
        assert np.array_equal(p1[k].data, p2[k].data)
    p3 = init_encoder(cfg, seed=6)
    assert not np.array_equal(p1["layer0.head0.WQ"].data, p3["layer0.head0.WQ"].data)


def test_init_layer_norm_gains_and_biases():
    params = init_encoder(toy_config(), seed=0)
    for layer in range(2):
        for ln in ("ln1", "ln2"):
            assert np.array_equal(params[f"layer{layer}.{ln}.g"].data, np.ones((1, 6)))
            assert np.array_equal(params[f"layer{layer}.{ln}.b"].data, np.zeros((1, 6)))
        assert np.array_equal(params[f"layer{layer}.b1"].data, np.zeros((1, 8)))
        assert np.array_equal(params[f"layer{layer}.b2"].data, np.zeros((1, 6)))


def test_init_weight_mean_within_three_sigma():
    cfg = EncoderConfig(n_layers=2, n_heads=4, d_model=32, d_head=8, ffn_hidden=128)
    params = init_encoder(cfg, seed=123)
    standardized = []
    for name, v in params.values.items():
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
    cfg = EncoderConfig(n_layers=1, n_heads=1, d_model=4, d_head=4, ffn_hidden=8)
    params = init_encoder(cfg, seed=9)
    params.values["layer0.W"] = Value(np.eye(4))
    z = Value(np.random.default_rng(4).normal(size=(4, 4)))
    head_out, _ = attention_head(z, params["layer0.head0.WQ"],
                                 params["layer0.head0.WK"], params["layer0.head0.WV"])
    direct = dk.row_layer_norm(dk.matmul(head_out, Value(np.eye(4))),
                               params["layer0.ln1.g"], params["layer0.ln1.b"],
                               cfg.ln_eps)
    via_layer = multi_head_layer(z, params, 0)
    assert np.abs(via_layer.data - direct.data).max() < 1e-14


def test_layer_output_standardized_before_gain():
    cfg = toy_config(n=8, layers=1, heads=2)
    params = init_encoder(cfg, seed=11)
    z = Value(np.random.default_rng(5).normal(size=(8, 8)))
    out = multi_head_layer(z, params, 0)
    assert np.abs(out.data.mean(axis=1)).max() <= 1e-9
    assert np.abs(out.data.var(axis=1) - 1.0).max() <= 1e-4  # eps-deflated variance


def test_feed_forward_zero_weights():
    cfg = toy_config(n=4, layers=1, heads=1, ffn=6)
    params = init_encoder(cfg, seed=12)
    for name in ("W1", "W2"):
        params.values[f"layer0.{name}"] = Value(np.zeros(params[f"layer0.{name}"].shape))
    z = Value(np.random.default_rng(6).normal(size=(4, 4)))
    out = feed_forward(z, params, 0)
    assert np.array_equal(out.data, np.zeros((4, 4)))


def test_feed_forward_shape_contract():
    cfg = toy_config(n=7, layers=1, heads=2, ffn=13)
    params = init_encoder(cfg, seed=13)
    z = Value(np.random.default_rng(7).normal(size=(7, 7)))
    assert feed_forward(z, params, 0).shape == (7, 7)


def test_multi_head_layer_gradient():
    cfg = EncoderConfig(n_layers=1, n_heads=2, d_model=5, ffn_hidden=6)
    params = init_encoder(cfg, seed=14)
    x = toy_fcn(0, n=5)
    plist = params.all_values()

    def randomize(rng):
        for name, p in params.values.items():
            if name.endswith(".g"):
                p.data[...] = rng.uniform(0.9, 1.1, p.shape)
            elif name.endswith((".b", ".b1", ".b2")):
                p.data[...] = rng.uniform(-0.1, 0.1, p.shape)
            else:
                a = math.sqrt(6.0 / sum(p.shape))
                p.data[...] = rng.uniform(-a, a, p.shape)

    err = finite_diff_check(
        lambda: dk.sum_squares(feed_forward(multi_head_layer(Value(x.values), params, 0), params, 0)),
        plist, seeds=2, randomize=randomize)
    assert err <= 1e-4


# ---------------------------------------------------------------------------
# full encode


def test_encode_deterministic():
    params = init_encoder(toy_config(), seed=15)
    x = toy_fcn(1)
    f1, m1 = encode(x, params)
    f2, m2 = encode(x, params)
    assert np.array_equal(f1.data, f2.data)
    for key in m1.keys():
        assert np.array_equal(m1.get(*key), m2.get(*key))


def test_encode_shape_and_maps():
    cfg = toy_config(n=6, layers=2, heads=2)
    params = init_encoder(cfg, seed=16)
    f, maps = encode(toy_fcn(2), params)
    assert f.shape == (1, 36)
    assert len(maps) == 4
    assert maps.stack().shape == (4, 6, 6)


def test_encode_rejects_wrong_size():
    params = init_encoder(toy_config(n=6), seed=17)
    with pytest.raises(ValueError, match="6x6"):
        encode(np.eye(5), params)


def test_encode_rejects_bad_injection_layer():
    params = init_encoder(toy_config(), seed=18)
    x = toy_fcn(3)
    inj = AugmentInjection(layer_index=2, partner_features=Value(x.values), gamma=0.5)
    with pytest.raises(ValueError, match="out of range"):
        encode(x, params, injection=inj)


def test_injection_gamma_validated():
    with pytest.raises(ValueError, match="gamma"):
        AugmentInjection(layer_index=0, partner_features=Value(np.zeros((2, 2))),
                         gamma=1.5)


def test_encode_gamma_zero_bitwise_identical():
    params = init_encoder(toy_config(), seed=19)
    x, partner = toy_fcn(4), toy_fcn(5)
    clean, _ = encode(x, params)
    for layer in (0, 1):
        inj = AugmentInjection(layer, Value(partner.values), gamma=0.0)
        blended, _ = encode(x, params, injection=inj)
        assert np.array_equal(clean.data, blended.data)


def test_encode_gamma_one_at_layer_zero_becomes_partner():
    params = init_encoder(toy_config(), seed=20)
    x, partner = toy_fcn(6), toy_fcn(7)
    partner_f, _ = encode(partner, params)
    inj = AugmentInjection(0, Value(partner.values), gamma=1.0)
    blended, _ = encode(x, params, injection=inj)
    assert np.array_equal(partner_f.data, blended.data)


def test_encode_capture_matches_partner_path():
    # captured features at layer l are exactly what a gamma=1 injection
    # at layer l reproduces from there on
    params = init_encoder(toy_config(), seed=21)
    x, partner = toy_fcn(8), toy_fcn(9)
    cap: list[Value] = []
    partner_f, _ = encode(partner, params, capture=cap)
    assert len(cap) == 2
    inj = AugmentInjection(1, cap[1], gamma=1.0)
    blended, _ = encode(x, params, injection=inj)
    assert np.array_equal(partner_f.data, blended.data)


def test_encode_batch_matches_per_subject_encode_bitwise():
    params = init_encoder(toy_config(), seed=23)
    xs = [toy_fcn(s) for s in range(30, 34)]
    captures: list[Value] = []
    maps = []
    feats = encode_batch(xs, params, captures=captures, maps=maps)
    assert feats.shape == (4, 36)
    assert len(captures) == 2 and len(maps) == 4
    for pos, x in enumerate(xs):
        cap: list[Value] = []
        f, m = encode(x, params, capture=cap)
        assert np.array_equal(feats.data[pos], f.data[0])
        for got, want in zip(captures, cap, strict=True):
            assert np.array_equal(got.data[pos], want.data)
        assert maps[pos].keys() == m.keys()
        assert np.array_equal(maps[pos].stack(), m.stack())

    # the whole stack blended toward a permutation of its own captures
    order = [1, 2, 3, 0]
    partner = dk.permute(captures[1], order)
    blended = encode_batch(xs, params, injection=AugmentInjection(1, partner, 0.3))
    for pos, x in enumerate(xs):
        inj = AugmentInjection(1, Value(captures[1].data[order[pos]]), 0.3)
        assert np.array_equal(blended.data[pos], encode(x, params, injection=inj)[0].data[0])


def test_encode_batch_rejects_mismatched_partner_stack():
    params = init_encoder(toy_config(), seed=25)
    xs = [toy_fcn(s) for s in range(3)]
    inj = AugmentInjection(0, Value(np.zeros((2, 6, 6))), 0.5)
    with pytest.raises(ValueError, match="partner features"):
        encode_batch(xs, params, injection=inj)
    with pytest.raises(ValueError, match="at least one subject"):
        encode_batch([], params)


def _classifier_gradients(model, loss_of):
    params = model.param_dict()
    dk.zero_grads(params.values())
    with dk.ComputationRecord() as rec:
        loss = loss_of()
    dk.backward(loss, rec)
    return {name: p.grad.copy() for name, p in params.items()}


@pytest.mark.parametrize("batch", [1, 4, 32])
def test_batched_encoder_gradients_bitwise_equal_per_subject(batch):
    from aufa.adaptation import classify
    from aufa.model import build_model

    model = build_model(n_rois=6, n_layers=2, n_heads=2, ffn_hidden=8,
                        clf_hidden=16, ln_eps=1e-5, seed=26)
    xs = [toy_fcn(100 + s) for s in range(batch)]
    labels = [s % 2 for s in range(batch)]

    def batched():
        pred = classify(encode_batch(xs, model.encoder), model.classifier)
        return dk.cross_entropy(pred.logits, labels)

    def per_subject():
        rows = dk.concat_rows([encode(x, model.encoder)[0] for x in xs])
        return dk.cross_entropy(classify(rows, model.classifier).logits, labels)

    got = _classifier_gradients(model, batched)
    want = _classifier_gradients(model, per_subject)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def test_training_builds_no_attention_maps(monkeypatch):
    import aufa.encoder
    from aufa.connectome import SiteSpec, synth_multisite
    from aufa.trainer import TrainConfig, adapt, pretrain

    built = []
    original = aufa.encoder.AttentionMaps.__init__

    def spy(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(aufa.encoder.AttentionMaps, "__init__", spy)
    spec = dict(n_subjects_per_class=4, n_rois=6, series_length=40)
    source, target = synth_multisite(SiteSpec(seed=3, **spec), SiteSpec(seed=4, **spec))
    cfg = TrainConfig(epochs_pretrain=1, epochs_adapt=1, batch_size=4, n_heads=2,
                      ffn_hidden=8, clf_hidden=8, epsilon=0.55)
    model, _, _ = pretrain(source, cfg)
    adapt(model, source, target, cfg)
    assert built == []
    encode(toy_fcn(0), model.encoder)
    assert built == [1]


_PERMUTATION_PARAMS = init_encoder(toy_config(), seed=27)
_PERMUTATION_XS = [toy_fcn(200 + s) for s in range(6)]


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(6)))
def test_permuting_subjects_permutes_feature_rows_bitwise(order):
    feats = encode_batch(_PERMUTATION_XS, _PERMUTATION_PARAMS).data
    permuted = encode_batch([_PERMUTATION_XS[k] for k in order], _PERMUTATION_PARAMS).data
    assert np.array_equal(permuted, feats[list(order)])


def test_attention_rows_stochastic_across_random_calls():
    rng = np.random.default_rng(22)
    for trial in range(100):
        cfg = toy_config(n=int(rng.integers(4, 9)), layers=2, heads=2)
        params = init_encoder(cfg, seed=int(rng.integers(1_000_000)))
        x = pearson_fcn(TimeSeries("s", rng.standard_normal((25, cfg.d_model))))
        _, maps = encode(x, params)
        for key in maps.keys():
            a = maps.get(*key)
            assert np.abs(a.sum(axis=1) - 1.0).max() <= 1e-9
            assert (a >= 0).all()


def test_full_encode_gradient():
    cfg = toy_config(n=6, layers=2, heads=2)
    params = init_encoder(cfg, seed=23)
    x = toy_fcn(10)

    def randomize(rng):
        for name, p in params.values.items():
            if name.endswith(".g"):
                p.data[...] = rng.uniform(0.9, 1.1, p.shape)
            elif name.endswith((".b", ".b1", ".b2")):
                p.data[...] = rng.uniform(-0.1, 0.1, p.shape)
            else:
                a = math.sqrt(6.0 / sum(p.shape))
                p.data[...] = rng.uniform(-a, a, p.shape)

    err = finite_diff_check(lambda: dk.sum_squares(encode(x, params)[0]),
                            params.all_values(), seeds=2, randomize=randomize)
    assert err <= 1e-4
