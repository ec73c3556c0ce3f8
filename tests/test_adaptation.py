import math

import numpy as np
import pytest

from aufa import diffkernel as dk
from aufa.adaptation import (FilterMask, LossWeights, classify,
                             confidence_filter, joint_loss, mmd_loss, self_opt_loss)
from aufa.diffkernel import ComputationRecord, Value, backward
from aufa.model import Model, ModelConfig, init_values


def classifier_model(n_inputs, seed, hidden):
    """A model holding only the four clf.* weights, drawn from `seed`."""
    shapes = {"clf.W1": (n_inputs, hidden), "clf.b1": (1, hidden),
              "clf.W2": (hidden, 2), "clf.b2": (1, 2)}
    return Model(ModelConfig(clf_hidden=hidden), init_values(shapes, seed))


def make_prediction(prob_rows):
    """Prediction-like object built from explicit probability rows."""
    probs = np.asarray(prob_rows, dtype=float)
    logits = np.log(np.maximum(probs, 1e-12))

    class P:
        pass

    p = P()
    p.logits = Value(logits)
    p.probs = Value(probs)
    p.batch_size = probs.shape[0]
    return p


# ---------------------------------------------------------------------------
# classifier


def test_classify_zero_weights_uniform():
    model = classifier_model(n_inputs=10, seed=0, hidden=6)
    for name in model.params:
        model.params[name] = Value(np.zeros(model[name].shape))
    pred = classify(Value(np.random.default_rng(0).normal(size=(4, 10))), model)
    assert np.array_equal(pred.probs.data, np.full((4, 2), 0.5))


def test_classifier_widths_come_from_w1():
    model = classifier_model(n_inputs=10, seed=0, hidden=6)
    assert classify(Value(np.zeros((2, 10))), model).fc_features[0].shape == (2, 6)
    model.params["clf.W1"] = Value(np.zeros((12, 3)))
    model.params["clf.b1"] = Value(np.zeros((1, 3)))
    model.params["clf.W2"] = Value(np.zeros((3, 2)))
    assert classify(Value(np.zeros((2, 12))), model).fc_features[0].shape == (2, 3)
    with pytest.raises(ValueError, match="expects 12 inputs"):
        classify(Value(np.zeros((2, 10))), model)


def test_classify_probs_are_distributions():
    model = classifier_model(n_inputs=12, seed=1, hidden=8)
    pred = classify(Value(np.random.default_rng(1).normal(size=(5, 12))), model)
    assert np.abs(pred.probs.data.sum(axis=1) - 1.0).max() <= 1e-12
    assert (pred.probs.data >= 0).all()


def classify_scalar_oracle(f, w1, b1, w2, b2):
    hidden = [[max(0.0, sum(f[i][k] * w1[k][j] for k in range(len(f[0]))) + b1[j])
               for j in range(len(b1))] for i in range(len(f))]
    logits = [[sum(hidden[i][k] * w2[k][j] for k in range(len(hidden[i]))) + b2[j]
               for j in range(2)] for i in range(len(f))]
    probs = []
    for row in logits:
        m = max(row)
        exps = [math.exp(v - m) for v in row]
        tot = sum(exps)
        probs.append([e / tot for e in exps])
    return np.array(hidden), np.array(logits), np.array(probs)


def test_classify_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    model = classifier_model(n_inputs=6, seed=3, hidden=4)
    f = rng.normal(size=(3, 6))
    pred = classify(Value(f), model)
    hidden, logits, probs = classify_scalar_oracle(
        f.tolist(),
        model["clf.W1"].data.tolist(), model["clf.b1"].data[0].tolist(),
        model["clf.W2"].data.tolist(), model["clf.b2"].data[0].tolist())
    assert np.abs(pred.fc_features[0].data - hidden).max() < 1e-10
    assert np.abs(pred.logits.data - logits).max() < 1e-10
    assert np.abs(pred.probs.data - probs).max() < 1e-10


def test_classify_dimension_mismatch():
    model = classifier_model(n_inputs=6, seed=4, hidden=4)
    with pytest.raises(ValueError, match="expects 6 inputs"):
        classify(Value(np.zeros((2, 5))), model)


# ---------------------------------------------------------------------------
# mmd


def test_mmd_identical_batches_zero():
    rng = np.random.default_rng(5)
    feats = [Value(rng.normal(size=(4, 7))), Value(rng.normal(size=(4, 2)))]
    same = [Value(f.data.copy()) for f in feats]
    assert mmd_loss(feats, same).item() == 0.0


def test_mmd_unit_vector_case():
    s = [Value(np.array([[1.0, 0.0]]))]
    t = [Value(np.array([[0.0, 1.0]]))]
    assert mmd_loss(s, t).item() == 2.0


def test_mmd_symmetric_under_swap():
    rng = np.random.default_rng(6)
    a = [Value(rng.normal(size=(3, 5))), Value(rng.normal(size=(3, 2)))]
    b = [Value(rng.normal(size=(3, 5))), Value(rng.normal(size=(3, 2)))]
    assert mmd_loss(a, b).item() == mmd_loss(b, a).item()


def test_mmd_equals_squared_mean_distance():
    rng = np.random.default_rng(7)
    a = [Value(rng.normal(size=(6, 4)))]
    b = [Value(rng.normal(size=(6, 4)))]
    want = ((a[0].data.mean(axis=0) - b[0].data.mean(axis=0)) ** 2).sum()
    assert abs(mmd_loss(a, b).item() - want) < 1e-12


def test_mmd_nonnegative():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = [Value(rng.normal(size=(3, 4)))]
        b = [Value(rng.normal(size=(3, 4)))]
        assert mmd_loss(a, b).item() >= 0.0


def test_mmd_batch_mismatch():
    with pytest.raises(ValueError, match="batch"):
        mmd_loss([Value(np.zeros((3, 2)))], [Value(np.zeros((4, 2)))])
    with pytest.raises(ValueError, match="layer count"):
        mmd_loss([Value(np.zeros((3, 2)))], [])


# ---------------------------------------------------------------------------
# confidence filter


def test_filter_keeps_when_both_confident():
    p = make_prediction([[0.9, 0.1]])
    pa = make_prediction([[0.85, 0.15]])
    mask = confidence_filter(p, pa, 0.8)
    assert mask.keep.tolist() == [True]


def test_filter_drops_when_either_unconfident():
    p = make_prediction([[0.9, 0.1]])
    pa = make_prediction([[0.6, 0.4]])
    assert confidence_filter(p, pa, 0.8).keep.tolist() == [False]
    assert confidence_filter(pa, p, 0.8).keep.tolist() == [False]


def test_filter_strict_inequality():
    p = make_prediction([[0.5, 0.5]])
    for eps in (0.50001, 0.7, 0.99):
        assert confidence_filter(p, p, eps).keep.tolist() == [False]
    exact = make_prediction([[0.8, 0.2]])
    assert confidence_filter(exact, exact, 0.8).keep.tolist() == [False]


def test_filter_epsilon_validated():
    p = make_prediction([[0.9, 0.1]])
    for eps in (0.5, 1.0, 0.2, 1.3):
        with pytest.raises(ValueError, match="epsilon"):
            confidence_filter(p, p, eps)


def test_filter_kept_fraction():
    p = make_prediction([[0.9, 0.1], [0.55, 0.45], [0.95, 0.05], [0.99, 0.01]])
    mask = confidence_filter(p, p, 0.8)
    assert mask.keep.tolist() == [True, False, True, True]
    assert mask.kept_fraction == 0.75


# ---------------------------------------------------------------------------
# self-optimization loss


def test_self_opt_identical_rows_zero():
    p = make_prediction([[0.9, 0.1], [0.3, 0.7]])
    q = make_prediction([[0.9, 0.1], [0.3, 0.7]])
    mask = FilterMask(keep=np.array([True, True]), threshold=0.8)
    assert abs(self_opt_loss(p, q, mask).item()) <= 1e-12


def test_self_opt_empty_mask_is_constant_zero():
    p = make_prediction([[0.9, 0.1]])
    q = make_prediction([[0.7, 0.3]])
    mask = FilterMask(keep=np.array([False]), threshold=0.8)
    with ComputationRecord() as rec:
        loss = self_opt_loss(p, q, mask)
    assert loss.item() == 0.0
    for g in backward(loss, rec, [p.probs, q.probs]):
        assert np.array_equal(g, np.zeros((1, 2)))


def symmetric_kl_oracle(p, q):
    def kl(a, b):
        return sum(ai * math.log(max(ai, 1e-12) / max(bi, 1e-12))
                   for ai, bi in zip(a, b))

    return 0.5 * (kl(p, q) + kl(q, p))


def test_self_opt_derived_value():
    # frozen from the scalar oracle: 0.5*(KL(pt||pa) + KL(pa||pt))
    # = 0.5*(0.116322 + 0.153664) for [0.9,0.1] vs [0.7,0.3]
    want = symmetric_kl_oracle([0.9, 0.1], [0.7, 0.3])
    assert abs(want - 0.13499267169490156) < 1e-15
    p = make_prediction([[0.9, 0.1]])
    q = make_prediction([[0.7, 0.3]])
    mask = FilterMask(keep=np.array([True]), threshold=0.8)
    assert abs(self_opt_loss(p, q, mask).item() - want) < 1e-12


def test_self_opt_gradients_reach_both_sides():
    zp = Value(np.array([[0.4, -0.2]]))
    zq = Value(np.array([[-0.3, 0.5]]))
    mask = FilterMask(keep=np.array([True]), threshold=0.8)
    with ComputationRecord() as rec:
        p = make_prediction([[0.5, 0.5]])
        p.probs = dk.row_softmax(zp, 1.0)
        q = make_prediction([[0.5, 0.5]])
        q.probs = dk.row_softmax(zq, 1.0)
        loss = self_opt_loss(p, q, mask)
    for g in backward(loss, rec, [zp, zq]):
        assert np.abs(g).max() > 0


def test_self_opt_only_kept_rows_counted():
    p = make_prediction([[0.9, 0.1], [0.6, 0.4]])
    q = make_prediction([[0.7, 0.3], [0.5, 0.5]])
    mask = FilterMask(keep=np.array([True, False]), threshold=0.8)
    want = symmetric_kl_oracle([0.9, 0.1], [0.7, 0.3])
    assert abs(self_opt_loss(p, q, mask).item() - want) < 1e-12


# ---------------------------------------------------------------------------
# joint loss


def test_joint_loss_degenerate_weights():
    l_c = dk.scalar(0.831)
    l_m = dk.scalar(5.0)
    l_a = dk.scalar(7.0)
    out = joint_loss(l_c, l_m, l_a, LossWeights(0.0, 0.0))
    assert out.item() == 0.831


def test_joint_loss_plain_sum():
    out = joint_loss(dk.scalar(1.0), dk.scalar(2.0), dk.scalar(3.0),
                     LossWeights(1.0, 1.0))
    assert out.item() == 6.0


def test_joint_loss_weighted():
    out = joint_loss(dk.scalar(1.0), dk.scalar(2.0), dk.scalar(3.0),
                     LossWeights(0.5, 2.0))
    assert out.item() == 8.0


def test_joint_loss_rejects_non_scalar():
    with pytest.raises(ValueError, match="scalar"):
        joint_loss(Value(np.zeros((2, 2))), dk.scalar(0.0), dk.scalar(0.0),
                   LossWeights())


def test_loss_weights_validated():
    with pytest.raises(ValueError):
        LossWeights(lambda1=-0.1)


def test_zero_weights_gradient_equals_cross_entropy_gradient():
    # with both weights zero, the joint gradient is the source
    # cross-entropy gradient alone
    rng = np.random.default_rng(9)
    model = classifier_model(n_inputs=5, seed=10, hidden=4)
    feats_s = Value(rng.normal(size=(3, 5)))
    feats_t = Value(rng.normal(size=(3, 5)))
    labels = [0, 1, 1]
    mask = FilterMask(keep=np.array([True, True, True]), threshold=0.8)

    def forward():
        pred_s = classify(feats_s, model)
        pred_t = classify(feats_t, model)
        l_c = dk.cross_entropy(pred_s.logits, labels)
        l_m = mmd_loss(pred_s.fc_features, pred_t.fc_features)
        l_a = self_opt_loss(pred_t, pred_t, mask)
        return l_c, joint_loss(l_c, l_m, l_a, LossWeights(0.0, 0.0))

    plist = list(model.params.values())
    with ComputationRecord() as rec:
        l_c, total = forward()
    joint_grads = backward(total, rec, plist)
    with ComputationRecord() as rec2:
        l_c2, _ = forward()
    for g, jg in zip(backward(l_c2, rec2, plist), joint_grads):
        assert np.abs(g - jg).max() <= 1e-12
