"""An independent plain-numpy oracle of the training objectives.

The oracle encodes one subject at a time with numpy alone: no diffkernel,
no stacks, no records. It computes what the paper's abstract describes:

- per-head scaled dot-product attention, the heads concatenated and
  projected, then a layer norm; then a two-layer ReLU feed-forward block
  and a second layer norm;
- before layer `layer`, each target subject's features blended a fraction
  `gamma` toward its partner's clean features at that depth;
- the final features flattened row-major into a two-layer head;
- source cross-entropy, the linear-kernel MMD (squared distance of batch
  means) summed over the head's two layers, and the symmetric KL between
  clean and blended target predictions over the rows where both are more
  confident than epsilon, with probabilities clamped at 1e-12.

Where the abstract leaves the architecture open (post-norm blocks without
residual connections, the MMD kernel and its two feature layers), the
oracle mirrors the code. The gate is 1e-12 relative: a float-order change
passes it, a change of the mathematics does not.
"""

import math

import numpy as np
import pytest

from aufa.adaptation import FilterMask, LossWeights, confidence_filter
from aufa.connectome import SiteSpec, synth_multisite
from aufa.model import build_model
from aufa.trainer import TrainConfig, joint_objective, pretrain

TOL = 1e-12
CLAMP = 1e-12


def softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm(x, gain, offset, eps):
    dev = x - x.mean(axis=1, keepdims=True)
    return dev / np.sqrt((dev ** 2).mean(axis=1, keepdims=True) + eps) * gain + offset


def encoder_layer(z, p, layer, n_heads, eps):
    w = {name[len(f"layer{layer}."):]: v for name, v in p.items()
         if name.startswith(f"layer{layer}.")}
    heads = []
    for h in range(n_heads):
        q, k, v = (z @ w[f"head{h}.{m}"] for m in ("WQ", "WK", "WV"))
        heads.append(softmax(q @ k.T / math.sqrt(q.shape[1])) @ v)
    z = layer_norm(np.hstack(heads) @ w["W"], w["ln1.g"], w["ln1.b"], eps)
    hidden = np.maximum(z @ w["W1"] + w["b1"], 0.0)
    return layer_norm(hidden @ w["W2"] + w["b2"], w["ln2.g"], w["ln2.b"], eps)


def head(z, p):
    """(hidden features, logits, probabilities) of one subject's features."""
    f1 = np.maximum(z.reshape(1, -1) @ p["clf.W1"] + p["clf.b1"], 0.0)
    logits = f1 @ p["clf.W2"] + p["clf.b2"]
    return f1[0], logits[0], softmax(logits[0])


def depths(x, p, cfg):
    """A subject's input to every layer, then its final features."""
    zs = [x]
    for layer in range(cfg.n_layers):
        zs.append(encoder_layer(zs[-1], p, layer, cfg.n_heads, cfg.ln_eps))
    return zs


def cross_entropy(logits, labels):
    return np.mean([np.log(np.exp(l - l.max()).sum()) + l.max() - l[y]
                    for l, y in zip(logits, labels)])


def kl(p, q):
    p, q = np.maximum(p, CLAMP), np.maximum(q, CLAMP)
    return np.sum(p * np.log(p / q))


def oracle(p, cfg, source_x, labels, target_x, partners, layer, gamma, epsilon,
           keep=None):
    """(loss_c, loss_m, loss_a, kept_fraction); `keep` overrides the
    confidence rule's row mask."""
    src = [head(depths(x, p, cfg)[-1], p) for x in source_x]
    clean_depths = [depths(x, p, cfg) for x in target_x]
    tgt = [head(zs[-1], p) for zs in clean_depths]
    blended = []
    for k, zs in enumerate(clean_depths):
        z = (1.0 - gamma) * zs[layer] + gamma * clean_depths[partners[k]][layer]
        for deeper in range(layer, cfg.n_layers):
            z = encoder_layer(z, p, deeper, cfg.n_heads, cfg.ln_eps)
        blended.append(head(z, p))
    loss_c = cross_entropy([s[1] for s in src], labels)
    loss_m = sum(np.sum((np.mean([s[i] for s in src], axis=0)
                         - np.mean([t[i] for t in tgt], axis=0)) ** 2) for i in (0, 1))
    if keep is None:
        keep = [t[2].max() > epsilon and a[2].max() > epsilon for t, a in zip(tgt, blended)]
    kept = [(t[2], a[2]) for t, a, k in zip(tgt, blended, keep) if k]
    loss_a = (0.5 * np.mean([kl(t, a) + kl(a, t) for t, a in kept])) if kept else 0.0
    return loss_c, loss_m, loss_a, float(np.mean(keep))


def random_point(n_rois, clf_hidden, batch, seed):
    """A model with every weight random, and random inputs, labels and
    pairing. Weights have unit fan-in variance, times 4 in the head's
    output layer, so that most rows pass the confidence filter but few
    probabilities saturate."""
    model = build_model(n_rois, 2, 2, 8, clf_hidden, 1e-5, seed)
    rng = np.random.default_rng(seed)
    for name, v in model.params.items():
        if name.endswith(".g"):
            v.data[...] = rng.uniform(0.5, 1.5, v.shape)
        elif v.shape[0] == 1:
            v.data[...] = rng.uniform(-0.5, 0.5, v.shape)
        else:
            gain = 8.0 if name == "clf.W2" else 1.0
            v.data[...] = rng.uniform(-gain, gain, v.shape) * math.sqrt(3.0 / v.shape[0])
    xs = rng.uniform(-1.0, 1.0, (2 * batch, n_rois, n_rois))
    labels = [int(y) for y in rng.integers(2, size=batch)]
    order = rng.permutation(batch)
    partners = np.empty(batch, dtype=int)
    partners[order] = np.roll(order, -1)  # one cycle through the batch: no fixed point
    return model, list(xs[:batch]), labels, list(xs[batch:]), partners.tolist()


def assert_close(got, want):
    assert abs(got - want) <= TOL * abs(want), (got, want)


SIZES = [(6, 6, 6), (16, 4096, 32)]


@pytest.mark.parametrize("n_rois,clf_hidden,batch", SIZES)
@pytest.mark.parametrize("layer", [0, 1])
@pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)])
def test_joint_objective_matches_oracle(n_rois, clf_hidden, batch, layer, weights):
    model, source_x, labels, target_x, partners = random_point(
        n_rois, clf_hidden, batch, seed=7 + layer)
    gamma, epsilon = 0.3, 0.8
    p = {name: v.data.copy() for name, v in model.params.items()}
    want = oracle(p, model.config, source_x, labels, target_x, partners, layer, gamma, epsilon)
    loss, stats = joint_objective(model, source_x, labels, target_x, partners, layer, gamma,
                                  LossWeights(*weights),
                                  lambda c, a: confidence_filter(c, a, epsilon))
    loss_c, loss_m, loss_a, kept = want
    assert_close(loss.item(), loss_c + weights[0] * loss_m + weights[1] * loss_a)
    assert_close(stats["loss_c"], loss_c)
    if weights[0]:
        assert_close(stats["loss_m"], loss_m)
    if weights[1]:
        assert kept > 0.0  # the consistency term is live at this point
        assert_close(stats["loss_a"], loss_a)
        assert stats["kept_fraction"] == kept


@pytest.mark.parametrize("n_rois,clf_hidden,batch", SIZES)
@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_joint_objective_matches_oracle_with_empty_mask_and_gamma_endpoints(
        n_rois, clf_hidden, batch, gamma):
    model, source_x, labels, target_x, partners = random_point(n_rois, clf_hidden, batch, 7)
    p = {name: v.data.copy() for name, v in model.params.items()}
    for keep in (np.zeros(batch, dtype=bool), np.ones(batch, dtype=bool)):
        want = oracle(p, model.config, source_x, labels, target_x, partners, 1, gamma, 0.8,
                      keep=keep)
        loss, stats = joint_objective(model, source_x, labels, target_x, partners, 1, gamma,
                                      LossWeights(1.0, 1.0),
                                      lambda c, a: FilterMask(keep, threshold=0.8))
        assert_close(loss.item(), want[0] + want[1] + want[2])
        assert_close(stats["loss_a"], want[2])
        assert stats["kept_fraction"] == want[3]


@pytest.mark.parametrize("n_rois,clf_hidden,per_class", [(6, 6, 4), (16, 4096, 16)])
def test_pretrain_loss_matches_oracle(n_rois, clf_hidden, per_class):
    """With one batch holding the whole source, the first (only) logged
    pretrain loss is the cross-entropy of the initial model over every
    source subject."""
    spec = dict(n_subjects_per_class=per_class, n_rois=n_rois, series_length=40,
                class_separation=0.8)
    source, _ = synth_multisite(SiteSpec(seed=3, **spec), SiteSpec(seed=4, **spec))
    cfg = TrainConfig(lr=1e-3, epochs_pretrain=1, batch_size=2 * per_class, n_layers=2,
                      n_heads=2, ffn_hidden=8, clf_hidden=clf_hidden, seed=5)
    init = build_model(n_rois, cfg.n_layers, cfg.n_heads, cfg.ffn_hidden, clf_hidden,
                       cfg.ln_eps, cfg.seed)
    p = {name: v.data.copy() for name, v in init.params.items()}
    logits = [head(depths(s.fcn.values, p, init.config)[-1], p)[1] for s in source.subjects]
    want = cross_entropy(logits, [s.label for s in source.subjects])
    _, log = pretrain(source, cfg)
    assert_close(log.records[0]["loss_c"], want)
