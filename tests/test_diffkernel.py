import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aufa import diffkernel as dk
from aufa.diffkernel import ComputationRecord, Value, backward, finite_diff_check
from aufa.gradcheck import check_primitives


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, shape)


def relu(x):
    """ReLU through the fused op: identity weights, zero bias."""
    n = x.shape[-1]
    return dk.affine(x, Value(np.eye(n)), Value(np.zeros((1, n))), relu=True)


def entry_sum(x):
    """The sum of every entry of x as a 1x1 value: its column sums (of the
    flattened rows, for a stack) times a column of ones."""
    rows = dk.flatten(x) if x.data.ndim == 3 else x
    return dk.matmul(dk.col_sum(rows), Value(np.ones((rows.shape[1], 1))))


# ---------------------------------------------------------------------------
# Value / record basics


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, overflow
def test_value_rejects_non_matrix():
    for bad_shape in ((3,), (2, 2, 2, 2)):
        with pytest.raises(ValueError, match="2-D matrix or a"):
            Value(np.zeros(bad_shape))
    assert Value(np.zeros((4, 2, 3))).shape == (4, 2, 3)
    for bad in ([[np.nan]], [[np.inf, 1.0]], [[np.inf, -np.inf]],
                [[1e308, 1e308, np.nan]]):
        with pytest.raises(ValueError, match="finite"):
            Value(np.array(bad))


def test_value_accepts_finite_data_whose_sum_overflows():
    v = Value(np.array([[1e308, 1e308]]))
    assert v.data.tolist() == [[1e308, 1e308]]
    assert Value(np.array([[-1e308], [-1e308]])).shape == (2, 1)


def test_backward_requires_scalar_loss():
    x = Value(rand((2, 2)))
    with ComputationRecord() as rec:
        y = relu(x)
    with pytest.raises(ValueError):
        backward(y, rec, [x])


# ---------------------------------------------------------------------------
# matmul


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def test_matmul_identity():
    a = rand((3, 3), seed=1)
    out = dk.matmul(Value(np.eye(3)), Value(a))
    assert np.array_equal(out.data, a)


def test_matmul_against_triple_loop():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    out = dk.matmul(Value(a), Value(b))
    assert np.array_equal(out.data, np.array([[19.0, 22.0], [43.0, 50.0]]))
    assert np.array_equal(out.data, matmul_oracle(a, b))
    for seed in range(3):
        a = rand((4, 5), seed=seed)
        b = rand((5, 2), seed=seed + 10)
        got = dk.matmul(Value(a), Value(b)).data
        assert np.abs(got - matmul_oracle(a, b)).max() < 1e-12


def test_matmul_gradient_vs_finite_differences():
    a = Value(np.zeros((3, 4)))
    b = Value(np.zeros((4, 2)))
    err = finite_diff_check(lambda: entry_sum(dk.matmul(a, b)), [a, b], seeds=3)
    assert err <= 1e-6


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        dk.matmul(Value(rand((2, 3))), Value(rand((2, 3))))


# ---------------------------------------------------------------------------
# row_softmax


def softmax_oracle(row, scale):
    scaled = [scale * v for v in row]
    m = max(scaled)
    exps = [math.exp(v - m) for v in scaled]
    total = sum(exps)
    return [e / total for e in exps]


def test_row_softmax_symmetry():
    out = dk.row_softmax(Value(np.array([[0.0, 0.0]])), scale=1.0)
    assert np.array_equal(out.data, np.array([[0.5, 0.5]]))


@pytest.mark.parametrize("c", [-100.0, -3.7, 0.0, 11.25, 500.0])
def test_row_softmax_shifted_log_ratio(c):
    out = dk.row_softmax(Value(np.array([[c, c + math.log(3.0)]])), scale=1.0)
    assert np.abs(out.data - np.array([[0.25, 0.75]])).max() < 1e-12


def test_row_softmax_matches_scalar_oracle():
    out = dk.row_softmax(Value(np.array([[1.0, 2.0, 3.0]])), scale=1.0)
    expected = softmax_oracle([1.0, 2.0, 3.0], 1.0)
    assert np.abs(out.data[0] - np.array(expected)).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=6),
       st.floats(0.1, 10.0))
def test_row_softmax_rows_sum_to_one_and_shift_invariant(row, scale):
    x = np.array([row])
    out = dk.row_softmax(Value(x), scale=scale).data
    assert abs(out.sum() - 1.0) <= 1e-12
    assert (out >= 0).all()
    shifted = dk.row_softmax(Value(x + 7.25), scale=scale).data
    assert np.abs(out - shifted).max() <= 1e-12


def test_row_softmax_rejects_bad_scale():
    with pytest.raises(ValueError):
        dk.row_softmax(Value(np.zeros((1, 2))), scale=0.0)


# ---------------------------------------------------------------------------
# row_layer_norm


def test_layer_norm_constant_row():
    x = Value(np.array([[5.0, 5.0, 5.0]]))
    g = Value(np.ones((1, 3)))
    b = Value(np.zeros((1, 3)))
    out = dk.row_layer_norm(x, g, b, eps=1e-5)
    assert np.array_equal(out.data, np.zeros((1, 3)))


def test_layer_norm_already_standard():
    x = Value(np.array([[1.0, -1.0]]))
    g = Value(np.ones((1, 2)))
    b = Value(np.zeros((1, 2)))
    out = dk.row_layer_norm(x, g, b, eps=1e-12)
    assert np.abs(out.data - np.array([[1.0, -1.0]])).max() < 1e-9


def test_layer_norm_gradient():
    x = Value(np.zeros((4, 6)))
    g = Value(np.zeros((1, 6)))
    b = Value(np.zeros((1, 6)))

    def randomize(rng):
        x.data[...] = rng.uniform(-0.5, 0.5, x.shape)
        g.data[...] = rng.uniform(0.9, 1.1, g.shape)
        b.data[...] = rng.uniform(-0.1, 0.1, b.shape)

    err = finite_diff_check(
        lambda: dk.sum_squares(dk.row_layer_norm(x, g, b, eps=1e-5)),
        [x, g, b], seeds=5, randomize=randomize)
    assert err <= 1e-5


# ---------------------------------------------------------------------------
# affine (with and without ReLU) / concat / flatten


def test_relu_values():
    out = relu(Value(np.array([[-1.0, 0.0, -0.0, 2.0]])))
    assert np.array_equal(out.data, np.array([[0.0, 0.0, 0.0, 2.0]]))
    assert not np.signbit(out.data).any()  # +0.0 where the input was not positive


@pytest.mark.parametrize("shape", [(4, 5), (3, 4, 5)])
def test_affine_relu_is_bitwise_where_of_the_dense_layer(shape):
    """One fused node gives bitwise np.where(pre > 0, pre, 0) forward and
    the masked dense-layer vjp backward, at exact and signed zeros too."""
    rng = np.random.default_rng(40)
    x = Value(rng.uniform(-1, 1, shape))
    w_data = rng.uniform(-1, 1, (5, 6))
    w_data[:, 0] = 0.0                       # pre-activation exactly the bias
    w = Value(w_data)
    bias = Value(np.array([[-0.0, 0.0, 0.3, -0.3, 0.0, 0.1]]))
    c = Value(rng.uniform(-1, 1, shape[:-1] + (6,)))
    with ComputationRecord() as rec:
        h = dk.affine(x, w, bias, relu=True)
        loss = dk.sum_squares(dk.sub(h, c))
    pre = x.data @ w.data + bias.data
    want = np.where(pre > 0, pre, 0.0)
    assert np.array_equal(h.data.view(np.uint64), want.view(np.uint64))
    assert [n.op for n in rec.nodes] == ["affine", "sub", "sum_squares"]
    g_h, g_x, g_w, g_b = backward(loss, rec, [h, x, w, bias])
    gp = g_h * (pre > 0)                     # -0.0 where a negative g is masked
    assert np.signbit(gp[pre <= 0]).any()
    assert np.array_equal(g_x.view(np.uint64), (gp @ w.data.T).view(np.uint64))
    # one GEMM and one column sum over the flattened stack
    want_w = x.data.reshape(-1, 5).T @ gp.reshape(-1, 6)
    want_b = gp.reshape(-1, 6).sum(axis=0, keepdims=True)
    assert np.array_equal(g_w.view(np.uint64), want_w.view(np.uint64))
    assert np.array_equal(g_b.view(np.uint64), want_b.view(np.uint64))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in matmul
def test_non_finite_output_names_the_op_and_shape():
    zero = Value(np.zeros((1, 1)))
    # +inf; -inf, which ReLU alone would turn into 0; and inf - inf = nan
    for row, sign in (([1.0, 1.0], 1.0), ([1.0, 1.0], -1.0), ([2.0, -2.0], 1.0)):
        x = Value(np.array([row, [0.5, 0.5]]))
        w = Value(np.array([[sign * 1e308], [sign * 1e308]]))
        for fused in (False, True):
            with pytest.raises(ValueError,
                               match=r"affine produced non-finite data of shape \(2, 1\)"):
                dk.affine(x, w, zero, relu=fused)
    with pytest.raises(ValueError, match=r"scale produced non-finite data of shape \(1, 2\)"):
        dk.scale(Value(np.array([[1e308, 1.0]])), 10.0)
    with pytest.raises(ValueError, match="Value data must be finite"):
        Value(np.array([[np.nan]]))


def test_fused_affine_scans_for_finiteness_once(monkeypatch):
    x, w, b = Value(rand((3, 4), seed=1)), Value(rand((4, 5), seed=2)), Value(rand((1, 5)))
    scans = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a: scans.append(np.shape(a)) or isfinite(a))
    dk.affine(x, w, b, relu=True)       # the pre-activation only
    assert scans == [(3, 5)]
    dk.affine(x, w, b)
    Value(np.ones((2, 2)))
    assert scans == [(3, 5)] * 2 + [(2, 2)]


def test_affine_zero_weights_replicates_bias():
    x = Value(rand((4, 3), seed=2))
    w = Value(np.zeros((3, 2)))
    bias = Value(np.array([[1.5, -2.5]]))
    out = dk.affine(x, w, bias)
    assert np.array_equal(out.data, np.tile([[1.5, -2.5]], (4, 1)))


def test_flatten_row_major():
    x = Value(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = dk.flatten(x)
    assert np.array_equal(out.data, np.array([[1.0, 2.0, 3.0, 4.0]]))


def test_select_rows_backward_accumulates_repeats():
    x = Value(rand((3, 2), seed=3))
    with ComputationRecord() as rec:
        y = dk.select_rows(x, [1, 1, 0])
        loss = entry_sum(y)
    (gx,) = backward(loss, rec, [x])
    assert np.array_equal(gx, np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# cross_entropy


def cross_entropy_oracle(logits, labels):
    total = 0.0
    for row, lab in zip(logits, labels):
        m = max(row)
        lse = m + math.log(sum(math.exp(v - m) for v in row))
        total += lse - row[lab]
    return total / len(labels)


def test_cross_entropy_uniform():
    out = dk.cross_entropy(Value(np.array([[0.0, 0.0]])), [0])
    assert abs(out.item() - math.log(2.0)) < 1e-12


def test_cross_entropy_saturated():
    out = dk.cross_entropy(Value(np.array([[10.0, -10.0]])), [0])
    assert out.item() <= 1e-8


def test_cross_entropy_matches_oracle():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(8, 2))
    labels = rng.integers(0, 2, size=8).tolist()
    out = dk.cross_entropy(Value(logits), labels)
    assert abs(out.item() - cross_entropy_oracle(logits.tolist(), labels)) < 1e-10


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ValueError):
        dk.cross_entropy(Value(np.zeros((1, 2))), [2])
    with pytest.raises(ValueError):
        dk.cross_entropy(Value(np.zeros((2, 2))), [0])


# ---------------------------------------------------------------------------
# kl_divergence


def kl_oracle(p, q):
    total = 0.0
    for prow, qrow in zip(p, q):
        for pi, qi in zip(prow, qrow):
            pc = max(pi, 1e-12)
            qc = max(qi, 1e-12)
            total += pc * math.log(pc / qc)
    return total / len(p)


def test_kl_identical_is_zero():
    p = Value(np.array([[0.5, 0.5]]))
    q = Value(np.array([[0.5, 0.5]]))
    assert dk.kl_divergence(p, q).item() == 0.0


def test_kl_degenerate_p():
    out = dk.kl_divergence(Value(np.array([[1.0, 0.0]])),
                           Value(np.array([[0.5, 0.5]])))
    assert abs(out.item() - math.log(2.0)) <= 1e-10


def test_kl_direct_value():
    # frozen from the scalar oracle evaluated on [0.9,0.1] vs [0.5,0.5]
    out = dk.kl_divergence(Value(np.array([[0.9, 0.1]])),
                           Value(np.array([[0.5, 0.5]])))
    assert abs(out.item() - 0.3680642071684971) < 1e-12
    assert abs(out.item() - kl_oracle([[0.9, 0.1]], [[0.5, 0.5]])) < 1e-12


def test_kl_rejects_bad_rows():
    good = Value(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError, match="sum to 1"):
        dk.kl_divergence(Value(np.array([[0.7, 0.5]])), good)
    with pytest.raises(ValueError, match="negative"):
        dk.kl_divergence(Value(np.array([[1.2, -0.2]])), good)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=2),
       st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=2))
def test_kl_nonnegative(praw, qraw):
    p = np.array([praw]) / sum(praw)
    q = np.array([qraw]) / sum(qraw)
    val = dk.kl_divergence(Value(p), Value(q)).item()
    assert val >= -1e-12
    same = dk.kl_divergence(Value(p), Value(p)).item()
    assert abs(same) <= 1e-12


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_sum_gives_ones():
    x = Value(rand((3, 4), seed=5))
    with ComputationRecord() as rec:
        loss = entry_sum(x)
    (gx,) = backward(loss, rec, [x])
    assert np.array_equal(gx, np.ones((3, 4)))


def test_backward_sum_matmul_constant():
    x = Value(rand((3, 4), seed=6))
    c = Value(rand((4, 2), seed=7))
    with ComputationRecord() as rec:
        loss = entry_sum(dk.matmul(x, c))
    (gx,) = backward(loss, rec, [x])
    row_sums = c.data.sum(axis=1)
    assert np.abs(gx - np.tile(row_sums, (3, 1))).max() < 1e-14


def test_backward_is_pure():
    """Two calls on one record return the same bits and write no Value."""
    x = Value(rand((2, 3), seed=8))
    w = Value(rand((3, 3), seed=9))
    with ComputationRecord() as rec:
        loss = dk.add(dk.sum_squares(relu(dk.matmul(x, w))), entry_sum(x))
    values = [v for node in rec.nodes for v in (*node.inputs, node.output)]
    before = [v.data.copy() for v in values]
    first = backward(loss, rec, [x, w])
    second = backward(loss, rec, [x, w])
    for a, b in zip(first, second):
        assert a is not b
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    for v, data in zip(values, before):
        assert np.array_equal(v.data.view(np.uint64), data.view(np.uint64))
    assert set(Value.__slots__) == {"data", "node_id"}  # no gradient state


def test_backward_returns_read_only_gradients_in_wrt_order():
    x = Value(rand((2, 2), seed=16))
    w = Value(rand((2, 2), seed=17))
    with ComputationRecord() as rec:
        h = dk.matmul(x, w)
        probs = dk.row_softmax(h, 1.0)
        loss = dk.cross_entropy(dk.scale(probs, 2.0), [0, 1])
    g_probs, g_w, g_x, g_h = backward(loss, rec, [probs, w, x, h])
    assert [g.shape for g in (g_probs, g_w, g_x, g_h)] == [(2, 2)] * 4
    # the chain rule through the returned intermediates
    y = probs.data
    assert np.array_equal(g_h, y * (g_probs - (g_probs * y).sum(axis=-1, keepdims=True)))
    assert np.array_equal(g_w, x.data.T @ g_h)
    assert np.array_equal(g_x, g_h @ w.data.T)
    reversed_order = backward(loss, rec, [h, x, w, probs])
    for a, b in zip(reversed_order, (g_h, g_x, g_w, g_probs)):
        assert np.array_equal(a, b)
    for g in (g_probs, g_w, g_x, g_h):
        with pytest.raises(ValueError, match="read-only"):
            g += 1.0


def test_backward_untouched_parameter_keeps_zero_grad():
    x = Value(rand((2, 2), seed=10))
    unused = Value(rand((2, 2), seed=11))
    with ComputationRecord() as rec:
        loss = entry_sum(relu(x))
    _, g_unused = backward(loss, rec, [x, unused])
    assert np.array_equal(g_unused, np.zeros((2, 2)))
    assert not np.signbit(g_unused).any()  # exact +0.0, not -0.0


def test_separate_backwards_match_joint():
    # grad of (a + b) via one backward equals summed grads of a and b
    x = Value(rand((3, 3), seed=12))
    with ComputationRecord() as rec:
        a = dk.sum_squares(relu(x))
        b = entry_sum(dk.matmul(x, x))
        total = dk.add(a, b)
    (joint,) = backward(total, rec, [x])
    (ga,) = backward(a, rec, [x])
    (gb,) = backward(b, rec, [x])
    assert np.abs(joint - (ga + gb)).max() < 1e-12


def _backward_leaves_inputs_alone(loss, rec, wrt):
    """backward(loss, rec, wrt), checking that no array of the record was
    written and that every gradient is read-only."""
    values = [v for node in rec.nodes for v in (*node.inputs, node.output)]
    before = [v.data.copy() for v in values]
    grads = backward(loss, rec, wrt)
    for v, data in zip(values, before):
        assert np.array_equal(v.data.view(np.uint64), data.view(np.uint64))
    assert not any(g.flags.writeable for g in grads)
    again = backward(loss, rec, wrt)
    for a, b in zip(grads, again):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    return grads


def test_backward_add_of_a_value_with_itself():
    x = Value(rand((2, 3), seed=20))
    with ComputationRecord() as rec:
        y = dk.add(x, x)
        loss = dk.add(dk.sum_squares(y), entry_sum(dk.scale(x, 3.0)))
    g_y, g_x = _backward_leaves_inputs_alone(loss, rec, [y, x])
    assert np.array_equal(g_y, 2.0 * y.data)
    # add's vjp hands g_y to both inputs; the sum is a new array
    assert np.array_equal(g_x, np.full((2, 3), 3.0) + g_y + g_y)
    assert not np.shares_memory(g_x, g_y)


def test_backward_shared_cotangent_with_further_contributions():
    """add hands one cotangent to a and b; each then receives two more
    contributions, summed in place only into arrays backward allocated."""
    a = Value(rand((3, 3), seed=21))
    b = Value(rand((3, 3), seed=22))
    c = Value(rand((3, 3), seed=23))
    with ComputationRecord() as rec:
        a2, b2 = dk.scale(a, 2.0), dk.scale(b, -0.5)   # the last contributions
        ua, ub = dk.matmul(a, c), dk.scale(b, 3.0)
        s = dk.add(a, b)                              # the first contribution
        loss = dk.add(dk.add(dk.sum_squares(s), entry_sum(ua)),
                      dk.add(entry_sum(ub), entry_sum(dk.add(a2, b2))))
    g_s, g_a, g_b = _backward_leaves_inputs_alone(loss, rec, [s, a, b])
    ones = np.ones((3, 3))
    assert np.array_equal(g_s, 2.0 * s.data)
    assert np.array_equal(g_a, (g_s + ones @ c.data.T) + 2.0 * ones)
    assert np.array_equal(g_b, (g_s + 3.0 * ones) + -0.5 * ones)


def test_backward_intermediate_in_wrt_keeps_its_adjoint():
    """t's adjoint is a sum backward owns; flatten's vjp hands x a view
    of it, and x's further contribution must not be added into that view."""
    x = Value(rand((2, 3), seed=24))
    with ComputationRecord() as rec:
        r = dk.scale(x, 5.0)
        t = dk.flatten(x)
        loss = dk.add(dk.add(dk.sum_squares(t), entry_sum(t)), entry_sum(r))
    g_t, g_x = _backward_leaves_inputs_alone(loss, rec, [t, x])
    assert np.array_equal(g_t, np.ones((1, 6)) + 2.0 * t.data)
    assert np.array_equal(g_x, g_t.reshape(2, 3) + np.full((2, 3), 5.0))


def _head_record(relus=(True, False, True), extra=None):
    """A 5x6 weight fed by three 2-D affines (as the classifier head is by
    the source, target and blended rows), plus an optional dense term
    `extra(w)` recorded first ("first") or last ("last")."""
    w = Value(rand((5, 6), seed=30))
    b = Value(rand((1, 6), seed=31))
    unused = Value(rand((5, 6), seed=32))
    xs = [Value(rand((4, 5), seed=33 + i)) for i in range(3)]
    with ComputationRecord() as rec:
        terms = [dk.sum_squares(extra[1](w))] if extra and extra[0] == "first" else []
        outs = [dk.affine(x, w, b, relu=r) for x, r in zip(xs, relus)]
        terms += [dk.sum_squares(o) for o in outs]
        if extra and extra[0] == "last":
            terms.append(dk.sum_squares(extra[1](w)))
        loss = terms[0]
        for t in terms[1:]:
            loss = dk.add(loss, t)
    return loss, rec, w, unused, xs, outs


def test_backward_head_gradient_is_the_left_to_right_sum_of_its_factors():
    loss, rec, w, unused, xs, outs = _head_record()
    parts = [x.data.T @ (2.0 * o.data) for x, o in zip(xs, outs)]  # d sum(o^2) = 2o
    want = (parts[2] + parts[1]) + parts[0]    # the last affine's partial comes first
    g_w, g_unused = _backward_leaves_inputs_alone(loss, rec, [w, unused])
    assert np.array_equal(g_w.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(g_unused, np.zeros((5, 6))) and not np.signbit(g_unused).any()

    factors, g_unused = backward(loss, rec, [w, unused], factored=True)
    assert len(factors) == 3
    assert all(fx is x.data for (fx, _), x in zip(factors, xs[::-1]))
    assert np.array_equal(dk.factor_sum(factors).view(np.uint64), want.view(np.uint64))
    assert np.array_equal(g_unused, np.zeros((5, 6))) and not np.signbit(g_unused).any()


@pytest.mark.parametrize("where", ["first", "last"])
def test_backward_densifies_factors_in_order_before_a_dense_term(where):
    loss, rec, w, _, xs, outs = _head_record(extra=(where, lambda w: dk.scale(w, 0.5)))
    parts = [x.data.T @ (2.0 * o.data) for x, o in zip(xs, outs)]
    dense = 0.5 * (2.0 * (0.5 * w.data))
    if where == "first":        # recorded first, so summed last
        want = ((parts[2] + parts[1]) + parts[0]) + dense
    else:
        want = ((dense + parts[2]) + parts[1]) + parts[0]
    for factored in (False, True):
        (g_w,) = backward(loss, rec, [w], factored=factored)
        assert isinstance(g_w, np.ndarray) and not g_w.flags.writeable
        assert np.array_equal(g_w.view(np.uint64), want.view(np.uint64))


def test_backward_factors_only_2d_inputs_to_a_weight_of_several_columns():
    x = Value(rand((3, 4), seed=40))
    stack = Value(rand((2, 3, 4), seed=41))
    w1, w6 = Value(rand((4, 1), seed=42)), Value(rand((4, 6), seed=43))
    w0 = Value(rand((4, 6), seed=44))
    with ComputationRecord() as rec:
        a = dk.sum_squares(dk.affine(x, w1, Value(np.zeros((1, 1)))))     # one column
        b = dk.sum_squares(dk.affine(stack, w6, Value(np.zeros((1, 6)))))  # a stack
        w = dk.scale(w0, 3.0)                              # a weight the graph computes
        c = dk.sum_squares(dk.affine(x, w, Value(np.zeros((1, 6))), relu=True))
        loss = dk.add(dk.add(a, b), c)
    dense = backward(loss, rec, [w1, w6, w0, w])
    factored = backward(loss, rec, [w1, w6, w0, w], factored=True)
    for d, f in zip(dense[:3], factored[:3]):
        assert isinstance(f, np.ndarray)
        assert np.array_equal(d.view(np.uint64), f.view(np.uint64))
    ((fx, fg),) = factored[3]
    assert fx is x.data
    assert np.array_equal((fx.T @ fg).view(np.uint64), dense[3].view(np.uint64))


# ---------------------------------------------------------------------------
# finite_diff_check harness


def test_finite_diff_quadratic_form():
    x = Value(np.zeros((3, 1)))
    q = rand((3, 3), seed=13)
    q = Value(q + q.T)

    def f():
        return dk.matmul(dk.flatten(x), dk.matmul(q, x))  # x.T q x for a column x

    err = finite_diff_check(f, [x], seeds=3)
    assert err <= 1e-8


def test_finite_diff_independent_parameter():
    x = Value(rand((2, 2), seed=14))
    unused = Value(rand((2, 2), seed=15))
    err = finite_diff_check(lambda: dk.sum_squares(x), [x, unused], seeds=2)
    assert err <= 1e-8
    # analytic gradient of the unused parameter is exactly zero
    with ComputationRecord() as rec:
        loss = dk.sum_squares(x)
    (g_unused,) = backward(loss, rec, [unused])
    assert np.array_equal(g_unused, np.zeros((2, 2)))


def test_finite_diff_rejects_bad_step():
    x = Value(np.zeros((1, 1)))
    with pytest.raises(ValueError):
        finite_diff_check(lambda: dk.sum_squares(x), [x], step=1e-2)


def test_every_primitive_gradient_within_tolerance():
    results = check_primitives(seeds=5)
    assert "affine_relu" in results and "relu" not in results  # ReLU is part of affine
    worst = max(results.values())
    assert worst <= 1e-4, f"worst primitive gradient error {worst}"


# ---------------------------------------------------------------------------
# normalisation kernels against their textbook formulas, bit for bit


def softmax_reference(x, scale):
    z = scale * x
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (scale * y * (g - inner),)

    return y, vjp


def layer_norm_reference(x, gain, offset, eps):
    mu = x.mean(axis=-1, keepdims=True)
    dev = x - mu
    var = (dev * dev).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = dev * inv_std
    out = xhat * gain + offset

    def vjp(g):
        dxhat = g * gain
        # over a stack, one column sum over its flattened rows
        dgain = (g * xhat).reshape(-1, x.shape[-1]).sum(axis=0, keepdims=True)
        doffset = g.reshape(-1, x.shape[-1]).sum(axis=0, keepdims=True)
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return inv_std * (dxhat - m1 - xhat * m2), dgain, doffset

    return out, vjp


def recorded(op):
    """The output data and the vjp of the one node `op()` records."""
    with ComputationRecord() as rec:
        out = op()
    (node,) = rec.nodes
    return out.data, node.vjp


def same_bits(got, want):
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("shape", [(3, 8), (8, 8), (16, 16), (116, 116), (5, 4, 8),
                                   (4, 8, 8), (4, 16, 16), (4, 116, 116)])
def test_normalisation_kernels_give_the_reference_bits(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape) * rng.uniform(0.1, 30.0, shape[:-1] + (1,))
    g = rng.standard_normal(shape)
    n = shape[-1]
    for scale in (1.0, 0.35):
        y, vjp = recorded(lambda: dk.row_softmax(Value(x), scale))
        want_y, want_vjp = softmax_reference(x, scale)
        assert same_bits([y, *vjp(g)], [want_y, *want_vjp(g)])
    gain, offset = rng.uniform(0.5, 1.5, (1, n)), rng.uniform(-1.0, 1.0, (1, n))
    for eps in (1e-5, 1e-12):
        out, vjp = recorded(lambda: dk.row_layer_norm(Value(x), Value(gain), Value(offset), eps))
        want_out, want_vjp = layer_norm_reference(x, gain, offset, eps)
        assert same_bits([out, *vjp(g)], [want_out, *want_vjp(g)])


# ---------------------------------------------------------------------------
# stacked (B, r, c) values


def test_stacked_ops_match_per_matrix_ops_bitwise():
    rng = np.random.default_rng(31)
    xs = rng.uniform(-1, 1, (5, 4, 4))
    w = Value(rng.uniform(-1, 1, (4, 3)))
    bias = Value(rng.uniform(-1, 1, (1, 3)))
    g = Value(rng.uniform(0.5, 1.5, (1, 3)))
    o = Value(rng.uniform(-1, 1, (1, 3)))

    heads = [tuple(Value(rng.uniform(-1, 1, (4, 3))) for _ in range(3)) for _ in range(2)]
    w6 = Value(rng.uniform(-1, 1, (6, 3)))

    def chain(x):
        h = dk.multi_head_attention(dk.matmul(x, x), heads)
        h = dk.affine(h, w6, bias, relu=True)
        return dk.flatten(dk.add(dk.row_softmax(h, 0.7), dk.row_softmax(h, 1.3)))

    stacked = chain(Value(xs))
    assert stacked.shape == (5, 12)
    for k in range(5):
        assert np.array_equal(stacked.data[k], chain(Value(xs[k])).data[0])
    norm = dk.row_layer_norm(dk.affine(Value(xs), w, bias), g, o)
    for k in range(5):
        want = dk.row_layer_norm(dk.affine(Value(xs[k]), w, bias), g, o)
        assert np.array_equal(norm.data[k], want.data)


@pytest.mark.parametrize("batch", [1, 3, 32])
def test_stacked_parameter_gradients_fold_in_reverse_subject_order(batch):
    """A 2-D weight fed by a stack gets its gradient as one GEMM over the
    flattened stack, and a bias, gain or offset row as one column sum over
    its flattened rows, bit for bit. Against one node per subject (summed
    last subject first) it agrees to 1e-12 relative."""
    rng = np.random.default_rng(batch)
    xs = rng.uniform(-1, 1, (batch, 5, 5))
    w = Value(rng.uniform(-1, 1, (5, 7)))
    w2 = Value(rng.uniform(-1, 1, (7, 5)))
    bias = Value(rng.uniform(-1, 1, (1, 5)))
    gain = Value(rng.uniform(0.5, 1.5, (1, 5)))
    offset = Value(rng.uniform(-1, 1, (1, 5)))
    params = [w, w2, bias, gain, offset]

    def body(x):
        h1 = dk.matmul(x, w)
        h = dk.affine(h1, w2, bias)
        return h1, h, dk.row_layer_norm(h, gain, offset)

    with ComputationRecord() as rec:
        x = Value(xs)
        h1, h, out = body(x)
        loss = dk.sum_squares(dk.flatten(out))
    g_w, g_w2, g_bias, g_gain, g_offset, g_h1, g_h = backward(
        loss, rec, [*params, h1, h])
    _, ln_vjp = layer_norm_reference(h.data, gain.data, offset.data, 1e-5)
    _, want_gain, want_offset = ln_vjp(2.0 * out.data)
    want = [xs.reshape(-1, 5).T @ g_h1.reshape(-1, 7),
            h1.data.reshape(-1, 7).T @ g_h.reshape(-1, 5),
            g_h.reshape(-1, 5).sum(axis=0, keepdims=True), want_gain, want_offset]
    assert same_bits([g_w, g_w2, g_bias, g_gain, g_offset], want)

    with ComputationRecord() as rec:
        loss = dk.sum_squares(dk.concat_rows([dk.flatten(body(Value(x))[2]) for x in xs]))
    per_subject = backward(loss, rec, params)
    for got, ref in zip([g_w, g_w2, g_bias, g_gain, g_offset], per_subject):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_stacked_primitive_gradients_within_tolerance():
    x = Value(np.zeros((3, 4, 4)))
    y = Value(np.zeros((3, 4, 4)))
    w = Value(np.zeros((4, 2)))
    m = Value(np.zeros((2, 4)))
    bias = Value(np.zeros((1, 2)))
    gain = Value(np.zeros((1, 4)))
    offset = Value(np.zeros((1, 4)))
    checks = [
        (lambda: dk.matmul(x, y), [x, y]),
        (lambda: dk.matmul(x, w), [x, w]),
        (lambda: dk.matmul(m, x), [m, x]),
        (lambda: dk.affine(x, w, bias), [x, w, bias]),
        (lambda: dk.affine(y, w, bias, relu=True), [y, w, bias]),
        (lambda: dk.row_softmax(dk.sub(x, y), 0.7), [x, y]),
        (lambda: dk.row_layer_norm(x, gain, offset), [x, gain, offset]),
        (lambda: dk.flatten(dk.permute(x, [2, 0, 1])), [x]),
    ]
    for f, params in checks:
        assert finite_diff_check(lambda: dk.sum_squares(f()), params, seeds=2) <= 1e-6


def test_permute_backward_is_exact_inverse_and_keeps_negative_zero():
    x = Value(rand((3, 2, 2)))
    with ComputationRecord() as rec:
        y = dk.permute(x, [2, 0, 1])
        loss = entry_sum(dk.scale(y, -0.0))
    assert np.array_equal(y.data, x.data[[2, 0, 1]])
    (gx,) = backward(loss, rec, [x])
    assert np.signbit(gx).all()  # -0.0 everywhere, as scale's vjp gave it
    with pytest.raises(ValueError, match="permutation"):
        dk.permute(x, [0, 0, 1])


def test_loss_ops_reject_stacks():
    s = Value(np.full((2, 3, 2), 0.5))
    for op in (lambda: dk.cross_entropy(s, [0, 1, 0]), lambda: dk.kl_divergence(s, s),
               lambda: dk.col_sum(s), lambda: dk.select_rows(s, [0]),
               lambda: dk.concat_rows([s, s])):
        with pytest.raises(ValueError, match="2-D"):
            op()

