"""Dense-matrix reverse-mode differentiation engine.

Every value is a float64 matrix: either 2-D (scalars are 1x1) or a stack
of B equal-shape matrices, shape (B, r, c), one per subject. The encoder
ops (matmul, transpose, add, sub, scale, affine, concat_cols, row_softmax,
row_layer_norm, flatten, permute) act on the last two axes, so one node
serves a whole stack; the other ops take 2-D matrices. ReLU is not an op
of its own: `affine(..., relu=True)` applies it to the dense layer's
output buffer in place, one node and one array for dense+ReLU.

When a 2-D value (a weight) meets a stack, the op's vjp returns one
partial gradient per subject, and backward() folds them into the value's
adjoint in reverse subject order: the order in which one node per subject
would have accumulated them. So, as long as each weight feeds one op per
stacked pass, batching does not change a bit of any gradient.

Operations applied while a ComputationRecord is active are recorded in
creation order. backward(loss, record, wrt) replays the record in exact
reverse order and returns d(loss)/d(v) for each v in wrt. It is pure: it
writes to no Value and keeps no state, so calling it twice gives the same
bits. The returned arrays are read-only and may share memory with one
another (add's vjp hands one cotangent to both inputs). backward sums a
value's adjoint in place only once it holds an array that backward itself
allocated; it never writes into an array a vjp returned. Without an active
record, operations run as plain forward evaluation.

A weight of two or more columns that only `affine`s on 2-D inputs reach
has the gradient sum(x.T @ g), at paper scale far larger than its factors;
backward keeps it as its list of (x, g) factors, in summation order.

An op whose output is not finite raises a ValueError naming the op and
the output's shape.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

_PROB_CLAMP = 1e-12  # floor applied to probabilities before any log
_ROW_SUM_TOL = 1e-6

_node_ids = itertools.count()


class Value:
    """A matrix node: float64 data and a unique id."""

    __slots__ = ("data", "node_id")

    def __init__(self, data, _finite: bool = False) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim not in (2, 3):
            raise ValueError(
                f"Value requires a 2-D matrix or a (B, r, c) stack, got shape {arr.shape}")
        if not _finite and not np.isfinite(arr).all():  # _finite: an op checked it
            raise ValueError("Value data must be finite")
        self.data = arr
        self.node_id = next(_node_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ValueError(f"item() needs a 1x1 value, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Value(shape={self.data.shape}, id={self.node_id})"


def scalar(x: float) -> Value:
    return Value(np.array([[float(x)]]))


class _Node:
    __slots__ = ("op", "inputs", "output", "vjp")

    def __init__(self, op: str, inputs: tuple[Value, ...], output: Value, vjp) -> None:
        self.op = op
        self.inputs = inputs
        self.output = output
        self.vjp = vjp


class ComputationRecord:
    """Ordered log of applied operations; use as a context manager."""

    __slots__ = ("nodes",)

    def __init__(self) -> None:
        self.nodes: list[_Node] = []

    def __enter__(self) -> "ComputationRecord":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _ACTIVE.pop()
        return False

    def __len__(self) -> int:
        return len(self.nodes)


# Single-writer: one record active per forward/backward at a time.
_ACTIVE: list[ComputationRecord] = []


def _non_finite(op: str, data: np.ndarray) -> ValueError:
    return ValueError(f"{op} produced non-finite data of shape {data.shape}")


def _emit(op: str, inputs: tuple[Value, ...], out_data: np.ndarray, vjp, finite=False) -> Value:
    try:
        out = Value(out_data, finite)
    except ValueError:  # every op returns a 2-D or 3-D array, so not finite
        raise _non_finite(op, out_data) from None
    if _ACTIVE:
        _ACTIVE[-1].nodes.append(_Node(op, inputs, out, vjp))
    return out


def _fold(acc: np.ndarray | None, parts: np.ndarray, in_place: bool) -> np.ndarray:
    """acc + parts[B-1] + ... + parts[0] for per-subject partials `parts`,
    added strictly left to right: the order in which per-subject nodes,
    met last subject first, would accumulate them. (A numpy reduction may
    sum pairwise or reorder the subjects.) Sums into `acc` if `in_place`."""
    if acc is None:
        out = parts[-1].copy()
    elif in_place:
        out = acc
        out += parts[-1]
    else:
        out = acc + parts[-1]
    for s in parts[-2::-1]:
        out += s
    return out


def factor_sum(factors: list, rows: slice = slice(None), out=None) -> np.ndarray:
    """Rows `rows` of x1.T @ g1 + x2.T @ g2 + ..., summed left to right (into
    `out`): bitwise the whole sum's rows, but for a one-row slice (a GEMV)."""
    (x, g), *rest = factors
    out = np.matmul(x[:, rows].T, g, out=out)
    for x, g in rest:
        out += x[:, rows].T @ g
    return out


def backward(loss: Value, record: ComputationRecord, wrt: Iterable[Value],
             factored: bool = False) -> list:
    """d(loss)/d(v) for each v in `wrt`, in order; exact zeros for a v the
    loss does not reach.

    Pure: no Value is written, so two calls on one record return the same
    bits. The results are read-only arrays and may share memory with one
    another. With `factored`, a factored gradient (see the module
    docstring) is returned as its list of (x, g) factors; factor_sum of it
    is the array, bit for bit. The factors are arrays of the record.
    """
    if loss.data.shape != (1, 1):
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    wrt = list(wrt)
    wanted = {v.node_id for v in wrt}
    adjoint: dict[int, np.ndarray] = {loss.node_id: np.ones((1, 1))}
    # ids whose adjoint is an array allocated here, not a vjp's output
    # (which may be shared), so further contributions may go in with +=
    owned: set[int] = set()
    for node in reversed(record.nodes):
        # every consumer of this output came later, so its adjoint is final
        out_id = node.output.node_id
        g = adjoint.get(out_id) if out_id in wanted else adjoint.pop(out_id, None)
        if g is None:
            continue
        if isinstance(g, list):  # a weight computed in the graph
            g = factor_sum(g)
        for v, dv in zip(node.inputs, node.vjp(g)):
            if dv is None:
                continue
            vid = v.node_id
            acc = adjoint.get(vid)
            if isinstance(dv, list) and (acc is None or isinstance(acc, list)):
                adjoint[vid] = (acc or []) + dv
                continue
            acc = factor_sum(acc) if isinstance(acc, list) else acc  # factors sum first
            dv = factor_sum(dv) if isinstance(dv, list) else dv
            if dv.ndim > v.data.ndim:
                acc = _fold(acc, dv, vid in owned)
            elif acc is None:
                adjoint[vid] = dv
                continue
            elif vid in owned:
                acc += dv
            else:
                acc = acc + dv
            adjoint[vid] = acc
            owned.add(vid)
    grads = [adjoint[v.node_id] if v.node_id in adjoint else np.zeros_like(v.data)
             for v in wrt]
    grads = [factor_sum(g) if isinstance(g, list) and not factored else g for g in grads]
    for g in grads:
        if not isinstance(g, list):
            g.flags.writeable = False
    return grads


# ---------------------------------------------------------------------------
# primitives


def _swap(a: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack (a view)."""
    return np.swapaxes(a, -1, -2)


def _matrix(x: Value, op: str) -> None:
    if x.data.ndim != 2:
        raise ValueError(f"{op} needs a 2-D matrix, got shape {x.shape}")


def matmul(a: Value, b: Value) -> Value:
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        return g @ _swap(b.data), _swap(a.data) @ g

    return _emit("matmul", (a, b), out, vjp)


def transpose(x: Value) -> Value:
    return _emit("transpose", (x,), _swap(x.data).copy(), lambda g: (_swap(g),))


def add(a: Value, b: Value) -> Value:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _emit("add", (a, b), a.data + b.data, lambda g: (g, g))


def sub(a: Value, b: Value) -> Value:
    if a.shape != b.shape:
        raise ValueError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    return _emit("sub", (a, b), a.data - b.data, lambda g: (g, -g))


def scale(x: Value, c: float) -> Value:
    c = float(c)
    return _emit("scale", (x,), c * x.data, lambda g: (c * g,))


def affine(x: Value, w: Value, bias: Value, relu: bool = False) -> Value:
    """x @ w + bias, with bias a 1xN row broadcast over the rows of x; with
    `relu`, max(0, x @ w + bias) as one node.

    The bias and the ReLU are applied in the GEMM's output buffer, so a
    dense layer allocates one array. ReLU is max(pre, 0) and then + 0.0,
    which turns a -0.0 into +0.0 and leaves every other finite value
    alone: exactly np.where(pre > 0, pre, 0.0), without a masked copy
    (slow on a data-dependent mask). Its vjp masks the cotangent as
    g * (pre > 0). A non-finite pre-activation raises naming `affine`
    before ReLU could hide it; the ReLU output, finite by construction,
    is not scanned again.
    """
    if x.shape[-1] != w.shape[0]:
        raise ValueError(f"affine dimension mismatch: {x.shape} x {w.shape}")
    if bias.shape != (1, w.shape[1]):
        raise ValueError(f"affine bias must be 1x{w.shape[1]}, got {bias.shape}")
    out = x.data @ w.data
    out += bias.data
    mask = None
    if relu:
        if not np.isfinite(out).all():
            raise _non_finite("affine", out)
        np.maximum(out, 0.0, out=out)
        out += 0.0
        mask = out > 0

    def vjp(g):
        if mask is not None:
            g = g * mask
        # one column is a GEMV, not sliced bitwise (factor_sum): keep it dense
        dw = [(x.data, g)] if g.ndim == 2 and g.shape[1] > 1 else _swap(x.data) @ g
        return g @ w.data.T, dw, g.sum(axis=-2, keepdims=True)

    return _emit("affine", (x, w, bias), out, vjp, finite=relu)


def concat_cols(xs: Sequence[Value]) -> Value:
    if not xs:
        raise ValueError("concat_cols needs at least one input")
    rows = xs[0].shape[:-1]
    if any(x.shape[:-1] != rows for x in xs):
        raise ValueError("concat_cols inputs must share row count")
    splits = np.cumsum([x.shape[-1] for x in xs])[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=-1))

    return _emit("concat_cols", tuple(xs),
                 np.concatenate([x.data for x in xs], axis=-1), vjp)


def concat_rows(xs: Sequence[Value]) -> Value:
    if not xs:
        raise ValueError("concat_rows needs at least one input")
    cols = xs[0].shape[1]
    if any(x.data.ndim != 2 or x.shape[1] != cols for x in xs):
        raise ValueError("concat_rows inputs must be 2-D and share column count")
    heights = [x.shape[0] for x in xs]
    splits = np.cumsum(heights)[:-1]

    def vjp(g):
        return tuple(np.vsplit(g, splits))

    return _emit("concat_rows", tuple(xs), np.vstack([x.data for x in xs]), vjp)


def flatten(x: Value) -> Value:
    """Each matrix, row-major, as one row: (r, c) -> (1, r*c) and a
    (B, r, c) stack -> (B, r*c)."""
    shape = x.shape

    def vjp(g):
        return (g.reshape(shape),)

    rows = shape[0] if len(shape) == 3 else 1
    return _emit("flatten", (x,), x.data.reshape(rows, -1).copy(), vjp)


def permute(x: Value, order: Sequence[int]) -> Value:
    """Reorder the first axis (the subjects of a stack, the rows of a
    matrix): out[k] = x[order[k]]. `order` must be a permutation, so the
    vjp is the inverse reordering; unlike a scatter-add into zeros, that
    keeps the sign of every zero."""
    idx = np.asarray(list(order), dtype=np.intp)
    if idx.shape != (x.shape[0],) or not np.array_equal(np.sort(idx), np.arange(x.shape[0])):
        raise ValueError(f"permute needs a permutation of range({x.shape[0]})")
    inverse = np.argsort(idx)

    def vjp(g):
        return (g[inverse],)

    return _emit("permute", (x,), x.data[idx], vjp)


def select_rows(x: Value, indices: Sequence[int]) -> Value:
    _matrix(x, "select_rows")
    idx = np.asarray(list(indices), dtype=np.intp)
    if idx.size == 0:
        raise ValueError("select_rows needs at least one index")
    if idx.min() < 0 or idx.max() >= x.shape[0]:
        raise ValueError("select_rows index out of range")

    def vjp(g):
        dx = np.zeros(x.shape)
        np.add.at(dx, idx, g)
        return (dx,)

    return _emit("select_rows", (x,), x.data[idx].copy(), vjp)


def col_sum(x: Value) -> Value:
    """Sum over rows, returning a 1xN row."""
    _matrix(x, "col_sum")

    def vjp(g):
        return (np.broadcast_to(g, x.shape).copy(),)

    return _emit("col_sum", (x,), x.data.sum(axis=0, keepdims=True), vjp)


def sum_all(x: Value) -> Value:
    def vjp(g):
        return (np.full(x.shape, g[0, 0]),)

    return _emit("sum_all", (x,), np.array([[x.data.sum()]]), vjp)


def sum_squares(x: Value) -> Value:
    def vjp(g):
        return (2.0 * g[0, 0] * x.data,)

    return _emit("sum_squares", (x,), np.array([[(x.data * x.data).sum()]]), vjp)


def row_softmax(x: Value, scale: float) -> Value:
    """Row-wise softmax of scale*x, stabilized by per-row max subtraction."""
    if scale <= 0:
        raise ValueError("row_softmax scale must be positive")
    y = float(scale) * x.data  # then exp(y - max) / sum, in place
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def vjp(g):
        t = g * y
        np.subtract(g, t.sum(axis=-1, keepdims=True), out=t)
        return (np.multiply(float(scale) * y, t, out=t),)

    return _emit("row_softmax", (x,), y, vjp)


def row_layer_norm(x: Value, gain: Value, offset: Value, eps: float = 1e-5) -> Value:
    """Standardize each row to mean 0 / unit variance, then scale and shift."""
    if eps <= 0:
        raise ValueError("row_layer_norm eps must be positive")
    n = x.shape[-1]
    if gain.shape != (1, n) or offset.shape != (1, n):
        raise ValueError("row_layer_norm gain/offset must be 1xN rows")
    # means as sum / n, the bits of ndarray.mean; buffers reused in place
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) / n
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out = xhat * gain.data
    out += offset.data

    def vjp(g):
        dx = g * gain.data
        dgain = (g * xhat).sum(axis=-2, keepdims=True)
        doffset = g.sum(axis=-2, keepdims=True)
        m1 = dx.sum(axis=-1, keepdims=True) / n
        t = dx * xhat
        m2 = t.sum(axis=-1, keepdims=True) / n
        dx -= m1
        dx -= np.multiply(xhat, m2, out=t)
        dx *= inv_std
        return dx, dgain, doffset

    return _emit("row_layer_norm", (x, gain, offset), out, vjp)


def cross_entropy(logits: Value, labels: Sequence[int]) -> Value:
    """Mean negative log-softmax of the labelled class over the batch."""
    _matrix(logits, "cross_entropy")
    b, c = logits.shape
    labels = list(labels)
    if len(labels) != b:
        raise ValueError(f"cross_entropy needs one label per row ({b}), got {len(labels)}")
    if any(l not in (0, 1) for l in labels):
        raise ValueError("cross_entropy labels must be 0 or 1")
    idx = np.asarray(labels, dtype=np.intp)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = float((lse[:, 0] - z[np.arange(b), idx]).mean())
    probs = np.exp(z - lse)

    def vjp(g):
        d = probs.copy()
        d[np.arange(b), idx] -= 1.0
        return (g[0, 0] * d / b,)

    return _emit("cross_entropy", (logits,), np.array([[loss]]), vjp)


def kl_divergence(p: Value, q: Value) -> Value:
    """Mean over rows of sum(p * log(p/q)); gradients flow through both sides.

    Rows must be probability vectors; entries are clamped at 1e-12 before
    the logarithm.
    """
    _matrix(p, "kl_divergence")
    if p.shape != q.shape:
        raise ValueError(f"kl_divergence shape mismatch: {p.shape} vs {q.shape}")
    for name, v in ("p", p), ("q", q):
        if (v.data < 0).any():
            raise ValueError(f"kl_divergence {name} has negative entries")
        bad = np.abs(v.data.sum(axis=1) - 1.0) > _ROW_SUM_TOL
        if bad.any():
            raise ValueError(f"kl_divergence {name} row {int(np.argmax(bad))} does not sum to 1")
    b = p.shape[0]
    pc = np.maximum(p.data, _PROB_CLAMP)
    qc = np.maximum(q.data, _PROB_CLAMP)
    log_ratio = np.log(pc) - np.log(qc)
    out = float((pc * log_ratio).sum() / b)
    p_live = p.data > _PROB_CLAMP  # clamped entries get no gradient
    q_live = q.data > _PROB_CLAMP

    def vjp(g):
        s = g[0, 0] / b
        dp = np.where(p_live, s * (log_ratio + 1.0), 0.0)
        dq = np.where(q_live, -s * pc / qc, 0.0)
        return dp, dq

    return _emit("kl_divergence", (p, q), np.array([[out]]), vjp)


# ---------------------------------------------------------------------------
# gradient validation


def finite_diff_check(
    f: Callable[[], Value],
    params: Sequence[Value],
    step: float = 1e-5,
    seeds: int = 5,
    randomize: Callable[[np.random.Generator], None] | None = None,
    base_seed: int = 0,
) -> float:
    """Compare analytic gradients of f against central finite differences.

    f rebuilds its forward pass from `params` on every call and returns a
    scalar Value. For each seed the parameter values are re-randomized
    (uniform in [-0.5, 0.5] unless `randomize` is given), the analytic
    gradient is computed once, and every parameter entry is wiggled by
    +-step. Returns the worst relative error, with the denominator floored
    at max(|analytic|, |numeric|, 1e-8).
    """
    if not (1e-7 <= step <= 1e-3):
        raise ValueError("finite_diff_check step must lie in [1e-7, 1e-3]")
    worst = 0.0
    for s in range(seeds):
        rng = np.random.default_rng(base_seed + s)
        if randomize is None:
            for p in params:
                p.data[...] = rng.uniform(-0.5, 0.5, size=p.shape)
        else:
            randomize(rng)
        with ComputationRecord() as rec:
            loss = f()
        for p, grad in zip(params, backward(loss, rec, params)):
            analytic = grad.reshape(-1)
            flat = p.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                fp = f().item()
                flat[i] = orig - step
                fm = f().item()
                flat[i] = orig
                numeric = (fp - fm) / (2.0 * step)
                denom = max(abs(analytic[i]), abs(numeric), 1e-8)
                worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst
