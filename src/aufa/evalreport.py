"""Evaluation: classification metrics, attention-based connection ranking,
feature export, and shallow graph-metric baselines with a linear probe."""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import diffkernel as dk
from .adaptation import classify
from .connectome import ConnectivityMatrix, Dataset
from .diffkernel import Value
from .encoder import attention, encode
from .model import Model


# ---------------------------------------------------------------------------
# classification metrics


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float | None
    tp: int
    fp: int
    tn: int
    fn: int
    n_subjects: int
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {**asdict(self), "flags": list(self.flags)}


def hard_metrics(pred_labels, true_labels) -> MetricsReport:
    """Accuracy / precision / recall / F1 with the positive class = 1.

    Zero-denominator metrics come back as 0.0 and are named in `flags`.
    """
    pred = np.asarray(list(pred_labels), dtype=int)
    true = np.asarray(list(true_labels), dtype=int)
    if pred.shape != true.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {true.shape}")
    if pred.size == 0:
        raise ValueError("empty input")
    tp = int(((pred == 1) & (true == 1)).sum())
    fp = int(((pred == 1) & (true == 0)).sum())
    tn = int(((pred == 0) & (true == 0)).sum())
    fn = int(((pred == 0) & (true == 1)).sum())
    flags = []
    accuracy = (tp + tn) / pred.size
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision, flags = 0.0, flags + ["precision_undefined"]
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall, flags = 0.0, flags + ["recall_undefined"]
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1, flags = 0.0, flags + ["f1_undefined"]
    return MetricsReport(accuracy=accuracy, precision=precision, recall=recall,
                         f1=f1, auc=None, tp=tp, fp=fp, tn=tn, fn=fn,
                         n_subjects=int(pred.size), flags=tuple(flags))


def auc(scores, true_labels) -> float:
    """Rank-based Mann-Whitney AUC; tied scores earn half credit."""
    s = np.asarray(list(scores), dtype=float)
    y = np.asarray(list(true_labels), dtype=int)
    if s.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc needs both classes present")
    # 1-based ranks, tied scores sharing their run's mean rank (a half-integer)
    _, run, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[run]
    r_pos = ranks[y == 1].sum()
    return float((r_pos - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def full_report(pred_labels, scores, true_labels) -> MetricsReport:
    base = hard_metrics(pred_labels, true_labels)
    true = np.asarray(list(true_labels), dtype=int)
    auc_val = auc(scores, true) if 0 < true.sum() < true.size else None
    flags = base.flags + (("auc_undefined",) if auc_val is None else ())
    return replace(base, auc=auc_val, flags=flags)


# ---------------------------------------------------------------------------
# model-level evaluation


# Input elements (subjects x regions^2) per encoder stack in eval and
# export; every layer's intermediates grow with the stack. At 116 regions
# this is 4 subjects: with 32 subjects, peak RSS was 121 MB at 4, 125 MB at
# 8 and 148 MB at 32 (one stack), against 123 MB encoding one subject at a
# time (2 cores, BLAS on one thread), and the time per request did not
# differ measurably. At 16 regions a whole 150-subject cohort is one stack.
# Each subject's rows are the same bits at any stack size.
EVAL_BUDGET = 4 * 116 * 116


def _stacks(dataset: Dataset) -> list[list[ConnectivityMatrix]]:
    """The subjects' matrices in stacks of EVAL_BUDGET input elements (at
    least one subject each)."""
    xs = [s.fcn for s in dataset.subjects]
    size = max(1, EVAL_BUDGET // dataset.n_rois ** 2)
    return [xs[i:i + size] for i in range(0, len(xs), size)]


def _encode_cohort(model: Model, dataset: Dataset) -> Value:
    """Graph feature rows of every subject."""
    return dk.concat_rows([encode(xs, model) for xs in _stacks(dataset)])


def attention_maps(model: Model, dataset: Dataset) -> np.ndarray:
    """Every subject's attention maps, (n_subjects, n_layers * n_heads, N, N)."""
    return np.concatenate([attention(xs, model) for xs in _stacks(dataset)])


def predict_dataset(model: Model, dataset: Dataset):
    """Encode and classify every subject; returns (labels, scores)."""
    pred = classify(_encode_cohort(model, dataset), model)
    return pred.hard_labels(), pred.positive_scores()


def evaluate_model(model: Model, dataset: Dataset) -> MetricsReport:
    labels = dataset.labels()
    if any(l is None for l in labels):
        raise ValueError("evaluation needs a fully labelled dataset")
    pred, scores = predict_dataset(model, dataset)
    return full_report(pred, scores, labels)


# ---------------------------------------------------------------------------
# attention aggregation


@dataclass(frozen=True)
class ConnectionRanking:
    """Region pairs ordered by mean attention weight, strongest first."""

    entries: tuple[tuple[int, int, float], ...]

    def top(self, k: int = 10) -> list[tuple[int, int, float]]:
        return list(self.entries[:k])

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("roi_i,roi_j,weight\n")
            for i, j, w in self.entries:
                fh.write(f"{i},{j},{repr(w)}\n")


def aggregate_attention(maps: np.ndarray) -> ConnectionRanking:
    """Mean attention over subjects, layers and heads of a (subjects, maps,
    N, N) array (see `attention_maps`), symmetrized; the diagonal is
    excluded and ties break on (i, j) order."""
    if maps.ndim != 4 or not maps.size:
        raise ValueError(f"aggregate_attention needs a non-empty (subjects, maps, N, N) "
                         f"array, got shape {maps.shape}")
    stacked = maps.reshape(-1, *maps.shape[2:])
    # per-entry sort fixes the summation order, so the mean (and hence the
    # ranking) is exactly invariant to subject and head ordering
    mean = np.sort(stacked, axis=0).sum(axis=0) / stacked.shape[0]
    sym = (mean + mean.T) / 2.0
    n = sym.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    entries = sorted(
        ((int(i), int(j), float(sym[i, j])) for i, j in zip(iu, ju)),
        key=lambda e: (-e[2], e[0], e[1]),
    )
    return ConnectionRanking(tuple(entries))


# ---------------------------------------------------------------------------
# feature export


@dataclass(frozen=True)
class FeatureTable:
    header: tuple[str, ...]
    subject_ids: tuple[str, ...]
    sites: tuple[str, ...]
    labels: tuple[int | None, ...]
    features: np.ndarray

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(self.header) + "\n")
            for sid, site, label, row in zip(self.subject_ids, self.sites,
                                             self.labels, self.features):
                lab = "" if label is None else str(label)
                feats = ",".join(repr(float(v)) for v in row)
                fh.write(f"{sid},{site},{lab},{feats}\n")


def upper_triangle(matrix: np.ndarray) -> np.ndarray:
    """Strict upper triangle, row-wise."""
    n = matrix.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    return matrix[iu, ju]


def export_features(dataset: Dataset, which: str, model: Model | None = None) -> FeatureTable:
    """Feature table per subject: either the flattened strict upper triangle
    of the raw connectivity, or the encoder's graph-level features."""
    if which == "raw-upper-triangle":
        feats = np.vstack([upper_triangle(s.fcn.values) for s in dataset.subjects])
    elif which == "encoded":
        if model is None:
            raise ValueError("encoded export needs a model checkpoint")
        feats = _encode_cohort(model, dataset).data
    else:
        raise ValueError(f"unknown export mode {which!r}")
    header = ("subject_id", "site", "label") + tuple(f"f{i}" for i in range(feats.shape[1]))
    return FeatureTable(
        header=header,
        subject_ids=tuple(s.subject_id for s in dataset.subjects),
        sites=tuple(s.site_id for s in dataset.subjects),
        labels=tuple(s.label for s in dataset.subjects),
        features=feats,
    )


# ---------------------------------------------------------------------------
# graph-metric baselines


@dataclass(frozen=True)
class BinaryGraph:
    """Symmetric 0/1 adjacency with an empty diagonal."""

    adjacency: np.ndarray
    density: float

    def __post_init__(self):
        a = np.asarray(self.adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be square")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.diag(a).any():
            raise ValueError("adjacency must have a zero diagonal")
        if not np.isin(a, (0, 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        object.__setattr__(self, "adjacency", a.astype(np.int8))

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    def neighbors(self, v: int) -> np.ndarray:
        return np.flatnonzero(self.adjacency[v])


def binarize_fcn(fcn: ConnectivityMatrix, density: float) -> BinaryGraph:
    """Keep the strongest edges by signed connectivity value.

    Retains ceil(density * N(N-1)/2) edges; ties resolve in (i, j) order.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    n = fcn.n_rois
    iu, ju = np.triu_indices(n, k=1)
    order = sorted(range(iu.size),
                   key=lambda k: (-fcn.values[iu[k], ju[k]], int(iu[k]), int(ju[k])))
    n_keep = int(np.ceil(density * iu.size))
    adj = np.zeros((n, n), dtype=np.int8)
    for k in order[:n_keep]:
        adj[iu[k], ju[k]] = adj[ju[k], iu[k]] = 1
    return BinaryGraph(adjacency=adj, density=n_keep / iu.size)


def betweenness_centrality(g: BinaryGraph) -> np.ndarray:
    """Unnormalized betweenness with each unordered pair counted once
    (Brandes accumulation over BFS shortest-path DAGs, halved)."""
    n = g.n_nodes
    adj = [g.neighbors(v) for v in range(n)]
    bc = np.zeros(n)
    for s in range(n):
        dist = np.full(n, -1)
        sigma = np.zeros(n)
        preds: list[list[int]] = [[] for _ in range(n)]
        order: list[int] = []
        dist[s] = 0
        sigma[s] = 1.0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(n)
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    return bc / 2.0


def local_efficiency(g: BinaryGraph) -> np.ndarray:
    """Mean inverse shortest-path length inside each node's neighbour
    subgraph (node excluded); unreachable pairs contribute zero."""
    n = g.n_nodes
    out = np.zeros(n)
    for v in range(n):
        nbrs = g.neighbors(v)
        k = nbrs.size
        if k < 2:
            continue
        sub = g.adjacency[np.ix_(nbrs, nbrs)]
        total = 0.0
        for a in range(k):
            # BFS within the neighbour subgraph
            dist = np.full(k, -1)
            dist[a] = 0
            queue = deque([a])
            while queue:
                u = queue.popleft()
                for w in np.flatnonzero(sub[u]):
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        queue.append(w)
            for b in range(k):
                if b != a and dist[b] > 0:
                    total += 1.0 / dist[b]
        out[v] = total / (k * (k - 1))
    return out


# ---------------------------------------------------------------------------
# linear probe


def linear_probe(train_features, train_labels, test_features,
                 n_iters: int = 500, lr: float = 0.1):
    """Logistic-loss linear classifier, full-batch gradient descent from a
    zero start; features standardized by the training mean/std. Returns
    (predicted labels, positive-class scores) for the held-out features."""
    x = np.asarray(train_features, dtype=float)
    y = np.asarray(list(train_labels), dtype=float)
    xt = np.asarray(test_features, dtype=float)
    if x.ndim != 2 or xt.ndim != 2 or x.shape[1] != xt.shape[1]:
        raise ValueError("feature dimensions must agree")
    if x.shape[0] != y.size:
        raise ValueError("one label per training row required")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    live = std > 0
    if not live.all():
        warnings.warn(f"dropping {int((~live).sum())} zero-variance feature columns")
    xs = (x[:, live] - mean[live]) / std[live]
    xts = (xt[:, live] - mean[live]) / std[live]
    w = np.zeros(xs.shape[1])
    b = 0.0
    for _ in range(n_iters):
        p = 1.0 / (1.0 + np.exp(-(xs @ w + b)))
        err = p - y
        w -= lr * (xs.T @ err) / xs.shape[0]
        b -= lr * err.mean()
    scores = 1.0 / (1.0 + np.exp(-(xts @ w + b)))
    return (scores > 0.5).astype(int), scores
