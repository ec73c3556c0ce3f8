import warnings
from collections import deque

import numpy as np
import pytest

from aufa.connectome import ConnectivityMatrix, SiteSpec, synth_multisite
from aufa.evalreport import (BinaryGraph, aggregate_attention, attention_maps, auc,
                             betweenness_centrality, binarize_fcn,
                             evaluate_model, export_features, full_report,
                             hard_metrics, linear_probe, local_efficiency,
                             predict_dataset, upper_triangle)
from aufa.model import build_model


# ---------------------------------------------------------------------------
# hard metrics


def test_metrics_perfect():
    rep = hard_metrics([1, 0, 1, 0], [1, 0, 1, 0])
    assert (rep.accuracy, rep.precision, rep.recall, rep.f1) == (1.0, 1.0, 1.0, 1.0)
    assert rep.flags == ()


def test_metrics_all_negative_predictions():
    rep = hard_metrics([0, 0, 0, 0], [1, 0, 1, 0])
    assert rep.precision == 0.0
    assert rep.recall == 0.0
    assert "precision_undefined" in rep.flags
    assert "f1_undefined" in rep.flags


def test_metrics_hand_counted_case():
    # TP=3, FP=1, TN=4, FN=2
    pred = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    true = [1, 1, 1, 0, 1, 1, 0, 0, 0, 0]
    rep = hard_metrics(pred, true)
    assert (rep.tp, rep.fp, rep.tn, rep.fn) == (3, 1, 4, 2)
    assert rep.accuracy == 0.7
    assert rep.precision == 0.75
    assert rep.recall == 0.6
    assert abs(rep.f1 - 2.0 / 3.0) < 1e-15


def test_metrics_recomputable_from_counts():
    rng = np.random.default_rng(0)
    for _ in range(10):
        pred = rng.integers(0, 2, 30)
        true = rng.integers(0, 2, 30)
        rep = hard_metrics(pred, true)
        assert rep.tp + rep.fp + rep.tn + rep.fn == rep.n_subjects == 30
        assert rep.accuracy == (rep.tp + rep.tn) / 30
        if rep.tp + rep.fp:
            assert rep.precision == rep.tp / (rep.tp + rep.fp)
        if rep.tp + rep.fn:
            assert rep.recall == rep.tp / (rep.tp + rep.fn)


def test_metrics_errors():
    with pytest.raises(ValueError, match="length"):
        hard_metrics([1, 0], [1])
    with pytest.raises(ValueError, match="empty"):
        hard_metrics([], [])


# ---------------------------------------------------------------------------
# auc


def auc_pair_oracle(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def test_auc_separated():
    assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auc_all_ties():
    assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_auc_examples():
    assert auc([0.9, 0.4, 0.6], [1, 0, 1]) == 1.0
    # frozen from the exhaustive pair-counting oracle: both positives score
    # below the single negative, so no pair is won
    assert auc_pair_oracle([0.4, 0.9, 0.6], [1, 0, 1]) == 0.0
    assert auc([0.4, 0.9, 0.6], [1, 0, 1]) == 0.0


def test_auc_matches_pair_counting_exactly():
    rng = np.random.default_rng(1)
    for trial in range(30):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = np.round(rng.uniform(0, 1, n), 1)  # coarse grid forces ties
        assert auc(scores, labels) == auc_pair_oracle(scores.tolist(), labels.tolist())


def test_auc_single_class_rejected():
    with pytest.raises(ValueError, match="both classes"):
        auc([0.1, 0.9], [1, 1])


# ---------------------------------------------------------------------------
# attention aggregation


def one_map(m):
    """One subject's attention: a single (layer, head) map."""
    return np.asarray(m, dtype=float)[None, None]


def test_aggregate_single_map_hand_case():
    m = [[0.2, 0.5, 0.3], [0.1, 0.2, 0.7], [0.6, 0.2, 0.2]]
    ranking = aggregate_attention(one_map(m))
    # symmetrized: (0,1)=0.3, (0,2)=0.45, (1,2)=0.45; tie broken by (i,j)
    assert ranking.entries[0][:2] == (0, 2)
    assert ranking.entries[0][2] == pytest.approx(0.45, abs=1e-12)
    assert ranking.entries[1][:2] == (1, 2)
    assert ranking.entries[1][2] == pytest.approx(0.45, abs=1e-12)
    assert ranking.entries[2][2] == pytest.approx(0.3, abs=1e-12)
    top2 = {(i, j) for i, j, _ in ranking.top(2)}
    assert top2 == {(0, 2), (1, 2)}


def test_aggregate_identical_maps_rank_symmetrized_entries():
    rng = np.random.default_rng(2)
    raw = rng.uniform(0.1, 1.0, size=(4, 4))
    m = raw / raw.sum(axis=1, keepdims=True)
    ranking = aggregate_attention(np.concatenate([one_map(m)] * 3))
    sym = (m + m.T) / 2.0
    weights = sorted((sym[i, j] for i in range(4) for j in range(i + 1, 4)),
                     reverse=True)
    assert [w for _, _, w in ranking.entries] == pytest.approx(weights)
    assert all(i < j for i, j, _ in ranking.entries)


def test_aggregate_subject_order_invariant():
    rng = np.random.default_rng(3)
    maps = []
    for _ in range(4):
        raw = rng.uniform(0.1, 1.0, size=(5, 5))
        maps.append(one_map(raw / raw.sum(axis=1, keepdims=True)))
    a = aggregate_attention(np.concatenate(maps))
    b = aggregate_attention(np.concatenate(maps[::-1]))
    assert a.entries == b.entries


def test_aggregate_head_order_invariant():
    rng = np.random.default_rng(4)
    raw1 = rng.uniform(0.1, 1.0, size=(4, 4))
    raw2 = rng.uniform(0.1, 1.0, size=(4, 4))
    m1 = raw1 / raw1.sum(axis=1, keepdims=True)
    m2 = raw2 / raw2.sum(axis=1, keepdims=True)
    a = np.stack([m1, m2])[None]
    b = np.stack([m2, m1])[None]
    assert aggregate_attention(a).entries == aggregate_attention(b).entries


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        aggregate_attention(np.zeros((0, 1, 3, 3)))
    with pytest.raises(ValueError, match="non-empty"):
        aggregate_attention(np.eye(3))


def test_ranking_weights_nonincreasing():
    rng = np.random.default_rng(5)
    raw = rng.uniform(0.1, 1.0, size=(6, 6))
    ranking = aggregate_attention(one_map(raw / raw.sum(axis=1, keepdims=True)))
    ws = [w for _, _, w in ranking.entries]
    assert all(a >= b for a, b in zip(ws, ws[1:]))


# ---------------------------------------------------------------------------
# feature export


def tiny_dataset(seed=0, n_rois=4, per_class=3):
    spec = dict(n_subjects_per_class=per_class, n_rois=n_rois, series_length=50,
                class_separation=0.5, noise_std=0.5)
    source, _ = synth_multisite(SiteSpec(seed=seed, **spec),
                                SiteSpec(seed=seed + 9, **spec))
    return source


def test_raw_export_shape():
    ds = tiny_dataset(n_rois=4)
    table = export_features(ds, "raw-upper-triangle")
    assert table.features.shape == (6, 6)  # N(N-1)/2 = 6 for N=4
    assert table.header[:3] == ("subject_id", "site", "label")


def test_upper_triangle_round_trip():
    rng = np.random.default_rng(6)
    a = rng.uniform(-1, 1, size=(5, 5))
    sym = (a + a.T) / 2
    np.fill_diagonal(sym, 1.0)
    tri = upper_triangle(sym)
    rebuilt = np.eye(5)
    iu, ju = np.triu_indices(5, k=1)
    rebuilt[iu, ju] = tri
    rebuilt[ju, iu] = tri
    assert np.array_equal(rebuilt, sym)


def test_encoded_export_matches_direct_encode():
    from aufa.encoder import encode

    ds = tiny_dataset(n_rois=5)
    model = build_model(5, 2, 2, 8, 8, 1e-5, seed=3)
    table = export_features(ds, "encoded", model)
    for row, rec in zip(table.features, ds.subjects):
        assert np.array_equal(row, encode([rec.fcn], model).data[0])


def test_eval_stacks_give_the_same_bits_at_any_size(monkeypatch):
    """predict_dataset, the encoded export and the attention maps do not
    depend on how many subjects share an encoder stack: 1, 4 (a ragged last
    stack) or all 6."""
    import aufa.evalreport as er

    ds = tiny_dataset(n_rois=5)
    model = build_model(5, 2, 2, 8, 8, 1e-5, seed=13)
    stacks = []
    for name in ("encode", "attention"):
        original = getattr(er, name)
        monkeypatch.setattr(er, name, lambda xs, *a, original=original, **kw:
                            stacks.append(len(xs)) or original(xs, *a, **kw))
    runs = []
    for size in (1, 4, len(ds)):
        monkeypatch.setattr(er, "EVAL_BUDGET", size * 5 * 5)
        stacks.clear()
        labels, scores = predict_dataset(model, ds)
        feats = export_features(ds, "encoded", model).features
        maps = attention_maps(model, ds)
        assert stacks == 3 * [min(size, len(ds) - i) for i in range(0, len(ds), size)]
        runs.append((labels, scores, feats, maps))
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert np.array_equal(got, want) and got.dtype == want.dtype
            if got.dtype == np.float64:
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_eval_budget_is_four_subjects_at_116_rois_and_a_cohort_at_16():
    from aufa.evalreport import EVAL_BUDGET

    assert EVAL_BUDGET // 116 ** 2 == 4
    assert EVAL_BUDGET // 16 ** 2 >= 150


def test_encoded_export_requires_model():
    with pytest.raises(ValueError, match="checkpoint"):
        export_features(tiny_dataset(), "encoded")
    with pytest.raises(ValueError, match="unknown export mode"):
        export_features(tiny_dataset(), "bogus")


def test_feature_csv_format(tmp_path):
    ds = tiny_dataset(n_rois=4)
    table = export_features(ds, "raw-upper-triangle")
    path = tmp_path / "features.csv"
    table.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("subject_id,site,label,f0")
    assert len(lines) == len(ds) + 1


# ---------------------------------------------------------------------------
# binarization


def sym_fcn(values):
    v = np.asarray(values, dtype=float)
    np.fill_diagonal(v, 1.0)
    return ConnectivityMatrix((v + v.T) / 2)


def test_binarize_full_density():
    fcn = tiny_dataset(n_rois=5).subjects[0].fcn
    g = binarize_fcn(fcn, 1.0)
    expect = np.ones((5, 5), dtype=np.int8) - np.eye(5, dtype=np.int8)
    assert np.array_equal(g.adjacency, expect)
    assert g.density == 1.0


def test_binarize_keeps_single_strongest():
    v = np.array([[1.0, 0.9, -0.2, 0.1],
                  [0.9, 1.0, 0.3, -0.5],
                  [-0.2, 0.3, 1.0, 0.6],
                  [0.1, -0.5, 0.6, 1.0]])
    g = binarize_fcn(ConnectivityMatrix(v), 1e-9)
    assert g.adjacency.sum() == 2  # one undirected edge
    assert g.adjacency[0, 1] == 1 and g.adjacency[1, 0] == 1


def test_binarize_tie_lexicographic():
    v = np.full((4, 4), 0.5)
    np.fill_diagonal(v, 1.0)
    g1 = binarize_fcn(ConnectivityMatrix(v), 0.34)  # ceil(0.34*6)=3 edges
    g2 = binarize_fcn(ConnectivityMatrix(v), 0.34)
    assert np.array_equal(g1.adjacency, g2.adjacency)
    kept = {(i, j) for i in range(4) for j in range(i + 1, 4) if g1.adjacency[i, j]}
    assert kept == {(0, 1), (0, 2), (0, 3)}  # first three pairs in (i,j) order


def test_binarize_rejects_bad_density():
    fcn = tiny_dataset(n_rois=4).subjects[0].fcn
    for d in (0.0, -0.5, 1.2):
        with pytest.raises(ValueError, match="density"):
            binarize_fcn(fcn, d)


def test_binary_graph_validation():
    with pytest.raises(ValueError, match="symmetric"):
        BinaryGraph(np.array([[0, 1], [0, 0]]), density=0.5)
    with pytest.raises(ValueError, match="diagonal"):
        BinaryGraph(np.eye(2, dtype=int), density=0.5)


# ---------------------------------------------------------------------------
# graph metrics


def graph_from_edges(n, edges):
    adj = np.zeros((n, n), dtype=np.int8)
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1
    return BinaryGraph(adjacency=adj, density=len(edges) / (n * (n - 1) / 2))


def bc_brute_force(g: BinaryGraph) -> np.ndarray:
    """Enumerate every shortest path explicitly; count pass-throughs."""
    n = g.n_nodes
    adj = [set(np.flatnonzero(g.adjacency[v])) for v in range(n)]

    def bfs_dist(s):
        dist = {s: 0}
        q = deque([s])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return dist

    def all_shortest_paths(s, t, d):
        paths = []

        def extend(path):
            u = path[-1]
            if len(path) - 1 == d:
                if u == t:
                    paths.append(list(path))
                return
            for w in adj[u]:
                if w not in path:
                    path.append(w)
                    extend(path)
                    path.pop()

        extend([s])
        return paths

    bc = np.zeros(n)
    for s in range(n):
        dist = bfs_dist(s)
        for t in range(s + 1, n):
            if t not in dist:
                continue
            paths = all_shortest_paths(s, t, dist[t])
            sigma = len(paths)
            for v in range(n):
                if v in (s, t):
                    continue
                through = sum(1 for p in paths if v in p)
                bc[v] += through / sigma
    return bc


def le_brute_force(g: BinaryGraph) -> np.ndarray:
    """Floyd-Warshall inside each neighbourhood subgraph."""
    n = g.n_nodes
    out = np.zeros(n)
    for v in range(n):
        nbrs = list(np.flatnonzero(g.adjacency[v]))
        k = len(nbrs)
        if k < 2:
            continue
        dist = np.full((k, k), np.inf)
        np.fill_diagonal(dist, 0.0)
        for a in range(k):
            for b in range(k):
                if a != b and g.adjacency[nbrs[a], nbrs[b]]:
                    dist[a, b] = 1.0
        for m in range(k):
            for a in range(k):
                for b in range(k):
                    if dist[a, m] + dist[m, b] < dist[a, b]:
                        dist[a, b] = dist[a, m] + dist[m, b]
        total = sum(1.0 / dist[a, b] for a in range(k) for b in range(k)
                    if a != b and np.isfinite(dist[a, b]))
        out[v] = total / (k * (k - 1))
    return out


def test_bc_path_graph():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assert betweenness_centrality(g).tolist() == [0.0, 1.0, 0.0]


def test_bc_star_graph():
    g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert betweenness_centrality(g).tolist() == [6.0, 0.0, 0.0, 0.0, 0.0]


def test_le_triangle():
    g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert local_efficiency(g).tolist() == [1.0, 1.0, 1.0]


def test_le_path_center_zero():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    le = local_efficiency(g)
    assert le[1] == 0.0
    assert le[0] == 0.0 and le[2] == 0.0  # single-neighbour nodes


def random_graph(rng, n, p):
    adj = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < p:
                adj[i, j] = adj[j, i] = 1
    return BinaryGraph(adjacency=adj, density=float(adj.sum() / (n * (n - 1))))


def test_graph_metrics_match_brute_force():
    networkx = pytest.importorskip("networkx")
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 20:
        n = int(rng.integers(4, 13))
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        bc = betweenness_centrality(g)
        assert np.abs(bc - bc_brute_force(g)).max() < 1e-9
        assert np.abs(local_efficiency(g) - le_brute_force(g)).max() < 1e-12
        nxg = networkx.from_numpy_array(g.adjacency)
        nx_bc = networkx.betweenness_centrality(nxg, normalized=False)
        assert np.abs(bc - np.array([nx_bc[i] for i in range(n)])).max() < 1e-9
        checked += 1


# ---------------------------------------------------------------------------
# linear probe


def test_probe_separated_features():
    x_train = np.array([[v] for v in (-3.0, -2.0, -1.5, 1.5, 2.0, 3.0)])
    y_train = [0, 0, 0, 1, 1, 1]
    x_test = np.array([[-2.5], [2.5], [-1.0], [1.0]])
    pred, scores = linear_probe(x_train, y_train, x_test)
    assert pred.tolist() == [0, 1, 0, 1]
    assert scores[1] > 0.5 > scores[0]


def test_probe_permuted_labels_near_chance():
    accs = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(120, 10))
        y = rng.integers(0, 2, 120)
        y_perm = rng.permutation(y)
        pred, _ = linear_probe(x[:80], y_perm[:80], x[80:])
        accs.append((pred == y_perm[80:]).mean())
    assert abs(np.mean(accs) - 0.5) <= 0.1


def test_probe_duplicated_columns_stable():
    # paired-run comparison: at the fixed 500-iteration budget the scores
    # agree to ~1e-2 (exact agreement would need full convergence); the
    # predicted labels are unchanged
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(200, 3))
        w = rng.normal(size=3)
        y = (x @ w + 0.5 * rng.normal(size=200) > 0).astype(int)
        x_test = rng.normal(size=(50, 3))
        p1, s1 = linear_probe(x, y, x_test)
        x_dup = np.hstack([x, x[:, :1]])
        xt_dup = np.hstack([x_test, x_test[:, :1]])
        p2, s2 = linear_probe(x_dup, y, xt_dup)
        assert np.abs(s1 - s2).max() <= 0.05
        decided = np.abs(s1 - 0.5) > 0.05  # away from the threshold band
        assert (p1[decided] == p2[decided]).all()


def test_probe_drops_constant_columns():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(40, 3))
    x[:, 1] = 7.0
    y = (x[:, 0] > 0).astype(int)
    with warnings.catch_warnings(record=True) as captured:
        warnings.simplefilter("always")
        pred, _ = linear_probe(x, y, x)
    assert any("zero-variance" in str(w.message) for w in captured)
    assert (pred == y).mean() > 0.9


def test_probe_shape_errors():
    with pytest.raises(ValueError, match="dimensions"):
        linear_probe(np.zeros((4, 3)), [0, 1, 0, 1], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="label"):
        linear_probe(np.zeros((4, 3)), [0, 1], np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# model-level evaluation


def test_evaluate_model_random_init_near_chance():
    spec = dict(n_subjects_per_class=40, n_rois=6, series_length=60,
                class_separation=0.6, noise_std=0.5)
    ds, _ = synth_multisite(SiteSpec(seed=1, **spec), SiteSpec(seed=2, **spec))
    model = build_model(6, 2, 2, 8, 8, 1e-5, seed=11)
    rep = evaluate_model(model, ds)
    assert 0.2 <= rep.accuracy <= 0.8
    assert rep.auc is not None
    assert rep.tp + rep.fp + rep.tn + rep.fn == len(ds)


def test_attention_maps_cover_every_subject():
    ds = tiny_dataset(n_rois=5)
    model = build_model(5, 2, 2, 8, 8, 1e-5, seed=12)
    maps = attention_maps(model, ds)
    assert maps.shape == (len(ds), 4, 5, 5)
    assert np.abs(maps.sum(axis=-1) - 1.0).max() <= 1e-9


def test_full_report_includes_auc():
    rep = full_report([1, 0, 1], [0.8, 0.3, 0.7], [1, 0, 0])
    assert rep.auc == auc([0.8, 0.3, 0.7], [1, 0, 0])


def test_report_dict_keeps_field_order_and_lists_flags():
    # one class only: AUC is undefined and flagged after the hard-metric flags
    rep = full_report([0, 0], [0.2, 0.4], [1, 1])
    d = rep.to_dict()
    assert list(d) == ["accuracy", "precision", "recall", "f1", "auc", "tp", "fp",
                       "tn", "fn", "n_subjects", "flags"]
    assert d["auc"] is None
    assert d["flags"] == ["precision_undefined", "f1_undefined", "auc_undefined"]
    base = hard_metrics([0, 0], [1, 1]).to_dict()
    assert {k: v for k, v in d.items() if k not in ("auc", "flags")} == \
        {k: v for k, v in base.items() if k not in ("auc", "flags")}
