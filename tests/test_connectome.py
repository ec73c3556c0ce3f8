import json
import math

import numpy as np
import pytest

from aufa.connectome import (ConnectivityMatrix, DataError, SiteSpec, TimeSeries,
                             load_dataset, load_timeseries, pearson_fcn,
                             save_dataset, synth_multisite, write_csv_matrix)
from aufa.evalreport import linear_probe, upper_triangle


def pearson_scalar_oracle(x, y):
    mx = sum(x) / len(x)
    my = sum(y) / len(y)
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = math.sqrt(sum((a - mx) ** 2 for a in x))
    dy = math.sqrt(sum((b - my) ** 2 for b in y))
    return num / (dx * dy)


# ---------------------------------------------------------------------------
# time-series loading


def test_load_timeseries_basic(tmp_path):
    p = tmp_path / "subj.csv"
    p.write_text("1,2\n2,4\n3,6\n")
    ts = load_timeseries(p)
    assert ts.n_timepoints == 3
    assert ts.n_rois == 2
    assert ts.subject_id == "subj"
    assert np.array_equal(ts.values, [[1, 2], [2, 4], [3, 6]])


def test_load_timeseries_ragged(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2,3\n4,5\n6,7,8\n")
    with pytest.raises(DataError, match="ragged"):
        load_timeseries(p)


def test_load_timeseries_non_numeric(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\nabc,4\n5,6\n")
    with pytest.raises(DataError, match="non-numeric.*'abc'"):
        load_timeseries(p)


def test_load_timeseries_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_timeseries(tmp_path / "nope.csv")


def test_load_timeseries_too_short(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("1,2\n3,4\n")
    with pytest.raises(DataError, match="3 time points") as exc:
        load_timeseries(p)
    assert str(p) in str(exc.value)


def test_timeseries_validation():
    with pytest.raises(DataError):
        TimeSeries("s", np.ones((5, 1)))
    with pytest.raises(DataError):
        TimeSeries("s", np.array([[1.0, np.nan]] * 3))


# ---------------------------------------------------------------------------
# pearson construction


def test_pearson_perfect_positive():
    ts = TimeSeries("s", np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))
    fcn = pearson_fcn(ts)
    assert fcn.values[0, 1] == 1.0


def test_pearson_perfect_negative():
    ts = TimeSeries("s", np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]]))
    fcn = pearson_fcn(ts)
    assert fcn.values[0, 1] == -1.0


def test_pearson_half():
    ts = TimeSeries("s", np.array([[1.0, 1.0], [2.0, 3.0], [3.0, 2.0]]))
    fcn = pearson_fcn(ts)
    assert abs(fcn.values[0, 1] - 0.5) < 1e-12
    assert abs(pearson_scalar_oracle([1, 2, 3], [1, 3, 2]) - 0.5) < 1e-12


def test_pearson_constant_column_raises():
    ts = TimeSeries("s", np.array([[1.0, 5.0, 1.0], [2.0, 5.0, 2.0], [3.0, 5.0, 9.0]]))
    with pytest.raises(DataError, match="column 1"):
        pearson_fcn(ts)


def test_pearson_matches_scalar_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(20, 8))
        fcn = pearson_fcn(TimeSeries(f"s{seed}", x))
        for i in range(8):
            for j in range(8):
                expect = 1.0 if i == j else pearson_scalar_oracle(
                    x[:, i].tolist(), x[:, j].tolist())
                assert abs(fcn.values[i, j] - expect) < 1e-10


def test_pearson_affine_invariance():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(30, 6))
    base = pearson_fcn(TimeSeries("a", x)).values
    slopes = rng.uniform(0.1, 5.0, size=6)
    offsets = rng.uniform(-10.0, 10.0, size=6)
    rescaled = pearson_fcn(TimeSeries("b", x * slopes + offsets)).values
    assert np.abs(base - rescaled).max() <= 1e-9


def test_pearson_invariants_hold():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(15, 10))
    fcn = pearson_fcn(TimeSeries("s", x))
    v = fcn.values
    assert np.abs(v - v.T).max() <= 1e-12
    assert (np.diag(v) == 1.0).all()
    assert (np.abs(v) <= 1.0).all()


def test_connectivity_matrix_validation():
    with pytest.raises(DataError, match="symmetric"):
        ConnectivityMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(DataError, match="diagonal"):
        ConnectivityMatrix(np.array([[0.9, 0.0], [0.0, 1.0]]))
    with pytest.raises(DataError, match=r"\[-1, 1\]"):
        ConnectivityMatrix(np.array([[1.0, 1.5], [1.5, 1.0]]))


# ---------------------------------------------------------------------------
# synthetic generation


def small_specs(**overrides):
    base = dict(n_subjects_per_class=20, n_rois=10, series_length=80,
                class_separation=0.8, noise_std=0.5, seed=3)
    base.update(overrides)
    source = SiteSpec(**base)
    target = SiteSpec(**{**base, "seed": base["seed"] + 1,
                         "shift_rotation_strength": 0.4,
                         "shift_offset_strength": 0.3})
    return source, target


def test_synth_deterministic():
    s1, t1 = synth_multisite(*small_specs())
    s2, t2 = synth_multisite(*small_specs())
    for d1, d2 in ((s1, s2), (t1, t2)):
        assert [r.subject_id for r in d1.subjects] == [r.subject_id for r in d2.subjects]
        assert [r.label for r in d1.subjects] == [r.label for r in d2.subjects]
        for a, b in zip(d1.subjects, d2.subjects):
            assert np.array_equal(a.fcn.values, b.fcn.values)


def test_synth_shapes_and_labels():
    source, target = synth_multisite(*small_specs())
    assert len(source) == 40 and len(target) == 40
    assert source.n_rois == 10
    assert sorted({r.label for r in source.subjects}) == [0, 1]
    assert all(r.site_id == "target" for r in target.subjects)


def test_synth_zero_separation_probe_is_chance():
    accs = []
    for seed in range(5):
        spec = SiteSpec(n_subjects_per_class=60, n_rois=12, series_length=100,
                        class_separation=0.0, noise_std=0.5, seed=seed)
        source, _ = synth_multisite(spec, SiteSpec(
            n_subjects_per_class=2, n_rois=12, series_length=100,
            class_separation=0.0, noise_std=0.5, seed=seed + 100))
        feats = np.vstack([upper_triangle(r.fcn.values) for r in source.subjects])
        labels = np.array([r.label for r in source.subjects])
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(labels))
        train, test = order[:80], order[80:]
        pred, _ = linear_probe(feats[train], labels[train], feats[test])
        accs.append((pred == labels[test]).mean())
    assert abs(np.mean(accs) - 0.5) <= 0.05


def test_synth_zero_shift_means_agree():
    spec_kwargs = dict(n_subjects_per_class=50, n_rois=10, series_length=120,
                       class_separation=0.5, noise_std=0.5)
    source, target = synth_multisite(SiteSpec(seed=11, **spec_kwargs),
                                     SiteSpec(seed=12, **spec_kwargs))
    fs = np.stack([r.fcn.values for r in source.subjects])
    ft = np.stack([r.fcn.values for r in target.subjects])
    iu, ju = np.triu_indices(10, k=1)
    zs = []
    for i, j in zip(iu, ju):
        a, b = fs[:, i, j], ft[:, i, j]
        se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        zs.append(abs(a.mean() - b.mean()) / se)
    zs = np.array(zs)
    # two-sample agreement: ~99.7% of entries expected within 3 SE
    assert (zs <= 3.0).mean() >= 0.99


def test_sitespec_validation():
    with pytest.raises(DataError):
        SiteSpec(n_subjects_per_class=5, n_rois=1)
    with pytest.raises(DataError):
        SiteSpec(n_subjects_per_class=5, noise_std=-0.1)


# ---------------------------------------------------------------------------
# manifests


def write_series(path, values):
    write_csv_matrix(np.asarray(values, dtype=float), path)


def test_load_dataset_order_preserved(tmp_path):
    write_series(tmp_path / "a.csv", [[1, 2], [2, 1], [3, 5], [4, 3]])
    write_series(tmp_path / "b.csv", [[5, 1], [1, 2], [2, 8], [0, 1]])
    manifest = {"n_rois": 2, "subjects": [
        {"id": "b", "path": "b.csv", "kind": "timeseries", "label": 1, "site": "x"},
        {"id": "a", "path": "a.csv", "kind": "timeseries", "label": 0, "site": "x"},
    ]}
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    ds = load_dataset(mpath)
    assert [r.subject_id for r in ds.subjects] == ["b", "a"]
    assert [r.label for r in ds.subjects] == [1, 0]


def test_load_dataset_missing_file(tmp_path):
    manifest = {"n_rois": 2, "subjects": [
        {"id": "a", "path": "gone.csv", "kind": "timeseries", "label": 0, "site": "x"}]}
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="gone.csv"):
        load_dataset(mpath)


def test_load_dataset_dimension_mismatch(tmp_path):
    write_series(tmp_path / "a.csv", [[1, 2], [2, 1], [3, 5]])
    write_series(tmp_path / "b.csv", [[5, 1, 2], [1, 2, 0], [2, 8, 1]])
    manifest = {"n_rois": 2, "subjects": [
        {"id": "a", "path": "a.csv", "kind": "timeseries", "label": 0, "site": "x"},
        {"id": "b", "path": "b.csv", "kind": "timeseries", "label": 1, "site": "x"},
    ]}
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="dimension mismatch"):
        load_dataset(mpath)


def test_load_dataset_duplicate_id(tmp_path):
    write_series(tmp_path / "a.csv", [[1, 2], [2, 1], [3, 5]])
    manifest = {"n_rois": 2, "subjects": [
        {"id": "a", "path": "a.csv", "kind": "timeseries", "label": 0, "site": "x"},
        {"id": "a", "path": "a.csv", "kind": "timeseries", "label": 1, "site": "x"},
    ]}
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="duplicate"):
        load_dataset(mpath)


def test_save_and_reload_roundtrip(tmp_path):
    source, _ = synth_multisite(*small_specs())
    mpath = save_dataset(source, tmp_path / "ds")
    reloaded = load_dataset(mpath)
    assert len(reloaded) == len(source)
    for a, b in zip(source.subjects, reloaded.subjects):
        assert a.subject_id == b.subject_id
        assert a.label == b.label
        assert np.array_equal(a.fcn.values, b.fcn.values)
