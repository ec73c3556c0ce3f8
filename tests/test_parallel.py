"""The two-process map: a forked child's half gives the one-process results
and errors bit for bit, and no process outlives a call."""

import functools
import json
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from aufa import evalreport as er
from aufa import parallel
from aufa.cli import main
from aufa.connectome import SiteSpec, load_dataset, save_dataset, synth_multisite, \
    write_csv_matrix
from aufa.model import build_model, save_checkpoint


@pytest.fixture
def forks(monkeypatch):
    """The pids `fork_map` forks, on two usable cores at one BLAS thread and
    with no work threshold, so that every map of two or more items forks."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(parallel, "FORK_MIN_WORK", 0)
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def test_fork_map_gives_the_one_process_results(forks):
    def fn(x):
        return np.full((2, 3), x / 7.0)

    got = parallel.fork_map(fn, range(7), 1)
    assert len(forks) == 1
    assert [a.tobytes() for a in got] == [fn(x).tobytes() for x in range(7)]
    assert no_child_left()


@pytest.mark.parametrize("case", ["below-threshold", "one-item", "thread-alive",
                                  "pool-worker", "wrapped-call", "blas-unpinned"])
def test_fork_map_stays_in_one_process(forks, monkeypatch, case):
    items, calls = range(4), ()
    if case == "below-threshold":
        monkeypatch.setattr(parallel, "FORK_MIN_WORK", 10)
    elif case == "pool-worker":
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: "the pool's parent")
    elif case == "one-item":
        items = [3]
    elif case == "wrapped-call":
        calls = (functools.wraps(abs)(lambda x: x),)
    elif case == "blas-unpinned":
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
    done = threading.Event()
    threads = [threading.Thread(target=done.wait)] if case == "thread-alive" else []
    for thread in threads:
        thread.start()
    try:
        assert parallel.fork_map(lambda x: x * x, items, 5, *calls) == [x * x for x in items]
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=10)
    assert forks == [] and not any(thread.is_alive() for thread in threads)


@pytest.mark.parametrize("bad,first", [({1}, 1), ({5}, 5), ({1, 5}, 1), ({5, 6}, 5)],
                         ids=["parent-half", "child-half", "both-halves", "two-in-child"])
def test_fork_map_raises_the_first_error_in_item_order(forks, bad, first):
    def fn(x):
        if x in bad:
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match=f"^item {first}$"):
        parallel.fork_map(fn, range(8), 1)  # items 4-7 are the child's
    assert len(forks) == 1 and no_child_left()


def test_killed_child_raises_instead_of_hanging(forks):
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)  # as the out-of-memory killer would
        return x

    with pytest.raises(ChildProcessError, match="killed by SIGKILL"):
        parallel.fork_map(fn, range(4), 1)
    assert no_child_left()


def test_child_that_exits_without_a_result_raises(forks):
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            os._exit(3)
        return x

    with pytest.raises(ChildProcessError, match="status 3 and no result"):
        parallel.fork_map(fn, range(4), 1)
    assert no_child_left()


def test_an_error_in_this_process_kills_the_child(forks):
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyError(x)

    t0 = time.perf_counter()
    with pytest.raises(KeyError):
        parallel.fork_map(fn, range(4), 1)
    assert time.perf_counter() - t0 < 30
    assert no_child_left()


def cohort(tmp_path, n_rois=8, per_class=5):
    spec = SiteSpec(n_subjects_per_class=per_class, n_rois=n_rois, series_length=40,
                    class_separation=0.8, seed=4)
    dataset, _ = synth_multisite(spec, SiteSpec(n_subjects_per_class=1, n_rois=n_rois))
    return save_dataset(dataset, tmp_path / "data")


def with_series(tmp_path, n=6):
    """A manifest of raw time series, the later half's in the child."""
    rng = np.random.default_rng(2)
    entries = []
    for k in range(n):
        write_csv_matrix(rng.standard_normal((30, 8)), tmp_path / f"ts{k}.csv")
        entries.append({"id": f"ts{k}", "path": f"ts{k}.csv", "kind": "timeseries",
                        "label": k % 2, "site": "a"})
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"n_rois": 8, "subjects": entries}))
    return path


def test_forked_cohort_has_the_one_process_bits(forks, tmp_path, monkeypatch):
    manifests = [cohort(tmp_path), with_series(tmp_path)]
    model = build_model(8, 2, 2, 8, 8, 1e-5, seed=5)
    monkeypatch.setattr(er, "EVAL_BUDGET", 3 * 8 * 8)  # 4 stacks, the last ragged

    def run():
        out = [np.stack([s.fcn.values for s in load_dataset(m).subjects]) for m in manifests]
        for s in load_dataset(manifests[0]).subjects:
            assert not s.fcn.values.flags.writeable
        ds = load_dataset(manifests[0])
        labels, scores = er.predict_dataset(model, ds)
        out += [np.array(labels), scores, er.export_features(ds, "encoded", model).features,
                er.attention_maps(model, ds)]
        return out

    forked = run()
    assert len(forks) == 7  # four loads and three stack maps
    monkeypatch.setattr(parallel, "FORK_MIN_WORK", 10 ** 12)
    serial = run()
    assert len(forks) == 7
    for got, want in zip(forked, serial):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert no_child_left()


def _bad_cell(manifest, k):
    entry = json.loads(manifest.read_text())["subjects"][k]
    (manifest.parent / entry["path"]).write_text("1,abc\n")


def _no_id(manifest, k):
    data = json.loads(manifest.read_text())
    del data["subjects"][k]["id"]
    manifest.write_text(json.dumps(data))


@pytest.mark.parametrize("edits,message", [
    ([(_bad_cell, 7)], "source_s0007.csv: non-numeric cell 'abc'"),
    ([(_bad_cell, 8), (_bad_cell, 2)], "source_s0002.csv: non-numeric cell 'abc'"),
    ([(_bad_cell, 9), (_no_id, 3)], "subject 3 lacks 'id'"),
], ids=["child-half", "both-halves", "manifest-before-csv"])
def test_bad_input_fails_as_in_one_process(forks, tmp_path, monkeypatch, capsys, edits,
                                           message):
    manifest = cohort(tmp_path)
    for edit, k in edits:
        edit(manifest, k)
    ckpt = tmp_path / "model.bin"
    save_checkpoint(build_model(8, 1, 2, 8, 8, 1e-5, seed=1), ckpt)
    errors = []
    for threshold in (0, 10 ** 12):
        monkeypatch.setattr(parallel, "FORK_MIN_WORK", threshold)
        out = tmp_path / f"out{threshold}"
        assert main(["eval", "--data", str(manifest), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 2
        assert not out.exists()
        errors.append(capsys.readouterr().err)
    assert len(forks) == 1
    assert errors[0] == errors[1] and message in errors[0]
