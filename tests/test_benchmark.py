"""Seed-parallel ablation: the forked workers give the in-process loop's
results bit for bit, and leave no process behind (the root conftest fails
a test that leaves a child)."""

import functools
import multiprocessing
import os
import signal
import time
from dataclasses import replace

import pytest

from aufa import benchmark as bm
from aufa.cli import main
from aufa.connectome import Dataset, save_dataset, synth_multisite
from aufa.parallel import BLAS_THREAD_VARS, default_workers
from aufa.trainer import TrainConfig

CONFIG = TrainConfig(epochs_pretrain=1, epochs_adapt=1, batch_size=4, n_layers=1,
                     n_heads=2, ffn_hidden=8, clf_hidden=8, lr=1e-3)
ONE_CLASS = "source dataset must contain both classes"


@pytest.fixture(scope="module")
def data():
    source, target = bm.benchmark_site_specs(6, 6, seed=3)
    return synth_multisite(replace(source, n_rois=6), replace(target, n_rois=6))


def one_class(dataset: Dataset) -> Dataset:
    return Dataset(tuple(s for s in dataset.subjects if s.label == 0), dataset.n_rois)


def test_workers_match_in_process_bitwise(data):
    # three seeds on two workers: one worker runs two of them
    serial = bm.run_ablation(*data, CONFIG, seeds=(0, 1, 2), workers=1)
    parallel = bm.run_ablation(*data, CONFIG, seeds=(0, 1, 2), workers=2)
    assert parallel.seeds == serial.seeds == (0, 1, 2)
    assert parallel.table_rows() == serial.table_rows()
    assert parallel.reports == serial.reports


def test_one_worker_never_forks(data, monkeypatch):
    def no_fork():
        raise AssertionError("forked")
    monkeypatch.setattr(os, "fork", no_fork)
    result = bm.run_ablation(*data, CONFIG, seeds=(0, 1), workers=1)
    assert len(result.reports["AUFA"]) == 2


@pytest.mark.parametrize("env,cpus,n_seeds,expected", [
    ({}, 2, 5, 1), ({"OPENBLAS_NUM_THREADS": "1"}, 2, 5, 2),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 1, 1), ({"OMP_NUM_THREADS": "2"}, 8, 5, 4),
    ({"MKL_NUM_THREADS": "1"}, 4, 3, 3), ({"OPENBLAS_NUM_THREADS": "4"}, 2, 5, 1)],
    ids=["unpinned", "pinned-2-cpus", "one-seed", "omp-2-of-8", "mkl-3-seeds",
         "more-threads-than-cpus"])
def test_default_workers(monkeypatch, env, cpus, n_seeds, expected):
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert default_workers(n_seeds) == expected


def test_default_workers_without_affinity(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert default_workers(5) == 3


def test_default_workers_one_without_fork(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert default_workers(5) == 1


def test_default_workers_one_when_a_seed_function_is_wrapped(data, monkeypatch):
    # a call recorder in this process would miss a forked worker's calls
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    assert default_workers(5, bm.pretrain, bm.adapt) == 4
    wrapped = functools.wraps(bm.adapt)(lambda *a, **k: None)
    assert default_workers(5, bm.pretrain, wrapped) == 1
    # run_ablation asks about every function a seed runs, as bound at the call
    asked = []
    monkeypatch.setattr(bm, "adapt", wrapped)
    monkeypatch.setattr(bm, "default_workers", lambda n, *calls: asked.append(calls) or 1)
    bm.run_ablation(*data, CONFIG, seeds=(0,))
    assert asked == [(bm.pretrain, wrapped, bm.evaluate_model, bm.clone_model)]


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_seed_raises_and_leaves_no_process(data, workers):
    source, target = data
    with pytest.raises(ValueError, match=ONE_CLASS):
        bm.run_ablation(one_class(source), target, CONFIG, seeds=(0, 1, 2),
                        workers=workers)


def test_failing_seed_cancels_pending_seeds(data, tmp_path, monkeypatch):
    def seed_run(source, target, config, seed):
        (tmp_path / f"started-{seed}").touch()
        if seed == 0:
            raise ValueError("seed 0 failed")
        time.sleep(0.2)
        return []
    monkeypatch.setattr(bm, "_ablate_seed", seed_run)  # the forked workers inherit it
    with pytest.raises(ValueError, match="seed 0 failed"):
        bm.run_ablation(*data, CONFIG, seeds=range(12), workers=2)
    assert len(list(tmp_path.glob("started-*"))) < 12


def test_failing_seed_kills_running_seeds(data, monkeypatch):
    def seed_run(source, target, config, seed):
        time.sleep(0.5)  # seed 1 is running by now
        if seed == 0:
            raise ValueError("seed 0 failed")
        time.sleep(60)
    monkeypatch.setattr(bm, "_ablate_seed", seed_run)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="seed 0 failed"):
        bm.run_ablation(*data, CONFIG, seeds=(0, 1), workers=2)
    assert time.perf_counter() - t0 < 30


def test_killed_worker_raises_instead_of_hanging(data, monkeypatch):
    def seed_run(source, target, config, seed):
        if seed == 1:
            os.kill(os.getpid(), signal.SIGKILL)  # as the out-of-memory killer would
        time.sleep(0.5)
        return []
    monkeypatch.setattr(bm, "_ablate_seed", seed_run)
    with pytest.raises(ChildProcessError, match="^the forked worker was killed by SIGKILL$"):
        bm.run_ablation(*data, CONFIG, seeds=(0, 1, 2), workers=2)


TRAIN_FLAGS = ["--epochs-pretrain", "1", "--epochs-adapt", "1", "--batch-size", "4",
               "--n-layers", "1", "--n-heads", "2", "--ffn-hidden", "8",
               "--clf-hidden", "8", "--lr", "1e-3"]


@pytest.fixture
def manifests(data, tmp_path):
    save_dataset(data[0], tmp_path / "source")
    save_dataset(data[1], tmp_path / "target")
    return tuple(str(tmp_path / name / "manifest.json") for name in ("source", "target"))


def ablate(source, target, out, *extra):
    return main(["ablate", "--source", source, "--target", target, "--seeds", "0,1,2",
                 "--out", str(out), *TRAIN_FLAGS, *extra])


def test_cli_default_and_serial_write_the_same_files(manifests, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(bm, "default_workers", lambda n, *fns: calls.append(n) or 2)
    assert ablate(*manifests, tmp_path / "parallel") == 0
    assert ablate(*manifests, tmp_path / "serial", "--serial") == 0
    assert calls == [3]  # --serial never asks for a worker count
    # ablation.json, ablation.csv and a run manifest that does not record --serial
    trees = [{p.name: p.read_bytes() for p in (tmp_path / run).iterdir()}
             for run in ("parallel", "serial")]
    assert sorted(trees[0]) == ["ablation.csv", "ablation.json", "run_manifest.json"]
    assert trees[0] == trees[1]


def test_cli_failing_seed_same_error_either_way(data, tmp_path, monkeypatch, capsys):
    save_dataset(one_class(data[0]), tmp_path / "source")
    save_dataset(data[1], tmp_path / "target")
    source = str(tmp_path / "source" / "manifest.json")
    target = str(tmp_path / "target" / "manifest.json")
    monkeypatch.setattr(bm, "default_workers", lambda n, *fns: 2)
    errors = []
    for extra in ([], ["--serial"]):
        assert ablate(source, target, tmp_path / "out", *extra) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"error: {ONE_CLASS}\n"


def test_cli_killed_worker_exits_1(manifests, tmp_path, monkeypatch, capsys):
    def seed_run(source, target, config, seed):
        if seed == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return []
    monkeypatch.setattr(bm, "_ablate_seed", seed_run)
    monkeypatch.setattr(bm, "default_workers", lambda n, *fns: 2)
    assert ablate(*manifests, tmp_path / "out") == 1
    assert capsys.readouterr().err == "error: the forked worker was killed by SIGKILL\n"
