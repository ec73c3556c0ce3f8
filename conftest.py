"""Pin BLAS to one thread per process before anything imports numpy, so
that `run_ablation` (criterion 9, the ledger's `ablate`) runs its seeds in
parallel, one process per usable core, and a cohort is read and encoded in
two processes (`parallel.default_workers`). An explicit setting in the
environment is kept.

Every test must reap the processes it starts: a child left running or
unreaped fails the test that left it."""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    # multiprocessing.active_children() cannot see a raw os.fork
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"pid {pid}, unreaped"
    pytest.fail(f"the test left a child process ({state})")
