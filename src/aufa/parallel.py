"""Worker counts, and the one map that splits a list between forked processes.

`default_workers` decides how many processes may share the usable cores,
and `fork_map` forks them: each child maps one contiguous run of the items
and pickles its results back through a pipe, as a pool's start-up and
queues cost more than a 30-file parse saves. `ablate`'s seeds run in
children only, so that the calling process's peak memory stays below one
seed's. A cohort's reading and encoding (`connectome.load_dataset`,
`evalreport`) use `cohort_map`, where the calling process maps the first
half itself, the faster split for maps that take milliseconds.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading

# Per-process BLAS thread limits, in the order OpenBLAS reads them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Input elements (subjects x regions^2) below which `cohort_map` stays in
# one process. On 2 cores with BLAS on one thread, a fork lost to one
# process below this size and broke even about here: reading 4 subjects at
# 116 regions (54k elements) took 20 ms in one process and 30 ms forked, 8
# subjects (108k) 42 and 34 ms, and 32 subjects (431k) 106 and 79 ms;
# encoding 2 stacks of 4 subjects took 20 and 22 ms, 8 stacks 79 and 54 ms.
FORK_MIN_WORK = 100_000

# Set in every child `fork_map` forks: its siblings hold the other cores,
# so a map nested in it runs in that child alone.
_in_child = False


def default_workers(n_tasks: int, *calls) -> int:
    """Processes for `n_tasks` independent tasks: as many as the usable
    cores hold at one process's BLAS thread count, and no more than there
    are tasks. With no limit set BLAS spreads over every core, so that is
    one: its threads spin, and a forked child cannot re-pin a BLAS already
    loaded. It is also one where `fork` is not available, and where one of
    `calls`, the functions a worker would run, has been wrapped in this
    process (`__wrapped__` set, as `functools.wraps` and perfbench's tracer
    set it): a wrapper that records calls would not see a forked worker's."""
    if ("fork" not in multiprocessing.get_all_start_methods()
            or any(hasattr(fn, "__wrapped__") for fn in calls)):
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    usable = len(affinity(0)) if affinity else os.cpu_count() or 1
    blas_threads = usable
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            blas_threads = int(value)
            break
    return max(1, min(n_tasks, usable // blas_threads))


def cohort_map(fn, items, work: int, *calls) -> list:
    """`fork_map` of a cohort's files or encoder stacks on at most two
    processes, this one mapping the first half; on this one alone when
    `work`, the input elements read, is below FORK_MIN_WORK, or where
    `default_workers(2, fn, *calls)` says so (`calls`: what `fn` runs)."""
    workers = default_workers(2, fn, *calls) if work >= FORK_MIN_WORK else 1
    return fork_map(fn, items, workers, keep_first=True)


def _fork(fn, run):
    """Fork a child that maps `run`, pickles back `(True, results)` or
    `(False, its first exception)` and exits without cleanup; its pid and
    the read end of its pipe."""
    global _in_child
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        _in_child, status = True, 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                try:
                    reply = (True, [fn(x) for x in run])
                except BaseException as exc:  # sent to be raised by the caller
                    reply = (False, exc)
                pickle.dump(reply, pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def fork_map(fn, items, workers: int, *, keep_first: bool) -> list:
    """`[fn(x) for x in items]` on `workers` processes, each mapping one
    contiguous run of `items`, the earlier runs one item longer where they
    do not divide evenly. With `keep_first` this process maps the first run
    and forks a child per other run; without it every run is a child's.

    With fewer than two workers or items, with another thread alive (a
    fork copies only the calling thread), or inside a `fork_map` child,
    everything runs here. The results are the same either way, as long as
    `fn` depends only on its item, and so is the exception raised: the
    first in item order. Every child is reaped. Once this process meets an
    error, in its own run or in a child's reply read in run order, it kills
    the children still running; a child that dies raises ChildProcessError
    naming the signal.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers < 2 or _in_child or threading.active_count() > 1:
        return [fn(x) for x in items]
    size, extra = divmod(len(items), workers)
    bounds = [k * size + min(k, extra) for k in range(workers + 1)]
    runs = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    children = []  # (pid, read end), in run order, until reaped
    try:
        for run in runs[1:] if keep_first else runs:
            children.append(_fork(fn, run))
        results = [fn(x) for x in runs[0]] if keep_first else []
        while children:
            pid, pipe = children[0]
            with pipe:
                try:
                    ok, reply = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # it died mid-write
                    ok = None
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            if ok is None:
                raise ChildProcessError("the forked worker " + (
                    f"was killed by {signal.Signals(os.WTERMSIG(status)).name}"
                    if os.WIFSIGNALED(status) else
                    f"exited with status {os.waitstatus_to_exitcode(status)} and no result"))
            if not ok:
                raise reply
            results += reply
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        for pid, pipe in children:
            os.waitpid(pid, 0)
            pipe.close()
        raise
    return results
