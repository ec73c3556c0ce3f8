"""Worker counts, and a map that splits a list between this process and one
forked child.

`default_workers` decides how many processes may share the usable cores:
`ablate`'s seed pool asks it for a worker count, and `fork_map` asks it
whether a second process is worth starting. `fork_map` serves the reading
and encoding of a cohort (`connectome.load_dataset`, `evalreport`); it
forks one child per call and talks to it through a pipe, because a pool's
start-up and queues cost more than a 30-file parse saves.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading

# Per-process BLAS thread limits, in the order OpenBLAS reads them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Input elements (subjects x regions^2) below which `fork_map` stays in one
# process. On 2 cores with BLAS on one thread, a fork lost to one process
# below this size and broke even about here: reading 4 subjects at 116
# regions (54k elements) took 20 ms in one process and 30 ms forked, 8
# subjects (108k) 42 and 34 ms, and 32 subjects (431k) 106 and 79 ms;
# encoding 2 stacks of 4 subjects took 20 and 22 ms, 8 stacks 79 and 54 ms.
FORK_MIN_WORK = 100_000


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


def fork_map(fn, items, work: int, *calls) -> list:
    """`[fn(x) for x in items]`, with the second half of `items` mapped by
    one forked child, which pickles its results back through a pipe, while
    this process maps the first half.

    `work` is the input elements the map reads; below FORK_MIN_WORK, with
    fewer than two items, with another thread alive (a fork copies only the
    calling thread), in a worker that `multiprocessing` started (its sibling
    workers hold the other cores), or where `default_workers(2, fn, *calls)`
    gives one process, everything runs here. `calls` are the functions `fn`
    reaches that a profiler may have wrapped. The results are the same
    either way, as long as `fn` depends only on its item, and so is the
    exception raised: the first in item order. The child is always reaped:
    it is killed if this process's half raises, and a child that dies
    raises ChildProcessError naming the signal.
    """
    items = list(items)
    if (len(items) < 2 or work < FORK_MIN_WORK or threading.active_count() > 1
            or multiprocessing.parent_process() is not None
            or default_workers(2, fn, *calls) < 2):
        return [fn(x) for x in items]
    half = (len(items) + 1) // 2
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: map the second half, send it, exit without cleanup
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                try:
                    reply = (True, [fn(x) for x in items[half:]])
                except BaseException as exc:  # sent to be raised by the caller
                    reply = (False, exc)
                pickle.dump(reply, pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            head = [fn(x) for x in items[:half]]
            try:
                reply = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                reply = None  # the child died before it finished writing
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status = os.waitpid(pid, 0)
    if reply is None:
        if os.WIFSIGNALED(status):
            raise ChildProcessError(f"the forked worker was killed by "
                                    f"{signal.Signals(os.WTERMSIG(status)).name}")
        raise ChildProcessError(f"the forked worker exited with status "
                                f"{os.waitstatus_to_exitcode(status)} and no result")
    ok, tail = reply
    if not ok:
        raise tail
    return head + tail
