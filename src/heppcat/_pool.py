"""One warm worker pool per process, shared by the studies and the dataset CSV.

Every caller hands ``_map_tasks`` a list of independent tasks, and every
task runs on one BLAS thread, in a worker or in-process alike.  The BLAS
thread count changes rounding, and the pool returns results in task
order, so results do not depend on the pool size or on the core count.
The environment variable HEPPCAT_THREADS caps the pool (0 or unset uses
every CPU this process may run on; 1 runs serially in-process).

A process keeps one pool for its whole life: the first pooled call
makes it and later calls reuse its warm workers.  A call replaces it
when it has fewer workers than the call can use or more than
HEPPCAT_THREADS allows; a call that raises shuts it down, and the next
one starts a fresh pool.  Workers are forked when the pool first runs a
task, so they do not see a function patched into heppcat after that.
The pool is shut down at interpreter exit, before module teardown, so
its workers exit with the process.  A task that itself calls ``_map_tasks``
runs that call serially in its worker, so pools never nest.
"""

from __future__ import annotations

import atexit
import os
import threading

from . import _blas


def worker_count() -> int:
    """Pool size from HEPPCAT_THREADS (0 or unset means every CPU in this
    process's affinity mask)."""
    raw = os.environ.get("HEPPCAT_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"HEPPCAT_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ValueError("HEPPCAT_THREADS must be >= 0")
    if n > 0:
        return n
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# this process's worker pool as (pid, size, executor), or None; the pid
# keeps a forked child off its parent's pool
_pool = None
_pool_lock = threading.Lock()
# set in the pool's workers only
_in_worker = False


def _start_worker() -> None:
    global _in_worker
    _in_worker = True
    _blas.set_threads(1)


def _worker_pool(n: int, n_tasks: int) -> ProcessPoolExecutor:
    """The cached pool if it has between min(n, n_tasks) and n workers,
    else a new one of min(n, n_tasks) workers in its place."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            pid, size, pool = _pool
            if pid == os.getpid() and min(n, n_tasks) <= size <= n:
                return pool
            _pool = None
            if pid == os.getpid():
                pool.shutdown()
        # imported here, not at heppcat's import: it pulls in the
        # multiprocessing machinery, and most commands never start a pool
        from concurrent.futures import ProcessPoolExecutor

        size = min(n, n_tasks)
        pool = ProcessPoolExecutor(max_workers=size, initializer=_start_worker)
        _pool = (os.getpid(), size, pool)
        return pool


def _drop_pool(pool: ProcessPoolExecutor) -> None:
    """Forget ``pool`` if it is the cached one, and shut it down."""
    global _pool
    with _pool_lock:
        if _pool is not None and _pool[2] is pool:
            _pool = None
    pool.shutdown(cancel_futures=True)


@atexit.register
def _shutdown_at_exit() -> None:
    """Shut the cached pool down while every module is still whole; left
    to ``concurrent.futures``, it can be collected after module teardown
    has begun, which prints an ignored ``AttributeError``."""
    global _pool
    with _pool_lock:
        cached, _pool = _pool, None
    if cached is not None and cached[0] == os.getpid():
        cached[2].shutdown()


def _map_tasks(fn, tasks):
    """Run every task on one BLAS thread, serially or in the worker pool."""
    n = 1 if _in_worker else worker_count()
    if n == 1 or len(tasks) <= 1:
        with _blas.pinned(1):
            return [fn(t) for t in tasks]
    pool = _worker_pool(n, len(tasks))
    try:
        return list(pool.map(fn, tasks))
    except BaseException:
        # a task's error or a dead worker: never reuse a pool in that state
        _drop_pool(pool)
        raise
