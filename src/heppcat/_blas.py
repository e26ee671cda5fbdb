"""Thread counts of the OpenBLAS libraries loaded in this process.

numpy and scipy wheels each bundle their own OpenBLAS, and each sizes
its thread pool to the core count.  The sweep harness runs every task on
one BLAS thread: the matrices are too small to gain from threading, pool
workers would otherwise oversubscribe the cores, and the thread count
changes rounding, so pinning it makes rows independent of the pool size
and of the machine.  Libraries are found from ``/proc/self/maps``; where
that file or the thread-count symbols are missing, nothing is changed.
"""

from __future__ import annotations

import contextlib

# (get, set) symbol names: numpy/scipy wheel builds, then system builds;
# the 64_ suffix marks a 64-bit-integer interface
_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


def _openblas_handles() -> list:
    """(get, set) thread-count functions, one pair per loaded OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            fields = [line.split() for line in f]
    except OSError:
        return []
    paths = sorted(
        {p[5] for p in fields if len(p) >= 6 and "openblas" in p[5].rsplit("/", 1)[-1]}
    )
    handles = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                handles.append((get, set_))
                break
    return handles


def thread_counts() -> tuple:
    """Current thread count of each loaded OpenBLAS."""
    return tuple(get() for get, _ in _openblas_handles())


def set_threads(n: int) -> None:
    """Set every loaded OpenBLAS to ``n`` threads."""
    for _, set_ in _openblas_handles():
        set_(n)


@contextlib.contextmanager
def pinned(n: int):
    """Run the block on ``n`` BLAS threads, then restore each previous count."""
    handles = _openblas_handles()
    old = [get() for get, _ in handles]
    for _, set_ in handles:
        set_(n)
    try:
        yield
    finally:
        for (_, set_), count in zip(handles, old):
            set_(count)
