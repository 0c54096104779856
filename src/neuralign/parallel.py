"""Independent loop iterations in contiguous blocks, one block per core.

A loop whose iterations never interact (the rows of a trigger descent, the
trials of an attack stage) splits into one contiguous block per core the
process may use (`os.sched_getaffinity`). Each block runs in a worker forked
from this process (Linux `fork`, so an unguarded calling script is never
re-imported). Workers that inherit several BLAS threads each fight over the
same cores, so the forking process pins numpy's bundled OpenBLAS to one
thread just before it forks and restores its own count after the join. The
workers inherit the one thread and never call the setter: called after a
fork, the setter restarts OpenBLAS's thread server, whose threads busy-wait
on the cores the workers need. For the same reason the forking process stops
the server its restore started, leaving it as the fork left it: down until
the next threaded BLAS call. The finished blocks come back in block order. A
process with one core, or a numpy without a bundled OpenBLAS, starts no
pool: the caller runs the loop itself. A caller that makes more BLAS calls
right after a split runs them under `one_blas_thread`, so they do not start
a server either: its threads would spin on the cores the next split's
workers need. `multiprocessing` and
`concurrent.futures` are imported in `run_blocks`, at the first split, so a
process that never splits a loop never loads them.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

BLAS_THREAD_CALLS = (  # (getter, setter) by OpenBLAS build
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=None)
def _blas_threads():
    """(getter, setter, server stop) of the thread count of the OpenBLAS
    bundled with numpy's wheel, or None when numpy bundles none (a build
    against a system BLAS) or the library lacks the getter or the setter.
    The server stop is None when the library does not export it."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*blas*")):
        handle = ctypes.CDLL(str(lib))  # the copy numpy already loaded
        for get_name, set_name in BLAS_THREAD_CALLS:
            if hasattr(handle, get_name) and hasattr(handle, set_name):
                getter, setter = getattr(handle, get_name), getattr(handle, set_name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                # OpenBLAS's own fork handler: stops the thread server until
                # the next threaded call starts it again
                stop = getattr(handle, "blas_thread_shutdown_", None)
                if stop is not None:
                    stop.argtypes, stop.restype = [], ctypes.c_int
                return getter, setter, stop
    return None


def pool_size(jobs: int) -> int:
    """Workers for `jobs` independent iterations: one per usable core and at
    most one per iteration, or 1 (run in this process) with one core or no
    BLAS thread getter and setter to pin the forking process."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cores < 2 or _blas_threads() is None:
        return 1
    return min(cores, jobs)


@contextmanager
def one_blas_thread():
    """Run the body with numpy's bundled OpenBLAS on one thread, then give
    the process its own count back, also when the body raised, with no server
    thread left spinning. Without a bundled OpenBLAS the body just runs."""
    calls = _blas_threads()
    if calls is None:
        yield
        return
    get_threads, set_threads, stop_server = calls
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)
        if stop_server is not None:
            stop_server()


def run_blocks(fn, total: int, workers: int, *args) -> list:
    """Call fn(lo, hi, *args) on `workers` contiguous blocks [lo, hi) that
    cover range(total), each in a forked worker that inherits one BLAS
    thread: this process forks under `one_blas_thread`. Returns the finished
    futures in block order; the caller decides which error to raise."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    bounds = np.linspace(0, total, workers + 1).astype(int)
    with one_blas_thread():
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(fn, lo, hi, *args) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return futures
