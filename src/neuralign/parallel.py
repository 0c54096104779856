"""Independent loop iterations in contiguous blocks, one block per core.

A loop whose iterations never interact (the rows of a trigger descent, the
trials of an attack stage) splits into one contiguous block per core the
process may use (`os.sched_getaffinity`). Each block runs in a worker forked
from this process (Linux `fork`, so an unguarded calling script is never
re-imported) that pins numpy's bundled OpenBLAS to one thread, since workers
that inherit several BLAS threads each fight over the same cores. The
finished blocks come back in block order. A process with one core, or a numpy
without a bundled OpenBLAS, starts no pool: the caller runs the loop itself.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from pathlib import Path

import numpy as np

BLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads",
)


@lru_cache(maxsize=None)
def _blas_thread_setter():
    """The thread-count setter of the OpenBLAS bundled with numpy's wheel, or
    None when numpy bundles none (a build against a system BLAS)."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*blas*")):
        handle = ctypes.CDLL(str(lib))  # the copy numpy already loaded
        for symbol in BLAS_SETTERS:
            if hasattr(handle, symbol):
                setter = getattr(handle, symbol)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return setter
    return None


def _one_blas_thread() -> None:
    _blas_thread_setter()(1)


def pool_size(jobs: int) -> int:
    """Workers for `jobs` independent iterations: one per usable core and at
    most one per iteration, or 1 (run in this process) with one core or no
    BLAS setter to pin the workers."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cores < 2 or _blas_thread_setter() is None:
        return 1
    return min(cores, jobs)


def run_blocks(fn, total: int, workers: int, *args) -> list:
    """Call fn(lo, hi, *args) on `workers` contiguous blocks [lo, hi) that
    cover range(total), each in a forked one-BLAS-thread worker. Returns the
    finished futures in block order; the caller decides which error to raise."""
    bounds = np.linspace(0, total, workers + 1).astype(int)
    with ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"), initializer=_one_blas_thread
    ) as pool:
        futures = [pool.submit(fn, lo, hi, *args) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return futures
