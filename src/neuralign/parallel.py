"""Independent loop iterations in contiguous blocks, one block per core.

A loop whose iterations never interact (the rows of a trigger descent, the
trials of an attack stage) splits into one contiguous block per core the
process may use (`os.sched_getaffinity`). The calling process runs the first
block itself and forks one child per other block with `os.fork` (so an
unguarded calling script is never re-imported, and no process pool is
started, fed or joined). Each child pickles its block's outcome into a pipe
and leaves through `os._exit`, so it never returns into the caller's stack;
the caller reads each pipe after its own block and reaps each child, and no
child outlives the call. Processes that inherit several BLAS threads each
fight over the same cores, so the caller pins numpy's bundled OpenBLAS to one
thread just before it forks, runs its own block under the same pin and
restores its count after the join. The children inherit the one thread and
never call the setter: called after a fork, the setter restarts OpenBLAS's
thread server, whose threads busy-wait on the cores the children need. For
the same reason the caller stops the server its restore started, leaving it
as the fork left it: down until the next threaded BLAS call. The outcomes
come back in block order. A process with one core, or a numpy without a
bundled OpenBLAS, forks nothing: the caller runs the loop itself. A caller
that makes more BLAS calls right after a split runs them under
`one_blas_thread`, so they do not start a server either: its threads would
spin on the cores the next split's children need.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import traceback
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

BLAS_THREAD_CALLS = (  # (getter, setter) by OpenBLAS build
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class RemoteTraceback(Exception):
    """The formatted traceback of an error raised in a forked block: the
    `__cause__` of that error once it is back in the calling process."""


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


def block_count(jobs: int) -> int:
    """Processes for `jobs` independent iterations, the caller included: one
    per usable core and at most one per iteration, or 1 (run in this
    process) with one core or no BLAS thread getter and setter to pin the
    forking process."""
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


def _run_child(pipe: int, fn, lo: int, hi: int, args) -> None:
    """Block [lo, hi) in a forked child: pickle (ok, value) into the pipe,
    where a failed block's value is its error and formatted traceback, and
    leave through `os._exit` whatever happens, so the child never returns
    into the caller's stack. Exit status 0 means the outcome was written."""
    status = 1
    try:
        try:
            outcome = (True, fn(lo, hi, *args))
        except BaseException as exc:  # SystemExit too: the caller decides
            outcome = (False, (exc, traceback.format_exc()))
        with open(pipe, "wb") as out:
            out.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _wait_status(status: int) -> str:
    if os.WIFSIGNALED(status):
        return f"wait status {status}, killed by signal {os.WTERMSIG(status)}"
    return f"wait status {status}, exit code {os.waitstatus_to_exitcode(status)}"


def run_blocks(fn, total: int, workers: int, *args) -> list:
    """Call fn(lo, hi, *args) on `workers` contiguous blocks [lo, hi) that
    cover range(total): block 0 in this process, each other block in a child
    forked for it, all under `one_blas_thread`, so no child calls the BLAS
    setter. Returns each block's outcome in block order, (True, value) or
    (False, error): the caller decides which error to raise. An error raised
    in block 0 comes back as it was raised; one raised in a child has the
    child's formatted traceback as its `__cause__` (a `RemoteTraceback`). A
    child that ends without an outcome raises ChildProcessError naming its
    block and wait status. No child outlives the call: those still running
    when it ends early are killed and reaped."""
    bounds = np.linspace(0, total, workers + 1).astype(int).tolist()
    blocks = list(zip(bounds[:-1], bounds[1:]))
    children = {}  # block -> (pid, read end of its pipe)
    try:
        with one_blas_thread():
            for block, (lo, hi) in enumerate(blocks[1:], 1):
                read_end, write_end = os.pipe()
                pid = os.fork()
                if pid == 0:
                    os.close(read_end)  # a caller that stops reading fails the write
                    _run_child(write_end, fn, lo, hi, args)
                os.close(write_end)
                children[block] = (pid, open(read_end, "rb"))
            try:
                outcomes = [(True, fn(*blocks[0], *args))]
            except Exception as exc:
                outcomes = [(False, exc)]
            for block in range(1, workers):
                pid, pipe = children[block]
                with pipe:
                    data = pipe.read()
                status = os.waitpid(pid, 0)[1]
                del children[block]
                if status != 0:
                    raise ChildProcessError(
                        f"block {block} [{blocks[block][0]}, {blocks[block][1]}) ended "
                        f"without an outcome ({_wait_status(status)})"
                    )
                ok, value = pickle.loads(data)
                if not ok:
                    value, trace = value
                    value.__cause__ = RemoteTraceback(trace)
                outcomes.append((ok, value))
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # unreaped, so the pid is still this child's
            os.waitpid(pid, 0)
    return outcomes
