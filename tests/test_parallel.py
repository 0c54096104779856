import os

import numpy as np
import pytest

from neuralign import parallel

CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _os_threads() -> int:
    return len(os.listdir("/proc/self/task"))


def _threads_after_gemm(lo, hi, fail=False):
    """One GEMM large enough for OpenBLAS to thread, then this worker's OS
    thread count and BLAS thread count."""
    a = np.random.default_rng(lo).standard_normal((400, 128))
    a @ a[:128]
    if fail:
        raise ValueError(f"block {lo} failed")
    return _os_threads(), parallel._blas_threads()[0]()


@pytest.fixture()
def blas_threads():
    """The forking process at 2 BLAS threads, its own count put back after."""
    if CORES < 2 or parallel._blas_threads() is None:
        pytest.skip("needs 2 usable cores and numpy's bundled OpenBLAS")
    get_threads, set_threads, _ = parallel._blas_threads()
    before = get_threads()
    set_threads(2)
    yield parallel._blas_threads()
    set_threads(before)


def _assert_restored_without_a_spinning_server(blas_threads):
    get_threads, _, stop_server = blas_threads
    assert get_threads() == 2
    if stop_server is not None:  # the restore's server is already stopped
        threads = _os_threads()
        stop_server()
        assert _os_threads() == threads


def test_workers_inherit_one_blas_thread_and_start_no_server(blas_threads):
    """The forking process pins BLAS before the fork, so no worker calls the
    setter, which in a forked child would restart OpenBLAS's spinning thread
    server: each worker runs one OS thread and reads one BLAS thread."""
    futures = parallel.run_blocks(_threads_after_gemm, 4, 2)
    assert [f.result() for f in futures] == [(1, 1), (1, 1)]
    _assert_restored_without_a_spinning_server(blas_threads)


def test_forking_process_gets_its_blas_threads_back_when_a_block_raises(blas_threads):
    futures = parallel.run_blocks(_threads_after_gemm, 4, 2, True)
    with pytest.raises(ValueError, match="block 0 failed"):
        futures[0].result()
    _assert_restored_without_a_spinning_server(blas_threads)


def test_one_blas_thread_pins_the_body_and_leaves_no_server(blas_threads):
    """A GEMM large enough to thread runs on one BLAS thread inside the
    block; after it the process has its count back and no server running."""
    with parallel.one_blas_thread():
        assert _threads_after_gemm(0, 1)[1] == 1
    _assert_restored_without_a_spinning_server(blas_threads)
