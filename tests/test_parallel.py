import os
import signal
import time

import numpy as np
import pytest

from conftest import child_pids
from neuralign import parallel

CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _os_threads() -> int:
    return len(os.listdir("/proc/self/task"))


def _threads_after_gemm(lo, hi, fail=False):
    """One GEMM large enough for OpenBLAS to thread, then this block's OS
    thread count, BLAS thread count and process id."""
    a = np.random.default_rng(lo).standard_normal((400, 128))
    a @ a[:128]
    if fail:
        raise ValueError(f"block {lo} failed")
    return _os_threads(), parallel._blas_threads()[0](), os.getpid()


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
    """The forking process pins BLAS before the fork, so no child calls the
    setter, which in a forked child would restart OpenBLAS's spinning thread
    server: the child, and the caller's own block 0, each run one OS thread
    and read one BLAS thread."""
    (ok0, caller), (ok1, child) = parallel.run_blocks(_threads_after_gemm, 4, 2)
    assert ok0 and ok1
    assert caller == (1, 1, os.getpid())
    assert child[:2] == (1, 1) and child[2] != os.getpid()
    _assert_restored_without_a_spinning_server(blas_threads)


def _raising_function(error) -> str:
    tb = error.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code.co_name


def test_forking_process_gets_its_blas_threads_back_when_a_block_raises(blas_threads):
    """Both blocks fail: block 0's error is the one raised in this process,
    the child's carries the child's traceback as its cause."""
    (ok0, caller), (ok1, child) = parallel.run_blocks(_threads_after_gemm, 4, 2, True)
    assert not ok0 and not ok1
    assert isinstance(caller, ValueError) and str(caller) == "block 0 failed"
    assert caller.__cause__ is None and _raising_function(caller) == "_threads_after_gemm"
    assert isinstance(child, ValueError) and str(child) == "block 2 failed"
    assert isinstance(child.__cause__, parallel.RemoteTraceback)
    assert "_threads_after_gemm" in str(child.__cause__)
    assert "ValueError: block 2 failed" in str(child.__cause__)
    _assert_restored_without_a_spinning_server(blas_threads)


def test_one_blas_thread_pins_the_body_and_leaves_no_server(blas_threads):
    """A GEMM large enough to thread runs on one BLAS thread inside the
    block; after it the process has its count back and no server running."""
    with parallel.one_blas_thread():
        assert _threads_after_gemm(0, 1)[1] == 1
    _assert_restored_without_a_spinning_server(blas_threads)


def _end_in_last_block(lo, hi, how):
    if hi == 9:  # a child: the caller runs block 0
        if how == "exit":
            os._exit(3)
        os.kill(os.getpid(), signal.SIGKILL)
    return lo


@pytest.mark.parametrize("how, status", [("exit", "exit code 3"), ("kill", "killed by signal 9")])
def test_child_that_ends_without_an_outcome_raises_naming_its_block(how, status):
    with pytest.raises(ChildProcessError, match=rf"block 2 \[6, 9\) .*{status}"):
        parallel.run_blocks(_end_in_last_block, 9, 3, how)
    assert child_pids() == []


def _megabyte(lo, hi):
    return np.random.default_rng(lo).standard_normal(131072)  # 1 MiB of float64


def test_child_result_larger_than_the_pipe_buffer_comes_back_bit_equal():
    (_, caller), (ok, child) = parallel.run_blocks(_megabyte, 2, 2)
    assert ok and child.tobytes() == _megabyte(1, 2).tobytes()
    assert caller.tobytes() == _megabyte(0, 1).tobytes()


def _block_0_raises(lo, hi, error, child_seconds):
    if lo == 0:
        raise error
    time.sleep(child_seconds)
    return lo


def test_no_child_is_left_when_block_0_raises():
    """An error in the caller's block is its outcome, after the children
    ran; an interrupt leaves at once, killing the child still running."""
    error = ValueError("block 0 failed")
    outcomes = parallel.run_blocks(_block_0_raises, 2, 2, error, 0.2)
    assert outcomes == [(False, error), (True, 1)]
    assert child_pids() == []
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        parallel.run_blocks(_block_0_raises, 2, 2, KeyboardInterrupt(), 60.0)
    assert time.perf_counter() - start < 10.0
    assert child_pids() == []


def _exit_in_child(lo, hi, caller):
    if os.getpid() != caller:
        raise SystemExit(5)  # would unwind into the caller's stack without os._exit
    return lo


def test_child_that_raises_system_exit_still_leaves_through_os_exit():
    """The child's SystemExit comes back as its block's error, and the child
    ends in `os._exit`: had it unwound, it would have run the caller's code
    after `run_blocks`, this test's too, and exited with SystemExit's code."""
    caller = os.getpid()
    (ok0, value0), (ok1, value1) = parallel.run_blocks(_exit_in_child, 2, 2, caller)
    assert ok0 and value0 == 0
    assert not ok1 and isinstance(value1, SystemExit) and value1.code == 5
    assert isinstance(value1.__cause__, parallel.RemoteTraceback)
