"""Worker-pool teardown regression tests.

The driver bug: an interrupt (KeyboardInterrupt) landing while
``Executor.map`` is still submitting left every already-queued item
running to completion under the executor's ``shutdown(wait=True)``
exit — a Ctrl-C'd campaign kept burning CPU for its whole remaining
workload.  ``_drain_pool`` shuts the pool down with
``cancel_futures=True`` on any failure, so queued work is dropped and
the workers are reaped promptly.
"""

import concurrent.futures
import pathlib
import time

import pytest

from repro.analysis.parallel import WorkerPool, _drain_pool, parallel_map
from concurrent.futures import ProcessPoolExecutor


def _mark_and_sleep(item):
    directory, index = item
    (pathlib.Path(directory) / f"ran-{index}").write_text("x")
    time.sleep(0.2)
    return index


def _interrupting_items(directory, count):
    """Yields *count* work items, then simulates a Ctrl-C arriving
    while the executor is still submitting."""
    for index in range(count):
        yield (directory, index)
    raise KeyboardInterrupt


def test_drain_pool_interrupt_does_not_run_queued_items(tmp_path):
    """A KeyboardInterrupt during submission must not let the whole
    queued workload execute (pre-fix, all 30 items ran to completion
    before the interrupt surfaced)."""
    pool = ProcessPoolExecutor(max_workers=2)
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _drain_pool(
            pool, _mark_and_sleep,
            _interrupting_items(str(tmp_path), 30), 1,
        )
    elapsed = time.perf_counter() - started
    executed = len(list(tmp_path.glob("ran-*")))
    # 30 items x 0.2s over 2 workers is 3s; cancelling the queue keeps
    # only the handful already picked up by the workers.
    assert executed < 10, f"{executed} queued items still executed"
    assert elapsed < 2.5, f"teardown took {elapsed:.2f}s"


def test_drain_pool_worker_error_reaps_pool(tmp_path):
    pool = ProcessPoolExecutor(max_workers=2)
    with pytest.raises(ZeroDivisionError):
        _drain_pool(pool, _divide, [1, 0, 1, 1], 1)
    # The pool is shut down: new submissions are refused.
    with pytest.raises(RuntimeError):
        pool.submit(_divide, 1)


def _divide(value):
    return 1 // value


def _sleep_return(seconds):
    time.sleep(seconds)
    return seconds


class TestWorkerPool:
    def test_thread_map_returns_results(self):
        with WorkerPool(jobs=2, mode="thread") as pool:
            assert list(pool.executor.map(_divide, [1, 1, 1])) == [1, 1, 1]

    def test_map_error_leaves_pool_usable(self):
        with WorkerPool(jobs=2, mode="thread") as pool:
            with pytest.raises(ZeroDivisionError):
                list(pool.executor.map(_divide, [1, 0, 1]))
            assert pool.executor.submit(_divide, 1).result() == 1

    def test_close_cancels_queued_work(self):
        pool = WorkerPool(jobs=1, mode="thread")
        futures = [
            pool.executor.submit(_sleep_return, 0.2) for _ in range(20)
        ]
        time.sleep(0.05)
        started = time.perf_counter()
        pool.close()
        elapsed = time.perf_counter() - started
        cancelled = sum(1 for future in futures if future.cancelled())
        assert cancelled >= 10, f"only {cancelled} futures cancelled"
        assert elapsed < 2.0, f"close took {elapsed:.2f}s"

    def test_process_mode_roundtrip(self):
        with WorkerPool(jobs=2, mode="process") as pool:
            assert list(pool.executor.map(_divide, [1, 1])) == [1, 1]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            WorkerPool(jobs=-1)
        with pytest.raises(ValueError):
            WorkerPool(mode="fiber")

    def test_default_jobs(self):
        pool = WorkerPool(jobs=0, mode="thread")
        try:
            assert pool.jobs >= 1
        finally:
            pool.close()


def test_parallel_map_still_matches_serial():
    """The `_drain_pool` refactor does not change results."""
    values = list(range(8))
    assert parallel_map(_divide, [1] * 4, jobs=2) == [1, 1, 1, 1]
    assert parallel_map(_square, values, jobs=2) == [
        value * value for value in values
    ]


def _square(value):
    return value * value


def test_futures_module_supports_cancel_futures():
    """`shutdown(cancel_futures=...)` exists on every supported
    Python (3.9+); guard against silently losing the fix."""
    import inspect

    signature = inspect.signature(
        concurrent.futures.Executor.shutdown
    )
    assert "cancel_futures" in signature.parameters
