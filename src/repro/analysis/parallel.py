"""Parallel analysis driver.

The analysis layer's drivers — :func:`~repro.analysis.corpus.corpus_study`
over its seeds, :func:`~repro.analysis.sweep.sweep_fb_sizes` over its
frame-buffer sizes, and the four design ablations — are embarrassingly
parallel: every work item is an independent (workload, architecture,
options) pipeline run.  :func:`parallel_map` fans such items out over a
:class:`concurrent.futures.ProcessPoolExecutor`; each driver exposes a
``jobs`` parameter (and the CLI a ``--jobs`` flag) that routes through
it.  ``jobs=None`` or ``jobs=1`` keeps the historical serial path —
bit-for-bit, since both paths run the same top-level worker per item —
and the equivalence tests assert serial and parallel outputs are
identical.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

__all__ = [
    "default_jobs",
    "parallel_map",
    "run_all_ablations",
    "WorkerPool",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


def default_jobs() -> int:
    """Worker count used for ``jobs=0``: the machine's CPU count."""
    return os.cpu_count() or 1


class _MetricsWorker:
    """Wraps a worker *fn* to return ``(result, metrics snapshot)``.

    Top-level class so it pickles into :class:`ProcessPoolExecutor`
    workers.  Each call collects into the worker process's own registry
    (reset per item, so pool reuse cannot leak samples between items)
    and ships the snapshot back for the parent to merge — the
    per-worker rollup behind ``repro corpus --profile --jobs``.
    """

    def __init__(self, fn: Callable[[_T], _R]):
        self.fn = fn

    def __call__(self, item: _T):
        from repro.obs import metrics

        registry = metrics.get_registry()
        registry.reset()
        previous = metrics.set_metrics_active(True)
        try:
            result = self.fn(item)
        finally:
            metrics.set_metrics_active(previous)
        return result, registry.snapshot()


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    *,
    jobs: Optional[int] = None,
    chunksize: int = 1,
) -> List[_R]:
    """``[fn(item) for item in items]``, optionally across processes.

    ``jobs=None`` or ``jobs=1`` runs serially in-process; ``jobs=0``
    uses :func:`default_jobs`; ``jobs>1`` fans out over a
    :class:`ProcessPoolExecutor`.  Negative ``jobs`` values are
    rejected (they are always a caller bug, not a serial-mode request).
    Results are returned in item order regardless of completion order,
    so callers observe identical output either way.  *fn* and every
    item must be picklable when ``jobs>1`` (top-level functions and
    plain data only).  ``chunksize`` batches items per pool dispatch
    (forwarded to :meth:`ProcessPoolExecutor.map`) — raise it when the
    per-item work is small relative to pickling overhead, as the fuzz
    runner's seed batches are; it never changes results or their order.

    When the global metrics registry is collecting
    (:func:`repro.obs.metrics.metrics_active`), parallel runs wrap the
    worker so each item's counters/timers are snapshotted in its worker
    process and merged back into the parent registry; serial runs
    collect in-process.  Either way the *results* are identical.
    """
    if jobs is not None and jobs < 0:
        raise ValueError(
            f"jobs must be >= 0 (0 = one worker per CPU), got {jobs}"
        )
    if chunksize < 1:
        raise ValueError(f"chunksize must be >= 1, got {chunksize}")
    items = list(items)
    if jobs == 0:
        jobs = default_jobs()
    from repro.obs import metrics

    collect = metrics.metrics_active()
    if collect:
        metrics.inc("parallel.items", len(items), scope="driver")
    if jobs is None or jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    if collect:
        metrics.inc("parallel.fanouts", scope="driver")
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(items)))
    pairs = _drain_pool(
        pool, _MetricsWorker(fn) if collect else fn, items, chunksize
    )
    if not collect:
        return pairs
    registry = metrics.recording_registry() or metrics.get_registry()
    for _, snapshot in pairs:
        registry.merge(snapshot)
    return [result for result, _ in pairs]


def _drain_pool(
    pool: Executor, fn: Callable, items: Sequence, chunksize: int
) -> list:
    """``list(pool.map(...))`` with deterministic pool teardown.

    The historical ``with ProcessPoolExecutor(...)`` form had a
    concurrency bug in long-lived callers: when a worker raised (or the
    driver took a ``KeyboardInterrupt``) mid-map, ``__exit__`` ran
    ``shutdown(wait=True)`` *without cancelling the queued items*, so
    the pool kept executing the entire remaining workload — and kept
    its worker processes alive for that long — behind an exception the
    caller thought had aborted the run.  Here any error cancels the
    queued futures first, so workers are reaped as soon as their
    in-flight item finishes.
    """
    try:
        results = list(pool.map(fn, items, chunksize=chunksize))
    except BaseException:
        pool.shutdown(wait=True, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return results


class WorkerPool:
    """A persistent worker pool: one executor for a caller's lifetime.

    ``parallel_map`` spins an executor up and down per call — right for
    batch drivers, wasteful for a long-lived caller dispatching many
    small units.  The scheduler service keeps one ``WorkerPool`` for
    its whole lifetime and dispatches requests onto :attr:`executor`
    (``loop.run_in_executor``); ``close()`` (or
    the context manager) reaps the workers, cancelling anything still
    queued.

    Args:
        jobs: worker count (``0``/``None`` = one per CPU).
        mode: ``"process"`` (default) — true parallelism, work and
            results must pickle; ``"thread"`` — in-process workers, no
            pickling, suitable for I/O-bound or cache-hit-dominated
            loads and for tests.
    """

    def __init__(
        self, *, jobs: Optional[int] = None, mode: str = "process"
    ) -> None:
        if jobs is not None and jobs < 0:
            raise ValueError(
                f"jobs must be >= 0 (0 = one worker per CPU), got {jobs}"
            )
        self.jobs = jobs if jobs else default_jobs()
        self.mode = mode
        if mode == "process":
            self._executor: Executor = ProcessPoolExecutor(
                max_workers=self.jobs
            )
        elif mode == "thread":
            self._executor = ThreadPoolExecutor(max_workers=self.jobs)
        else:
            raise ValueError(
                f"unknown mode {mode!r}; expected 'process' or 'thread'"
            )

    @property
    def executor(self) -> Executor:
        """The underlying executor (for ``loop.run_in_executor``)."""
        return self._executor

    def close(self) -> None:
        """Reap the workers; queued-but-unstarted work is cancelled."""
        self._executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- ablation fan-out ----------------------------------------------------

_ABLATION_KINDS = ("keep", "rf", "dma", "cross")


def _ablation_worker(task) -> list:
    """Run one ablation family on one experiment (top-level: picklable).

    ``ExperimentSpec`` carries a builder callable, so tasks ship the
    experiment *id* and the worker re-resolves it.
    """
    spec_id, kind, cache_dir = task
    from repro.analysis.ablation import (
        cross_set_ablation,
        dma_policy_ablation,
        keep_policy_ablation,
        rf_policy_ablation,
    )
    from repro.workloads.spec import paper_experiments

    cache = None
    if cache_dir is not None:
        from repro.cache import CacheStore

        cache = CacheStore(cache_dir)
    functions = {
        "keep": keep_policy_ablation,
        "rf": rf_policy_ablation,
        "dma": dma_policy_ablation,
        "cross": cross_set_ablation,
    }
    for spec in paper_experiments():
        if spec.id == spec_id:
            return functions[kind](spec, cache=cache)
    raise ValueError(f"unknown experiment {spec_id!r}")


def run_all_ablations(
    spec,
    *,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> list:
    """All four design ablations of one experiment, optionally parallel.

    Result order is fixed (keep, rf, dma, cross-set — each family's
    variants in its own order) independent of *jobs*.  ``cache_dir``
    enables the persistent pipeline cache in every worker.
    """
    groups = parallel_map(
        _ablation_worker,
        [(spec.id, kind, cache_dir) for kind in _ABLATION_KINDS],
        jobs=jobs,
    )
    return [result for group in groups for result in group]
