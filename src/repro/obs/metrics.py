"""Lightweight metrics registry: labelled counters and stage timers.

The pipeline stages (:func:`repro.analysis.compare.run_scheduler`), the
parallel analysis drivers (:func:`repro.analysis.parallel.parallel_map`,
with per-worker rollup), the CLI entry points (``repro run --profile``,
``repro corpus --profile``), and the scheduler service
(:mod:`repro.service`) report into :class:`MetricsRegistry` instances.

Collection is **off by default**: the module-level :func:`time_stage`
and :func:`inc` are O(1) no-ops until :func:`set_metrics_active` turns
the process-global registry on, so instrumented hot paths pay one flag
check.  Worker processes each collect into their own registry;
snapshots travel back through :func:`MetricsRegistry.snapshot` /
:meth:`MetricsRegistry.merge` (plain dicts, picklable).

**Request scoping.**  One process-global registry is wrong for a
long-lived concurrent server: two requests whose stages interleave in
one process would attribute time to each other.  :func:`request_scope`
installs a per-request registry in a :class:`contextvars.ContextVar`
— the scope follows the task/thread context, so concurrent requests
record into disjoint registries — and merges the request's samples
into the global registry on exit (when global collection is on).
While a scope is active, :func:`time_stage`/:func:`inc` record into it
regardless of the global flag; with no scope and collection off they
remain allocation-free no-ops.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterator, Optional
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = [
    "MetricsRegistry",
    "get_registry",
    "metrics_active",
    "recording_registry",
    "request_scope",
    "set_metrics_active",
    "time_stage",
    "inc",
]


def _key(name: str, scope: Optional[str]) -> str:
    return f"{scope}/{name}" if scope else name


class MetricsRegistry:
    """Counters and timers keyed by ``scope/name`` labels.

    Thread-safe: a registry may be the merge target of several worker
    threads (the service's global rollup), so every mutating and
    reading method holds an internal lock.  The lock is uncontended in
    the historical single-threaded drivers and costs nothing while
    collection is off (the module-level fast path never reaches it).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._timers: Dict[str, Dict[str, float]] = {}
        self._lock = threading.RLock()

    # -- recording ------------------------------------------------------

    def inc(self, name: str, value: int = 1, *,
            scope: Optional[str] = None) -> None:
        """Add *value* to a counter."""
        key = _key(name, scope)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def observe(self, name: str, seconds: float, *,
                scope: Optional[str] = None) -> None:
        """Record one timed sample of a stage."""
        key = _key(name, scope)
        with self._lock:
            timer = self._timers.get(key)
            if timer is None:
                timer = {"total_s": 0.0, "count": 0, "max_s": 0.0}
                self._timers[key] = timer
            timer["total_s"] += seconds
            timer["count"] += 1
            if seconds > timer["max_s"]:
                timer["max_s"] = seconds

    @contextmanager
    def time_stage(self, name: str, *,
                   scope: Optional[str] = None) -> Iterator[None]:
        """Time a ``with`` block as one sample of stage *name*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start, scope=scope)

    def counter(self, name: str, *, scope: Optional[str] = None) -> int:
        """Current value of one counter (0 if never bumped)."""
        with self._lock:
            return self._counters.get(_key(name, scope), 0)

    # -- aggregation ----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Picklable copy of everything recorded so far."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "timers": {
                    key: dict(value) for key, value in self._timers.items()
                },
            }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Used for the per-worker rollup: each
        :func:`~repro.analysis.parallel.parallel_map` worker returns its
        snapshot and the driver merges them into the parent registry.
        The service merges each request's scoped snapshot the same way.
        """
        with self._lock:
            for key, value in snapshot.get("counters", {}).items():
                self._counters[key] = self._counters.get(key, 0) + value
            for key, sample in snapshot.get("timers", {}).items():
                timer = self._timers.get(key)
                if timer is None:
                    self._timers[key] = dict(sample)
                    continue
                timer["total_s"] += sample["total_s"]
                timer["count"] += sample["count"]
                if sample["max_s"] > timer["max_s"]:
                    timer["max_s"] = sample["max_s"]

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._timers.clear()

    # -- reporting ------------------------------------------------------

    @property
    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    @property
    def timers(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {key: dict(value) for key, value in self._timers.items()}

    def render(self) -> str:
        """Human-readable rollup (``repro run --profile`` output)."""
        counters = self.counters
        timers = self.timers
        if not counters and not timers:
            return "(no metrics recorded)"
        lines = []
        if timers:
            lines.append("timers (total / calls / max):")
            for key in sorted(timers):
                timer = timers[key]
                lines.append(
                    f"  {key:<32} {timer['total_s'] * 1000.0:10.3f} ms"
                    f" / {timer['count']:>5}"
                    f" / {timer['max_s'] * 1000.0:8.3f} ms"
                )
        if counters:
            lines.append("counters:")
            for key in sorted(counters):
                lines.append(f"  {key:<32} {counters[key]}")
        return "\n".join(lines)


# -- process-global registry ---------------------------------------------

_REGISTRY = MetricsRegistry()
_ACTIVE = False

#: Per-request registry installed by :func:`request_scope`.  A
#: ContextVar so the scope follows asyncio tasks and ``Context.run``
#: boundaries instead of leaking across interleaved requests.
_SCOPED: ContextVar[Optional[MetricsRegistry]] = ContextVar(
    "repro_metrics_scoped", default=None
)


def get_registry() -> MetricsRegistry:
    """The process-global registry (collects only while active)."""
    return _REGISTRY


def metrics_active() -> bool:
    """True while anything is collecting (global flag or a scope)."""
    return _ACTIVE or _SCOPED.get() is not None


def recording_registry() -> Optional[MetricsRegistry]:
    """The registry samples currently land in, or ``None``.

    The active :func:`request_scope` registry when one is installed,
    else the global registry while global collection is on.  Drivers
    that merge worker snapshots (``parallel_map``) target this, so a
    scoped caller's fan-out rolls up into its own scope.
    """
    scoped = _SCOPED.get()
    if scoped is not None:
        return scoped
    return _REGISTRY if _ACTIVE else None


def set_metrics_active(active: bool) -> bool:
    """Turn global collection on or off; returns the previous state."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = bool(active)
    return previous


@contextmanager
def request_scope(
    registry: Optional[MetricsRegistry] = None,
    *,
    merge_into_global: bool = True,
) -> Iterator[MetricsRegistry]:
    """Collect this context's samples into a private registry.

    Concurrent requests in one process each install their own scope, so
    interleaved stages can no longer attribute time to the wrong
    request — the process-global-registry concurrency bug the scheduler
    service surfaced.  On exit the scope's samples are merged into the
    global registry when global collection is on (and
    *merge_into_global* is left set), keeping process-wide totals
    intact; the yielded registry holds the request's own samples either
    way.
    """
    registry = registry if registry is not None else MetricsRegistry()
    token = _SCOPED.set(registry)
    try:
        yield registry
    finally:
        _SCOPED.reset(token)
        if merge_into_global and _ACTIVE:
            _REGISTRY.merge(registry.snapshot())


class _NullTimer:
    """Reusable no-op context manager (the disabled fast path)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_TIMER = _NullTimer()


def time_stage(name: str, *, scope: Optional[str] = None):
    """Time a ``with`` block into the recording registry.

    Records into the active :func:`request_scope` registry when one is
    installed, else into the global registry while collection is on.  A
    shared no-op context manager is returned otherwise, so
    instrumentation points cost one ContextVar read, one flag check and
    no allocation.
    """
    target = _SCOPED.get()
    if target is None:
        if not _ACTIVE:
            return _NULL_TIMER
        target = _REGISTRY
    return target.time_stage(name, scope=scope)


def inc(name: str, value: int = 1, *, scope: Optional[str] = None) -> None:
    """Bump a counter (no-op while nothing is collecting)."""
    target = _SCOPED.get()
    if target is None:
        if not _ACTIVE:
            return
        target = _REGISTRY
    target.inc(name, value, scope=scope)
