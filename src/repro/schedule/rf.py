"""Reuse-factor (loop fission depth) computation.

Section 3 of the paper: "The number of consecutive executions of one
kernel RF (Context Reuse Factor) is limited by the internal memory
size. ... In this case their contexts are only loaded n/RF times, so
reducing context reloading and minimizing execution time."

Section 4: the Complete Data Scheduler "achieves the highest common RF
value, to all clusters, allowed by the internal memory size".

:func:`max_common_rf` returns the largest ``RF`` such that the peak
occupancy ``DS(C_c, RF)`` of **every** cluster fits in one frame-buffer
set, capped at the application's total iteration count.  Occupancy is
monotonically non-decreasing in ``RF`` (each extra concurrent iteration
adds instances), so a galloping + binary search is used.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.dataflow import DataflowInfo
from repro.core.metrics import KeepDecision, cluster_data_size

__all__ = ["fits", "largest_feasible_rf", "max_common_rf"]

OccupancyFn = Callable[[DataflowInfo, int, int, Sequence[KeepDecision]], int]


def fits(
    dataflow: DataflowInfo,
    rf: int,
    fb_set_words: int,
    keeps: Sequence[KeepDecision] = (),
    occupancy_fn: OccupancyFn = cluster_data_size,
) -> bool:
    """True if every cluster's ``DS(C_c, rf, keeps)`` fits one FB set.

    ``occupancy_fn`` defaults to the closed-form
    :func:`~repro.core.metrics.cluster_data_size`;
    :class:`~repro.schedule.occupancy.ReferenceOccupancy` passes
    :func:`~repro.core.metrics.cluster_data_size_naive` to keep a fully
    independent reference path.
    """
    return all(
        occupancy_fn(dataflow, cluster.index, rf, keeps) <= fb_set_words
        for cluster in dataflow.clustering
    )


def max_common_rf(
    dataflow: DataflowInfo,
    fb_set_words: int,
    keeps: Sequence[KeepDecision] = (),
    max_rf: int = 0,
    occupancy_fn: OccupancyFn = cluster_data_size,
    probe: Optional[Callable[[int, bool], None]] = None,
) -> int:
    """Highest common reuse factor fitting every cluster in ``fb_set_words``.

    Args:
        dataflow: dataflow analysis of the clustered application.
        fb_set_words: capacity of one frame-buffer set, in words.
        keeps: retention decisions already in effect (they consume space
            and hence can lower the achievable ``RF``).
        max_rf: optional cap; defaults to the application's
            ``total_iterations`` (fissioning deeper than the iteration
            count is pointless).
        probe: optional observer called as ``probe(rf, fits)`` after
            every feasibility check (the decision trace's ``rf.probe``
            events); never changes the search.

    Returns:
        The largest feasible ``RF >= 1``, or ``0`` if even ``RF = 1``
        does not fit (the schedule is infeasible at this capacity).
    """

    def check(rf: int) -> bool:
        ok = fits(dataflow, rf, fb_set_words, keeps, occupancy_fn)
        if probe is not None:
            probe(rf, ok)
        return ok

    cap = max_rf if max_rf > 0 else dataflow.application.total_iterations
    return largest_feasible_rf(check, cap)


def largest_feasible_rf(check: Callable[[int], bool], cap: int) -> int:
    """The gallop + bisection behind every common-RF search.

    Returns the largest ``rf`` in ``1..cap`` with ``check(rf)`` true,
    assuming feasibility is monotone (true up to some bound, false
    beyond it), or ``0`` if ``check(1)`` fails.  Each ``rf`` is checked
    at most once, so callers may record every call as one probe.
    """
    if cap < 1 or not check(1):
        return 0
    # Gallop to an infeasible upper bound.
    low = 1
    high = 1
    while high < cap and check(min(high * 2, cap)):
        high = min(high * 2, cap)
        low = high
    if high >= cap:
        return cap
    # The loop exited on a failed check of min(high * 2, cap), so that
    # value is already known infeasible — re-probing it would waste an
    # occupancy sweep and emit a duplicate rf.probe trace event.
    high = min(high * 2, cap)
    # Invariant: check(low), not check(high).
    while high - low > 1:
        mid = (low + high) // 2
        if check(mid):
            low = mid
        else:
            high = mid
    return low
