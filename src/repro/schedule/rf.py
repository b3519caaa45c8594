"""Reuse-factor (loop fission depth) computation.

Section 3 of the paper: "The number of consecutive executions of one
kernel RF (Context Reuse Factor) is limited by the internal memory
size. ... In this case their contexts are only loaded n/RF times, so
reducing context reloading and minimizing execution time."

Section 4: the Complete Data Scheduler "achieves the highest common RF
value, to all clusters, allowed by the internal memory size".

:func:`max_common_rf` returns the largest ``RF`` such that the peak
occupancy ``DS(C_c, RF)`` of **every** cluster fits in one frame-buffer
set, capped at the application's total iteration count.  No search is
needed: ``DS(C_c)`` is the maximum of a few lines ``a * RF + b``
(:func:`repro.core.metrics.cluster_sweep_pieces`), so once ``RF = 1``
fits, the feasible reuse factors are the prefix ``1..R`` with ``R`` the
smallest ``floor((FBS - b) / a)`` over the lines with ``a > 0``
(:func:`common_rf_bound`).  The line that attains it says *why* the
reuse factor is not higher.

The plain search over an occupancy function stays for the reference
path (:class:`~repro.schedule.occupancy.ReferenceOccupancy` and the
oracles): :func:`max_common_rf` with ``occupancy_fn`` gallops and
bisects over ``fits``.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core.dataflow import DataflowInfo
from repro.core.metrics import (
    KeepDecision,
    SweepPiece,
    cluster_data_size,
    cluster_sweep_pieces,
    resident_keep_line,
)

__all__ = ["RFBound", "common_rf_bound", "fits", "max_common_rf"]

OccupancyFn = Callable[[DataflowInfo, int, int, Sequence[KeepDecision]], int]


class RFBound(NamedTuple):
    """The highest common reuse factor and what bounds it.

    ``bound`` is ``"line"`` when cluster ``cluster``'s line ``a * rf +
    b`` (reached while ``kernel`` executes; ``None`` before the first
    kernel) stops the next reuse factor: ``a * rf + b <= FBS < a * (rf
    + 1) + b``.  It is ``"cap"`` when ``rf`` is the cap and no line
    binds below it, and ``"infeasible"`` (``rf == 0``) when ``a + b``,
    the cluster's worst ``DS(1)``, exceeds the set.
    """

    rf: int
    bound: str
    cluster: Optional[int] = None
    kernel: Optional[str] = None
    a: int = 0
    b: int = 0

    def detail(self, dataflow: DataflowInfo, fb_set_words: int) -> Dict[str, Any]:
        """The ``rf.bound`` decision-trace payload."""
        if self.cluster is None:
            return {"rf": self.rf, "bound": self.bound,
                    "fb_set_words": fb_set_words}
        return {
            "rf": self.rf,
            "bound": self.bound,
            "cluster": dataflow.clustering[self.cluster].name,
            "kernel": self.kernel,
            "a": self.a,
            "b": self.b,
            "fb_set_words": fb_set_words,
        }


#: One cluster's occupancy as lines: ``(cluster index, resident a,
#: resident b, sweep pieces)``; ``DS(C_c, rf)`` is the largest
#: ``(a + resident a) * rf + b + resident b`` over the pieces.
ClusterLines = Tuple[int, int, int, Sequence[SweepPiece]]


def common_rf_bound(
    clusters: Iterable[ClusterLines], fb_set_words: int, cap: int
) -> RFBound:
    """Closed-form highest common reuse factor in ``0..cap``.

    If some cluster's ``DS(1)`` exceeds ``fb_set_words`` the answer is
    0, bound by the cluster with the worst ``DS(1)`` (the first one on
    ties).  Otherwise every line with ``a <= 0`` holds for all ``rf >=
    1``, and the answer is ``min(cap, floor((FBS - b) / a))`` over the
    lines with ``a > 0``, bound by the first line attaining it.  The
    feasible reuse factors are then exactly ``1..rf``, so this is the
    ``rf`` any search over ``fits(rf)`` finds.
    """
    best: Optional[Tuple[int, int, int, int, Optional[str]]] = None
    worst: Optional[Tuple[int, int, int, int, Optional[str]]] = None
    for index, resident_a, resident_b, pieces in clusters:
        for a, b, kernel in pieces:
            a += resident_a
            b += resident_b
            at_one = a + b
            if at_one > fb_set_words:
                if worst is None or at_one > worst[0]:
                    worst = (at_one, index, a, b, kernel)
            elif a > 0:
                rf = (fb_set_words - b) // a
                if best is None or rf < best[0]:
                    best = (rf, index, a, b, kernel)
    if worst is not None:
        _, index, a, b, kernel = worst
        return RFBound(0, "infeasible", index, kernel, a, b)
    if best is None or best[0] >= cap:
        return RFBound(cap, "cap")
    rf, index, a, b, kernel = best
    return RFBound(rf, "line", index, kernel, a, b)


def fits(
    dataflow: DataflowInfo,
    rf: int,
    fb_set_words: int,
    keeps: Sequence[KeepDecision] = (),
    occupancy_fn: OccupancyFn = cluster_data_size,
) -> bool:
    """True if every cluster's ``DS(C_c, rf, keeps)`` fits one FB set.

    ``occupancy_fn`` defaults to
    :func:`~repro.core.metrics.cluster_data_size`; the reference path
    passes :func:`~repro.core.metrics.cluster_data_size_naive`.
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
    occupancy_fn: Optional[OccupancyFn] = None,
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
        occupancy_fn: by default the answer is the closed form of
            :func:`common_rf_bound`.  Given an occupancy function (the
            reference passes
            :func:`~repro.core.metrics.cluster_data_size_naive`), a
            gallop + bisection over :func:`fits` finds it instead.  Both
            give the same answer (property-tested), because feasibility
            is always a prefix of ``1..cap``.

    Returns:
        The largest feasible ``RF >= 1``, or ``0`` if even ``RF = 1``
        does not fit (the schedule is infeasible at this capacity).
    """
    cap = max_rf if max_rf > 0 else dataflow.application.total_iterations
    if occupancy_fn is None:
        return common_rf_bound(
            _cluster_lines(dataflow, keeps), fb_set_words, cap
        ).rf

    def check(rf: int) -> bool:
        return fits(dataflow, rf, fb_set_words, keeps, occupancy_fn)

    if not check(1):
        return 0
    # Gallop to an infeasible upper bound, probing each rf once.
    low = 1
    while low < cap and check(min(low * 2, cap)):
        low = min(low * 2, cap)
    if low >= cap:
        return cap
    high = min(low * 2, cap)  # known infeasible
    while high - low > 1:
        mid = (low + high) // 2
        if check(mid):
            low = mid
        else:
            high = mid
    return low


def _cluster_lines(
    dataflow: DataflowInfo, keeps: Sequence[KeepDecision]
) -> Iterable[ClusterLines]:
    for cluster in dataflow.clustering:
        resident_a, resident_b, local_kept = resident_keep_line(
            dataflow, cluster.index, keeps
        )
        yield (
            cluster.index, resident_a, resident_b,
            cluster_sweep_pieces(dataflow, cluster.index, local_kept),
        )
