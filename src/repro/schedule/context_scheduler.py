"""Context scheduler [4]: the DMA issue order.

MorphoSys has a single DMA channel, so the transfers that overlap one
cluster's computation — the previous visit's result stores, the next
visit's context loads and the next visit's data loads — must be
serialised.  The context scheduler's goal ([4]) is "to minimize the
number of context loads that do not overlap with computation": if the
compute window closes before the next visit's contexts and data are in
place, the RC array stalls.

:func:`issue_order` is the one statement of that order.  The timing
engine (:meth:`repro.sim.engine.Simulator._walk`) accounts its steps
on the DMA channel, and the happens-before graph
(:meth:`repro.dataflow.hazards.HappensBefore.build`) numbers the same
steps into channel positions.

The steps of a round read only that round's visits and its two
neighbour rounds' visits.  So leaving out a run of rounds whose rows
equal their neighbours' leaves out exactly those rounds' steps; the
steady-state simulator depends on this when it skips rounds.
"""

from __future__ import annotations

import enum
from typing import List, Sequence, Tuple

__all__ = [
    "CTX", "LOAD", "STORE", "RUN", "DmaPolicy", "issue_order",
    "loads_may_precede_stores",
]


class DmaPolicy(enum.Enum):
    """Ordering policy for DMA work inside one overlap window.

    In the window of visit ``v``'s computation (pipelined schedules,
    the next visit ``v + 1`` on the other frame-buffer set):

    * ``CONTEXTS_FIRST`` (default) — the departing visit's stores
      (``v - 1``), then the arriving visit's contexts (``v + 1``), then
      its data loads.  Stores precede loads so that, on the shared FB
      set, the space freed by departing results is available to the
      arriving data — the ordering that makes the ``DS(C_c) <= FBS``
      feasibility check sufficient.  The one placement-sound policy.
    * ``LOADS_FIRST`` — data loads, then contexts, then stores
      (ablation; loads and not-yet-stored results coexist on the set
      **without** a budget check — an upper bound, not a legal policy).
    * ``ADAPTIVE`` — contexts and loads *before* stores in the windows
      where the frame-buffer set provably has room for the departing
      results and the arriving data simultaneously
      (:func:`loads_may_precede_stores`), stores first otherwise.
      It respects the space budget but is not placement-sound: the
      allocator places the arriving visit's data as if the departing
      results had already left, so a deferred store can race the
      arriving visit's run on shared words (HAZ001).

    Whatever the policy, when ``v + 1`` reuses ``v``'s set the window
    drains ``v - 1``'s and ``v``'s stores before ``v + 1``'s
    preparation, which waits for ``v``'s compute end.
    """

    CONTEXTS_FIRST = "contexts_first"
    LOADS_FIRST = "loads_first"
    ADAPTIVE = "adaptive"


#: Step kinds of :func:`issue_order`: one visit's context-load, data-
#: load or store group on the DMA channel, or its computation on the RC
#: array.
CTX, LOAD, STORE, RUN = range(4)


def loads_may_precede_stores(
    schedule, departing_cluster_index: int, arriving_cluster_index: int,
    iterations: int,
) -> bool:
    """Space-soundness test for issuing a visit's loads before the
    previous same-set visit's stores.

    During the overlap the set holds the departing visit's not-yet-
    stored results *and* everything the arriving visit's occupancy
    sweep budgets (its loads, kept residents, results).  The
    conservative bound::

        store_words(departing) * iterations + DS(C_arriving) <= FBS
    """
    departing = schedule.plan_for(departing_cluster_index)
    arriving = schedule.plan_for(arriving_cluster_index)
    outgoing = departing.store_words(schedule.dataflow, iterations)
    return outgoing + arriving.peak_occupancy <= schedule.fb_set_words


def issue_order(
    schedule,
    visits: Sequence[Tuple[int, int, int]],
    policy: DmaPolicy = DmaPolicy.CONTEXTS_FIRST,
) -> Tuple[List[Tuple[int, int, int]], Tuple[int, ...]]:
    """The DMA channel's and the RC array's work, in issue order.

    Args:
        schedule: the :class:`~repro.schedule.plan.Schedule` the visits
            belong to (serial or pipelined; the ADAPTIVE budget).
        visits: per visit, ``(fb_set, cluster_index, n_iters)``.
        policy: the ordering inside each overlap window.

    Returns:
        ``(steps, loads_first_windows)``.  Each step is ``(kind, visit,
        gate)``: ``kind`` is :data:`CTX`, :data:`LOAD`, :data:`STORE`
        (one group, every visit's stores exactly once) or :data:`RUN`,
        and ``gate`` is the visit whose compute end the step waits for
        (``-1`` when none; always ``-1`` for RUN, whose start is its
        preparation and the previous compute).  ``loads_first_windows``
        lists the pipelined windows (the visit ``i`` whose computation
        they overlap, ``i > 0``) where the arriving visit's preparation
        went before the departing visit's stores.
    """
    count = len(visits)
    steps: List[Tuple[int, int, int]] = []
    stored = [False] * count
    windows: List[int] = []
    loads_before_contexts = policy is DmaPolicy.LOADS_FIRST

    def prep(index: int, gate: int) -> None:
        # Loads share the contexts' gate.  It is never earlier than the
        # previous visit on their set (the departing visit of an
        # alternating window, or the visit itself when the next one
        # reuses its set), so the set has drained by then.
        if loads_before_contexts:
            steps.extend(((LOAD, index, gate), (CTX, index, gate)))
        else:
            steps.extend(((CTX, index, gate), (LOAD, index, gate)))

    def stores(index: int) -> None:
        if index >= 0 and not stored[index]:
            stored[index] = True
            steps.append((STORE, index, index))

    if not schedule.overlap_transfers:
        # Serial mode (Basic Scheduler): the previous visit's stores
        # and this visit's preparation all happen after the previous
        # computation, before this one.
        for index in range(count):
            stores(index - 1)
            prep(index, index - 1)
            steps.append((RUN, index, -1))
        stores(count - 1)
        return steps, ()

    if count:
        prep(0, -1)
    for index in range(count):
        steps.append((RUN, index, -1))
        if index + 1 == count:
            stores(index - 1)
            break
        loads_first = loads_before_contexts
        if policy is DmaPolicy.ADAPTIVE and index > 0:
            departing = visits[index - 1]
            loads_first = loads_may_precede_stores(
                schedule, departing[1], visits[index + 1][1], departing[2],
            )
        if visits[index + 1][0] == visits[index][0]:
            # The next visit reuses this set: its preparation follows
            # this visit's compute and stores, whatever the policy says.
            stores(index - 1)
            stores(index)
            prep(index + 1, index)
        elif loads_first:
            if index > 0:
                windows.append(index)
            prep(index + 1, index - 1)
            stores(index - 1)
        else:
            stores(index - 1)
            prep(index + 1, index - 1)
    stores(count - 1)
    return steps, tuple(windows)
