"""The hazard passes over the def-use IR.

Five checks, each emitting through a lint-style ``emit(code, message,
location=..., cost_words=..., **details)`` callable:

* ``HAZ001`` **race detection** — program order says access *A*
  precedes access *B* on overlapping words, but the happens-before
  graph cannot prove the DMA/RC-array timing preserves that order.
  Covers the classic overlap-window clobber: arriving loads issued
  ahead of the departing visit's stores, landing in words the pending
  stores still have to read.
* ``HAZ002`` **live-range interference** — two values whose program
  order lifetimes overlap occupy overlapping FB words.  An end-to-end
  cross-check of :class:`~repro.alloc.allocator.FrameBufferAllocator`
  from the *program's* perspective.
* ``HAZ003`` **capacity over time** — CM block refills within budget,
  FB residency along the program order within the set capacity, and
  every loads-before-stores overlap window within the ``DS(C) <= FBS``
  budget the adaptive policy's soundness argument relies on.
* ``DFA001`` **dead transfers** — values defined by a data load and
  never read by any kernel: pure wasted traffic, priced in words.
* ``DFA002`` **retention liveness** — keep decisions whose retained
  values survive a drain but are never read afterwards: the retention
  buys none of its claimed traffic savings.

The passes read the integer columns of :class:`~repro.dataflow.ir.ProgramIR`
(access rows, value columns, node kinds and visits), never its lazy
``IRNode``/``ValueLifetime`` view: a row or value costs a few list
reads, and objects are built only for the nodes a finding names.
Costs, with *n* the live segments (or spans) of one address space and
*k* those an access actually overlaps:

* ``HAZ001`` is O(log n + k) per access row: a bisect-indexed interval
  map updated in place when the row covers exactly one segment and
  spliced otherwise, plus one happens-before query per predecessor;
* ``HAZ002`` is O(log n + c) per span, *c* being the live spans that
  start within the set's longest span before it (every overlap among
  them), plus O(log n) per value to expire and insert;
* ``HAZ003`` sums the per-visit context rows for the CM check and
  accumulates one residency delta per node position, O(N + V);
* ``DFA001`` is one pass over the value columns, ``DFA002`` one pass
  over them plus, when a kept value survived a drain, one over the
  kernel reads.

:mod:`repro.dataflow.reference` keeps the original linear-scan HAZ001
map and HAZ002 loop as the equivalence oracle.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from heapq import heappop, heappush
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.dataflow.hazards import HappensBefore
from repro.dataflow.ir import COMPUTE, DATA_LOAD, KINDS, ProgramIR
from repro.obs.metrics import time_stage

__all__ = [
    "HAZARD_RULES",
    "check_races",
    "check_interference",
    "check_dead_transfers",
    "check_retention_liveness",
    "check_capacity",
    "run_hazard_passes",
]

#: Every rule code the hazard passes can emit.
HAZARD_RULES: Tuple[str, ...] = (
    "HAZ001", "HAZ002", "HAZ003", "DFA001", "DFA002",
)

Emit = Callable[..., object]

_LOAD = KINDS.index(DATA_LOAD)
_RUN = KINDS.index(COMPUTE)

#: One interval-map segment: ``(start, end, writer, readers)``.
_Segment = Tuple[int, int, Optional[int], Tuple[int, ...]]


class _IntervalMap:
    """Last-accessor state per word over one address space.

    Segments are disjoint, sorted ``[start, end)`` ranges, each holding
    the last writing node and the reading nodes since that write.
    ``_starts`` mirrors the segment starts for :mod:`bisect`; adjacent
    segments are never merged, so the list equals the reference map's
    (:class:`~repro.dataflow.reference.ReferenceIntervalMap`) after
    every access.  An access covering exactly one segment — a value's
    own words, read or rewritten — replaces it in place.
    """

    __slots__ = ("_starts", "_segments")

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._segments: List[_Segment] = []

    def access(
        self, start: int, end: int, node: int, write: bool
    ) -> Dict[int, int]:
        """Record an access; return predecessor nodes -> words shared."""
        preds: Dict[int, int] = {}
        segments = self._segments
        # First segment ending after *start* (ends ascend with starts).
        first = bisect_right(self._starts, start) - 1
        if first < 0 or segments[first][1] <= start:
            first += 1
        count = len(segments)
        if first < count:
            seg_start, seg_end, writer, readers = segments[first]
            if seg_start == start and seg_end == end:
                words = end - start
                if writer is not None and writer != node:
                    preds[writer] = words
                if write:
                    for reader in readers:
                        if reader != node:
                            preds[reader] = preds.get(reader, 0) + words
                    segments[first] = (start, end, node, ())
                else:
                    segments[first] = (start, end, writer, readers + (node,))
                return preds
        # Replacement pieces in address order: left remnant, the
        # written segment or the read pieces, right remnant.
        pieces: List[_Segment] = []
        right: Optional[_Segment] = None
        cursor = start
        last = first
        while last < count:
            seg_start, seg_end, writer, readers = segments[last]
            if seg_start >= end:
                break
            last += 1
            lo = start if start > seg_start else seg_start
            hi = end if end < seg_end else seg_end
            words = hi - lo
            if writer is not None and writer != node:
                preds[writer] = preds.get(writer, 0) + words
            if seg_start < lo:
                pieces.append((seg_start, lo, writer, readers))
            if write:
                for reader in readers:
                    if reader != node:
                        preds[reader] = preds.get(reader, 0) + words
            else:
                if cursor < lo:
                    pieces.append((cursor, lo, None, (node,)))
                pieces.append((lo, hi, writer, readers + (node,)))
                cursor = hi
            if hi < seg_end:
                right = (hi, seg_end, writer, readers)
        if write:
            pieces.append((start, end, node, ()))
        elif cursor < end:
            # Reads over previously untouched words.
            pieces.append((cursor, end, None, (node,)))
        if right is not None:
            pieces.append(right)
        segments[first:last] = pieces
        self._starts[first:last] = [piece[0] for piece in pieces]
        return preds


def check_races(ir: ProgramIR, hb: HappensBefore, emit: Emit) -> None:
    """HAZ001: program order vs. happens-before over shared words."""
    kind = ir.node_kind
    happens_before = hb.happens_before
    maps: Dict[int, _IntervalMap] = {}
    # (pred, succ) -> [slot, words, reversed]
    conflicts: Dict[Tuple[int, int], List[int]] = {}
    for node, slot, start, end, write in zip(
        ir.acc_node, ir.acc_slot, ir.acc_start, ir.acc_end, ir.acc_write
    ):
        space = maps.get(slot)
        if space is None:
            space = maps[slot] = _IntervalMap()
        preds = space.access(start, end, node, write)
        if not preds:
            continue
        computing = kind[node] == _RUN
        for pred, words in preds.items():
            if computing and kind[pred] == _RUN:
                continue  # one RC array: always ordered
            if happens_before(pred, node):
                continue
            entry = conflicts.get((pred, node))
            if entry is None:
                entry = conflicts[(pred, node)] = [
                    slot, 0, happens_before(node, pred),
                ]
            entry[1] += words
    for (pred, succ), (slot, words, reverse) in sorted(conflicts.items()):
        space, index = ("fb", "cm")[slot & 1], slot >> 1
        label = "CM block" if space == "cm" else "FB set"
        how = "is overtaken by" if reverse else "is unordered against"
        first, second = ir.describe(pred), ir.describe(succ)
        emit(
            "HAZ001",
            f"{first} {how} {second} on "
            f"{words} shared word(s) of {label} {index} "
            f"under policy {hb.policy.name}",
            location=f"visit {ir.node_visit[succ]}",
            cost_words=words,
            policy=hb.policy.name,
            first=first,
            second=second,
            space=f"{space}{index}",
            reversed_order=bool(reverse),
        )


#: One placed value of the HAZ002 sweep: ``(def_pos, release_pos,
#: spans, name, instance, def_visit)``, *spans* its ``(start, end)``
#: word ranges.
_Placed = Tuple[int, int, Tuple[Tuple[int, int], ...], str, int, int]


def _placed(ir: ProgramIR, fb_set: int) -> List[_Placed]:
    """The values placed in *fb_set*, in definition order.

    Read from the IR's columns; a stand-in IR that only lists value
    objects (the reference tests build such) is read through them.
    """
    if isinstance(ir, ProgramIR):
        place_spans = ir.place_spans
        node_visit = ir.node_visit
        return [
            (2 * node, release, place_spans[place], name, instance,
             node_visit[node])
            for node, release, place, name, instance, value_set in zip(
                ir.val_def, ir.val_release, ir.val_place, ir.val_name,
                ir.val_instance, ir.val_set,
            )
            if value_set == fb_set and place >= 0
        ]
    placed = [
        (value.def_pos, value.release_pos,
         tuple((extent.start, extent.end) for extent in value.extents),
         value.name, value.instance, value.def_visit)
        for value in ir.values
        if value.fb_set == fb_set and value.extents
    ]
    placed.sort(key=lambda entry: entry[0])
    return placed


def check_interference(ir: ProgramIR, emit: Emit) -> None:
    """HAZ002: simultaneously-live values never share FB words."""
    if not ir.has_placement:
        return
    for fb_set in (0, 1):
        placed = _placed(ir, fb_set)
        maxlen = max(
            (end - start for entry in placed for start, end in entry[2]),
            default=0,
        )
        # Live values: a heap by release position, and their spans as
        # ``(start, order, k, end)`` in address order, where *order* is
        # the value's index in *placed* (the active-list order).
        expiry: List[Tuple[int, int]] = []
        live: List[Tuple[int, int, int, int]] = []
        for order, (def_pos, release_pos, spans, name, instance,
                    def_visit) in enumerate(placed):
            while expiry and expiry[0][0] <= def_pos:
                _, gone = heappop(expiry)
                for k, (start, _) in enumerate(placed[gone][2]):
                    del live[bisect_left(live, (start, gone, k))]
            hits: Set[int] = set()
            for a_start, a_end in spans:
                # A span overlapping *a* starts within maxlen of it.
                lo = bisect_left(live, (a_start - maxlen + 1,))
                hi = bisect_left(live, (a_end,))
                if lo == hi:
                    continue
                for _, other, _, b_end in live[lo:hi]:
                    if b_end > a_start:
                        hits.add(other)
            for other_order in sorted(hits):
                _, _, other_spans, other_name, other_instance, _ = (
                    placed[other_order]
                )
                overlap = sum(
                    min(a_end, b_end) - max(a_start, b_start)
                    for a_start, a_end in spans
                    for b_start, b_end in other_spans
                    if a_start < b_end and b_start < a_end
                )
                emit(
                    "HAZ002",
                    f"{name}#{instance} and "
                    f"{other_name}#{other_instance} are live "
                    f"simultaneously on {overlap} shared word(s) of "
                    f"FB set {fb_set}",
                    location=f"visit {def_visit}",
                    cost_words=overlap,
                    first=f"{other_name}#{other_instance}",
                    second=f"{name}#{instance}",
                    fb_set=fb_set,
                )
            heappush(expiry, (release_pos, order))
            for k, (start, end) in enumerate(spans):
                insort(live, (start, order, k, end))


def check_dead_transfers(ir: ProgramIR, emit: Emit) -> None:
    """DFA001: loaded-but-never-read values are wasted traffic."""
    for value, kind, last_read in zip(
        range(len(ir.val_kind)), ir.val_kind, ir.val_last_read
    ):
        if kind != _LOAD or last_read >= 0:
            continue
        name = ir.val_name[value]
        instance = ir.val_instance[value]
        fb_set = ir.val_set[value]
        words = ir.val_words[value]
        emit(
            "DFA001",
            f"load of {name}#{instance} into FB set "
            f"{fb_set} is never read by any kernel "
            f"({words} wasted word(s))",
            location=f"visit {ir.node_visit[ir.val_def[value]]}",
            cost_words=words,
            object=name,
            instance=instance,
            fb_set=fb_set,
        )


def check_retention_liveness(ir: ProgramIR, emit: Emit) -> None:
    """DFA002: retained values must be reused before eviction."""
    schedule = ir.program.schedule
    if not schedule.keeps:
        return
    # Kept names with a value that survived a drain, and those with a
    # surviving value read in a later visit than its definition.
    kept, survived, names = ir.val_kept, ir.val_survived, ir.val_name
    surviving = {
        name for name, is_kept, has_survived in zip(names, kept, survived)
        if is_kept and has_survived
    }
    reread: Set[str] = set()
    if surviving:
        node_visit, val_def = ir.node_visit, ir.val_def
        reread = {
            names[value]
            for value, node in zip(ir.use_value, ir.use_node)
            if kept[value] and survived[value]
            and node_visit[node] > node_visit[val_def[value]]
        }
    total_iterations = schedule.application.total_iterations
    for keep in schedule.keeps:
        if keep.name not in surviving or keep.name in reread:
            continue
        invariant = bool(getattr(keep, "invariant", False))
        claimed = keep.words_avoided * (
            schedule.rounds if invariant else total_iterations
        )
        emit(
            "DFA002",
            f"keep {keep.label}({keep.name}) retains values across visits "
            f"but none is ever read after surviving a drain; the claimed "
            f"saving of {claimed} word(s) of traffic is never realised",
            location=f"keep {keep.label}",
            cost_words=claimed,
            object=keep.name,
            fb_set=keep.fb_set,
            span=list(keep.span),
        )


def check_capacity(ir: ProgramIR, hb: HappensBefore, emit: Emit) -> None:
    """HAZ003: CM/FB residency within capacity at every HB point."""
    program = ir.program
    schedule = program.schedule

    # Context-memory blocks: a refill must fit the block.
    starts = ir.group_starts
    for pos, visit_index in enumerate(ir.visit_index):
        first, last = starts[4 * pos], starts[4 * pos + 1]
        if first == last:
            continue
        words = sum(
            ir.acc_end[row] - ir.acc_start[row]
            for row in range(
                bisect_left(ir.acc_node, first),
                bisect_left(ir.acc_node, last),
            )
        )
        if words > ir.cm_block_capacity:
            visit = program.visits[visit_index].visit
            emit(
                "HAZ003",
                f"CM block {visit.cm_block} refill needs {words} words, "
                f"capacity is {ir.cm_block_capacity}",
                location=f"visit {visit_index}",
                cost_words=words - ir.cm_block_capacity,
                cm_block=visit.cm_block,
            )

    # Frame-buffer residency along the program order: every definition
    # sits at an even position and every release at an odd one, so the
    # running sum over positions peaks exactly where the event sweep
    # does, and first reaches that peak at the same position.
    for fb_set in (0, 1):
        delta = [0] * (2 * len(ir.node_kind) + 2)
        for value_set, words, node, release in zip(
            ir.val_set, ir.val_words, ir.val_def, ir.val_release
        ):
            if value_set != fb_set or words <= 0:
                continue
            delta[2 * node] += words
            delta[release] -= words
        residency = list(accumulate(delta))
        peak = max(residency)
        if peak > ir.fb_capacity:
            visit_index = _visit_at(ir, residency.index(peak))
            emit(
                "HAZ003",
                f"FB set {fb_set} residency reaches {peak} words, "
                f"capacity is {ir.fb_capacity}",
                location=f"visit {visit_index}",
                cost_words=peak - ir.fb_capacity,
                fb_set=fb_set,
            )

    # Overlap windows where arriving loads overtake departing stores:
    # the set briefly holds both; the adaptive policy's own soundness
    # bound (departing stores + arriving DS(C) <= FBS) must hold.
    visits = program.visits
    dataflow = schedule.dataflow
    for window in hb.loads_first_windows:
        departing = visits[window - 1]
        arriving = visits[window + 1]
        if departing.visit.fb_set != arriving.visit.fb_set:
            continue
        plan = schedule.plan_for(arriving.visit.cluster_index)
        outgoing = schedule.plan_for(
            departing.visit.cluster_index
        ).store_words(dataflow, len(departing.visit.iterations))
        need = outgoing + plan.peak_occupancy
        if need > schedule.fb_set_words:
            emit(
                "HAZ003",
                f"overlap window at visit {window}: arriving loads of "
                f"visit {window + 1} overtake departing stores of visit "
                f"{window - 1}; worst-case residency {need} words exceeds "
                f"the {schedule.fb_set_words}-word set "
                f"(policy {hb.policy.name})",
                location=f"visit {window}",
                cost_words=need - schedule.fb_set_words,
                fb_set=arriving.visit.fb_set,
                policy=hb.policy.name,
            )


def _visit_at(ir: ProgramIR, pos: int) -> int:
    """Visit index owning doubled node position *pos*."""
    node_id = min(pos // 2, len(ir.node_kind) - 1)
    if node_id < 0:
        return 0
    return ir.node_visit[node_id]


def run_hazard_passes(ir: ProgramIR, hb: HappensBefore, emit: Emit) -> None:
    """Run all five hazard passes, each timed as its own ``analysis/``
    stage."""
    with time_stage("races", scope="analysis"):
        check_races(ir, hb, emit)
    with time_stage("interference", scope="analysis"):
        check_interference(ir, emit)
    with time_stage("dead_transfers", scope="analysis"):
        check_dead_transfers(ir, emit)
    with time_stage("retention", scope="analysis"):
        check_retention_liveness(ir, emit)
    with time_stage("capacity", scope="analysis"):
        check_capacity(ir, hb, emit)
