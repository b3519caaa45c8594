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

Costs, with *n* the live segments (or extents) of one address space
and *k* those an access actually overlaps:

* ``HAZ001`` is O(log n + k) per access: a bisect-indexed interval map
  spliced in place, plus one happens-before query per predecessor;
* ``HAZ002`` is O(log n + c) per extent, *c* being the live extents
  that start within the set's longest extent before it (every overlap
  among them), plus O(log n) per value to expire and insert;
* ``HAZ003`` sorts the 2V residency events of V values once, O(V log V);
* ``DFA001`` is one pass over the values, ``DFA002`` one pass over the
  nodes plus the kept values' uses.

:mod:`repro.dataflow.reference` keeps the original linear-scan HAZ001
map and HAZ002 loop as the equivalence oracle.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.dataflow.hazards import HappensBefore
from repro.dataflow.ir import COMPUTE, DATA_LOAD, ProgramIR, ValueLifetime

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

#: One interval-map segment: ``(start, end, writer, readers)``.
_Segment = Tuple[int, int, Optional[int], Tuple[int, ...]]


class _IntervalMap:
    """Last-accessor state per word over one address space.

    Segments are disjoint, sorted ``[start, end)`` ranges, each holding
    the last writing node and the reading nodes since that write.
    ``_starts`` mirrors the segment starts for :mod:`bisect`; adjacent
    segments are never merged, so the list equals the reference map's
    (:class:`~repro.dataflow.reference.ReferenceIntervalMap`) after
    every access.
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
        # Replacement pieces in address order: left remnant, the
        # written segment or the read pieces, right remnant.
        pieces: List[_Segment] = []
        right: Optional[_Segment] = None
        cursor = start
        last = first
        count = len(segments)
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
    maps: Dict[Tuple[str, int], _IntervalMap] = {}
    conflicts: Dict[Tuple[int, int], Dict[str, object]] = {}
    for node in ir.nodes:
        for access in node.accesses:
            space = maps.setdefault(
                (access.space, access.index), _IntervalMap()
            )
            for extent in access.extents:
                preds = space.access(
                    extent.start, extent.end, node.node_id, access.write
                )
                for pred, words in preds.items():
                    pred_node = ir.nodes[pred]
                    if pred_node.kind == COMPUTE and node.kind == COMPUTE:
                        continue  # one RC array: always ordered
                    if hb.happens_before(pred, node.node_id):
                        continue
                    key = (pred, node.node_id)
                    entry = conflicts.setdefault(key, {
                        "space": access.space,
                        "index": access.index,
                        "words": 0,
                        "reversed": hb.happens_before(node.node_id, pred),
                    })
                    entry["words"] = int(entry["words"]) + words
    for (pred, succ), entry in sorted(conflicts.items()):
        succ_node = ir.nodes[succ]
        space = "CM block" if entry["space"] == "cm" else "FB set"
        how = (
            "is overtaken by" if entry["reversed"]
            else "is unordered against"
        )
        emit(
            "HAZ001",
            f"{ir.describe(pred)} {how} {ir.describe(succ)} on "
            f"{entry['words']} shared word(s) of {space} {entry['index']} "
            f"under policy {hb.policy.name}",
            location=f"visit {succ_node.visit_index}",
            cost_words=int(entry["words"]),
            policy=hb.policy.name,
            first=ir.describe(pred),
            second=ir.describe(succ),
            space=f"{entry['space']}{entry['index']}",
            reversed_order=bool(entry["reversed"]),
        )


def check_interference(ir: ProgramIR, emit: Emit) -> None:
    """HAZ002: simultaneously-live values never share FB words."""
    if not ir.has_placement:
        return
    for fb_set in (0, 1):
        placed = [
            value for value in ir.values
            if value.fb_set == fb_set and value.extents
        ]
        placed.sort(key=lambda value: value.def_pos)
        maxlen = max(
            (extent.size for value in placed for extent in value.extents),
            default=0,
        )
        # Live values: a heap by release position, and their extents
        # as ``(start, order, k, end)`` in address order, where *order*
        # is the value's index in *placed* (the active-list order).
        expiry: List[Tuple[int, int]] = []
        live: List[Tuple[int, int, int, int]] = []
        for order, value in enumerate(placed):
            while expiry and expiry[0][0] <= value.def_pos:
                _, gone = heappop(expiry)
                for k, extent in enumerate(placed[gone].extents):
                    del live[bisect_left(live, (extent.start, gone, k))]
            hits: Set[int] = set()
            for a in value.extents:
                # An extent overlapping *a* starts within maxlen of it.
                lo = bisect_left(live, (a.start - maxlen + 1,))
                hi = bisect_left(live, (a.end,))
                for _, other, _, b_end in live[lo:hi]:
                    if b_end > a.start:
                        hits.add(other)
            for other_order in sorted(hits):
                other = placed[other_order]
                overlap = sum(
                    min(a.end, b.end) - max(a.start, b.start)
                    for a in value.extents
                    for b in other.extents
                    if a.overlaps(b)
                )
                emit(
                    "HAZ002",
                    f"{value.name}#{value.instance} and "
                    f"{other.name}#{other.instance} are live "
                    f"simultaneously on {overlap} shared word(s) of "
                    f"FB set {fb_set}",
                    location=f"visit {value.def_visit}",
                    cost_words=overlap,
                    first=f"{other.name}#{other.instance}",
                    second=f"{value.name}#{value.instance}",
                    fb_set=fb_set,
                )
            heappush(expiry, (value.release_pos, order))
            for k, extent in enumerate(value.extents):
                insort(live, (extent.start, order, k, extent.end))


def check_dead_transfers(ir: ProgramIR, emit: Emit) -> None:
    """DFA001: loaded-but-never-read values are wasted traffic."""
    for value in ir.values:
        if value.def_kind != DATA_LOAD or value.uses:
            continue
        emit(
            "DFA001",
            f"load of {value.name}#{value.instance} into FB set "
            f"{value.fb_set} is never read by any kernel "
            f"({value.words} wasted word(s))",
            location=f"visit {value.def_visit}",
            cost_words=value.words,
            object=value.name,
            instance=value.instance,
            fb_set=value.fb_set,
        )


def check_retention_liveness(ir: ProgramIR, emit: Emit) -> None:
    """DFA002: retained values must be reused before eviction."""
    schedule = ir.program.schedule
    if not schedule.keeps:
        return
    by_keep: Dict[str, List[ValueLifetime]] = {}
    for value in ir.values:
        if value.kept:
            by_keep.setdefault(value.name, []).append(value)
    node_visit = {node.node_id: node.visit_index for node in ir.nodes}
    total_iterations = schedule.application.total_iterations
    for keep in schedule.keeps:
        values = by_keep.get(keep.name, ())
        survivors = [value for value in values if value.survived_drain]
        if not survivors:
            continue
        reused = any(
            node_visit[use] > value.def_visit
            for value in survivors
            for use in value.uses
        )
        if reused:
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
    for group in ir.visit_nodes:
        if not group.context_loads:
            continue
        words = sum(
            ir.nodes[node].op.words for node in group.context_loads
        )
        if words > ir.cm_block_capacity:
            visit = program.visits[group.visit_index].visit
            emit(
                "HAZ003",
                f"CM block {visit.cm_block} refill needs {words} words, "
                f"capacity is {ir.cm_block_capacity}",
                location=f"visit {group.visit_index}",
                cost_words=words - ir.cm_block_capacity,
                cm_block=visit.cm_block,
            )

    # Frame-buffer residency along the program order.
    for fb_set in (0, 1):
        events: List[Tuple[int, int, int]] = []
        for value in ir.values:
            if value.fb_set != fb_set or value.words <= 0:
                continue
            events.append((value.def_pos, 1, value.words))
            events.append((value.release_pos, 0, -value.words))
        events.sort()
        current = 0
        peak = 0
        peak_pos = 0
        for pos, _, delta in events:
            current += delta
            if current > peak:
                peak = current
                peak_pos = pos
        if peak > ir.fb_capacity:
            visit_index = _visit_at(ir, peak_pos)
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
    node_id = min(pos // 2, len(ir.nodes) - 1)
    if node_id < 0:
        return 0
    return ir.nodes[node_id].visit_index


def run_hazard_passes(ir: ProgramIR, hb: HappensBefore, emit: Emit) -> None:
    """Run all five hazard passes."""
    check_races(ir, hb, emit)
    check_interference(ir, emit)
    check_dead_transfers(ir, emit)
    check_retention_liveness(ir, emit)
    check_capacity(ir, hb, emit)
