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

The passes read the NumPy columns of :class:`~repro.dataflow.ir.ProgramIR`
(access rows, value columns, node kinds and visits) and of
:class:`~repro.dataflow.hazards.HappensBefore` as array expressions,
never its lazy ``IRNode``/``ValueLifetime`` view: Python touches only
the findings, and objects are built only for the nodes a finding names.
HAZ001 and HAZ002 are array sweeps over *atoms*: per address
slot, the ranges between consecutive distinct row breakpoints, so each
row covers a contiguous run of atoms.  Costs, with *R* the access rows
(or placed spans), *I* their (atom, row) incidences — a few per row,
whatever the round count — and *N* the nodes:

* ``HAZ001`` is O(R + I + N) array work, plus a mask over the slots'
  words and a stable sort of the incidences (a radix sort up to 65,535
  atoms): a running maximum finds each incidence's previous write in
  its atom, the at most 2 *I* pairs that implies are decided from
  per-node happens-before arrays at once, and only unordered pairs
  reach Python;
* ``HAZ002`` is the same refinement over the placed spans, a running
  maximum of release positions per atom, and for each incidence that
  meets an earlier live value a scan of its atom's earlier incidences;
* ``HAZ003`` sums each visit's context rows from a running sum over the
  rows, bounded by ``searchsorted`` over the row nodes, for the CM
  check, and takes the FB residency as a running sum of per-position
  ``bincount`` deltas, O(R + N + V);
* ``DFA001`` is one mask over the value columns, ``DFA002`` one over
  them plus, when a kept value survived a drain, one over the kernel
  reads.

:mod:`repro.dataflow.reference` keeps the original interval-map HAZ001
loop and active-list HAZ002 loop as the equivalence oracle.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set, Tuple

import numpy as np

from repro.dataflow.hazards import HappensBefore
from repro.dataflow.ir import (
    COMPUTE,
    DATA_LOAD,
    KINDS,
    ProgramIR,
    expand_ranges,
)
from repro.obs.metrics import inc, metrics_active, time_stage

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


def _incidences(
    slot: np.ndarray, start: np.ndarray, end: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (atom, row) incidences of the ranges ``[start, end)`` per slot.

    The atoms of a slot are the ranges between its consecutive distinct
    row breakpoints (every row's start and end), so each row covers a
    contiguous run of atoms and two rows share a word exactly when they
    share an atom.  Returns int32 arrays giving, per incidence in atom
    order (ascending rows within an atom), its row, its atom's words
    and the position of its atom's first incidence.  Empty rows have no
    incidence.
    """
    # One key per (slot, word), in a mask bounded by the slots'
    # capacities: flatnonzero yields the breakpoints sorted, and a table
    # over the same keys maps each breakpoint to its rank.
    width = int(end.max()) + 1
    base = slot.astype(np.intp) * width
    lo = base + start
    hi = base + end
    mask = np.zeros(int(hi.max()) + 1, np.bool_)
    mask[lo] = True
    mask[hi] = True
    points = np.flatnonzero(mask)
    rank = np.empty(len(mask), np.int32)
    rank[points] = np.arange(len(points), dtype=np.int32)
    atom, row = expand_ranges(rank.take(lo), rank.take(hi))
    del mask, rank  # the word tables are the largest arrays here
    # A stable sort keeps rows in program order within an atom; 16-bit
    # keys take NumPy's radix sort.
    key = atom.astype(np.uint16) if len(points) <= 0x10000 else atom
    order = np.argsort(key, kind="stable")
    atom = atom.take(order)
    count = np.bincount(atom, minlength=len(points) - 1)
    first = (np.cumsum(count) - count).astype(np.int32)
    words = np.diff(points).astype(np.int32)
    return row.take(order), words.take(atom), first.take(atom)


def _accessor_pairs(
    write: np.ndarray, first: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The (predecessor, successor) incidences of the last-accessor map.

    Over incidences in atom order, with *first* the position of each
    one's atom start: every incidence follows the previous write of its
    atom, and a write also follows every read since that write.
    """
    last = np.maximum.accumulate(
        np.where(write, np.arange(len(write), dtype=np.int32), -1)
    )
    previous = np.roll(last, 1)
    previous[:1] = -1
    previous[previous < first] = -1
    after_write = np.flatnonzero(previous >= 0)
    writes = np.flatnonzero(write).astype(np.int32)
    readers, reader_of = expand_ranges(
        np.maximum(previous.take(writes) + 1, first.take(writes)), writes
    )
    return (
        np.concatenate((previous.take(after_write), readers)),
        np.concatenate((after_write.astype(np.int32), writes.take(reader_of))),
    )


def _unordered(
    ir: ProgramIR, hb: HappensBefore, pred: np.ndarray, succ: np.ndarray
) -> np.ndarray:
    """Indices of the (pred, succ) node pairs that may race.

    :meth:`HappensBefore.happens_before` over arrays: a predecessor
    whose rank (channel position of a transfer, visit of a kernel run)
    is at most the successor's bound for its kind happens before it.  A
    transfer must come before a transfer's position, or by a kernel
    run's visit's last preparation; a kernel run's visit must be at
    most a transfer's gating prefix.  Self pairs and kernel runs after
    kernel runs (one RC array: always ordered) never race.
    """
    nodes = len(ir.node_kind)
    transfers, runs = hb.transfer_nodes, hb.run_nodes
    channel = np.arange(len(transfers), dtype=np.int32)
    rank = np.empty(nodes, np.int32)
    rank[transfers] = channel
    rank[runs] = hb.run_visits
    # bound[:nodes] for kernel-run predecessors, bound[nodes:] for
    # transfer ones; side picks the half by the predecessor's kind.
    bound = np.full(2 * nodes, -1, np.int32)
    bound[nodes + transfers] = channel - 1
    bound[nodes + runs] = hb.maxprep.take(hb.run_visits)
    bound[transfers] = hb.maxrel
    side = np.zeros(nodes, np.int32)
    side[transfers] = nodes
    running = np.asarray(ir.node_kind) == _RUN
    return np.flatnonzero(
        (rank.take(pred) > bound.take(side.take(pred) + succ))
        & (pred != succ) & ~(running.take(pred) & running.take(succ))
    )


def check_races(ir: ProgramIR, hb: HappensBefore, emit: Emit) -> None:
    """HAZ001: program order vs. happens-before over shared words.

    Per atom, each incidence's predecessors are the node of the previous
    write incidence and, for a write, every read incidence since that
    write (with multiplicity); a pair shares its atom's words.  That is
    the last-accessor map of
    :class:`~repro.dataflow.reference.ReferenceIntervalMap`, word for
    word.  Every pair is decided at once from per-node happens-before
    arrays, and only the unordered ones reach Python.
    """
    rows = len(ir.acc_node)
    if not rows:
        return
    acc_slot = np.asarray(ir.acc_slot, np.int32)
    row, words, first = _incidences(
        acc_slot,
        np.asarray(ir.acc_start, np.int32),
        np.asarray(ir.acc_end, np.int32),
    )
    if metrics_active():
        inc("rows", rows, scope="analysis")
        inc("incidences", len(row), scope="analysis")
    pred_at, succ_at = _accessor_pairs(
        np.asarray(ir.acc_write, np.bool_).take(row), first
    )
    node = np.asarray(ir.acc_node, np.int32).take(row)
    racing = _unordered(ir, hb, node.take(pred_at), node.take(succ_at))
    if not racing.size:
        return
    pred_at, succ_at = pred_at.take(racing), succ_at.take(racing)
    # (pred, succ) -> [first row, words]
    conflicts: Dict[Tuple[int, int], List[int]] = {}
    for a, b, at, shared in zip(
        node.take(pred_at).tolist(), node.take(succ_at).tolist(),
        row.take(succ_at).tolist(), words.take(succ_at).tolist(),
    ):
        entry = conflicts.get((a, b))
        if entry is None:
            conflicts[(a, b)] = [at, shared]
            continue
        if at < entry[0]:
            entry[0] = at
        entry[1] += shared
    for (pred_node, succ_node), (at, shared) in sorted(conflicts.items()):
        slot = int(acc_slot[at])
        reverse = hb.happens_before(succ_node, pred_node)
        space, index = ("fb", "cm")[slot & 1], slot >> 1
        label = "CM block" if space == "cm" else "FB set"
        how = "is overtaken by" if reverse else "is unordered against"
        first_label = ir.describe(pred_node)
        second_label = ir.describe(succ_node)
        emit(
            "HAZ001",
            f"{first_label} {how} {second_label} on "
            f"{shared} shared word(s) of {label} {index} "
            f"under policy {hb.policy.name}",
            location=f"visit {int(ir.node_visit[succ_node])}",
            cost_words=shared,
            policy=hb.policy.name,
            first=first_label,
            second=second_label,
            space=f"{space}{index}",
            reversed_order=bool(reverse),
        )


#: A value label for HAZ002 messages: ``(name, instance, def_visit)``.
_Label = Tuple[str, int, int]


def _placed(ir: ProgramIR) -> Tuple[List[Tuple[int, ...]], List[_Label]]:
    """The spans of a stand-in IR that only lists value objects (the
    reference tests build such), for the HAZ002 sweep.

    Returns one ``(fb_set, value, start, end, def_pos, release_pos)``
    row per span and one label per value, values numbered per set in
    definition order, set 0 first.
    """
    spans: List[Tuple[int, ...]] = []
    labels: List[_Label] = []
    for fb_set in (0, 1):
        placed = sorted(
            (value for value in ir.values
             if value.fb_set == fb_set and value.extents),
            key=lambda value: value.def_pos,
        )
        for value in placed:
            spans.extend(
                (fb_set, len(labels), extent.start, extent.end,
                 value.def_pos, value.release_pos)
                for extent in value.extents
            )
            labels.append((value.name, value.instance, value.def_visit))
    return spans, labels


def check_interference(ir: ProgramIR, emit: Emit) -> None:
    """HAZ002: simultaneously-live values never share FB words.

    The spans of the placed values are the FB write rows that name a
    value: each is written over its spans once, at its definition, in
    value order.  Over their atoms, an exclusive running maximum of the
    release positions flags the incidences whose atom holds an earlier
    value still live at their definition; only those enumerate the
    earlier incidences of their atom.
    """
    if not ir.has_placement:
        return
    if isinstance(ir, ProgramIR):
        placed = np.flatnonzero((ir.acc_value >= 0) & ir.acc_write)
        if not placed.size:
            return
        value = ir.acc_value.take(placed)
        fb_set = ir.acc_slot.take(placed) >> 1
        start = ir.acc_start.take(placed)
        end = ir.acc_end.take(placed)
        define = 2 * ir.acc_node.take(placed)
        release = ir.val_release.take(value)

        def label(v: int) -> _Label:
            return (ir.name_of(v), int(ir.val_instance[v]),
                    int(ir.node_visit[ir.val_def[v]]))
    else:
        spans, labels = _placed(ir)
        if not spans:
            return
        fb_set, value, start, end, define, release = np.array(
            spans, np.int32
        ).T
        label = labels.__getitem__

    row, words, first = _incidences(fb_set, start, end)
    value, define = value.take(row), define.take(row)
    release = release.take(row)
    # Exclusive running maximum of the releases within each atom:
    # offsetting each atom by its first position (in int64) keeps the
    # scan from crossing atoms, as atoms' incidences are contiguous.
    low = int(release.min())
    base = first.astype(np.int64) * (int(release.max()) - low + 1)
    running = np.maximum.accumulate(base + (release - low))
    earlier = np.roll(running, 1) - base + low
    flagged = np.flatnonzero(
        (np.arange(len(row)) > first) & (earlier > define)
    ).astype(np.int32)
    if not flagged.size:
        return
    other, of = expand_ranges(first.take(flagged), flagged)
    of = flagged.take(of)
    live = np.flatnonzero(
        (release.take(other) > define.take(of))
        & (value.take(other) != value.take(of))
    )
    other, of = other.take(live), of.take(live)
    # (fb_set, value, earlier value) -> words
    overlaps: Dict[Tuple[int, int, int], int] = {}
    for key, shared in zip(
        zip(fb_set.take(row.take(of)).tolist(), value.take(of).tolist(),
            value.take(other).tolist()),
        words.take(of).tolist(),
    ):
        overlaps[key] = overlaps.get(key, 0) + shared
    for (fb, v, o), overlap in sorted(overlaps.items()):
        name, instance, def_visit = label(v)
        other_name, other_instance, _ = label(o)
        emit(
            "HAZ002",
            f"{name}#{instance} and "
            f"{other_name}#{other_instance} are live "
            f"simultaneously on {overlap} shared word(s) of "
            f"FB set {fb}",
            location=f"visit {def_visit}",
            cost_words=overlap,
            first=f"{other_name}#{other_instance}",
            second=f"{name}#{instance}",
            fb_set=fb,
        )


def check_dead_transfers(ir: ProgramIR, emit: Emit) -> None:
    """DFA001: loaded-but-never-read values are wasted traffic."""
    dead = np.flatnonzero((ir.val_kind == _LOAD) & (ir.val_last_read < 0))
    for value, instance, fb_set, words, visit in zip(
        dead.tolist(),
        ir.val_instance.take(dead).tolist(),
        ir.val_set.take(dead).tolist(),
        ir.val_words.take(dead).tolist(),
        ir.node_visit.take(ir.val_def.take(dead)).tolist(),
    ):
        name = ir.name_of(value)
        emit(
            "DFA001",
            f"load of {name}#{instance} into FB set "
            f"{fb_set} is never read by any kernel "
            f"({words} wasted word(s))",
            location=f"visit {visit}",
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
    retained = ir.val_kept & ir.val_survived
    surviving = _names_of(ir, ir.val_name[retained])
    reread: Set[str] = set()
    if surviving:
        use = ir.use_value
        later = retained.take(use) & (
            ir.node_visit.take(ir.use_node)
            > ir.node_visit.take(ir.val_def.take(use))
        )
        reread = _names_of(ir, ir.val_name.take(use[later]))
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


def _names_of(ir: ProgramIR, codes: np.ndarray) -> Set[str]:
    """The names behind some name codes."""
    present = np.bincount(codes, minlength=len(ir.names))
    return {ir.names[code] for code in np.flatnonzero(present).tolist()}


def check_capacity(ir: ProgramIR, hb: HappensBefore, emit: Emit) -> None:
    """HAZ003: CM/FB residency within capacity at every HB point."""
    schedule = ir.program.schedule

    # Context-memory blocks: a refill must fit the block.  A visit's
    # context rows lie between its first context-load node and its first
    # data-load node.
    starts = ir.group_starts
    lo = np.searchsorted(ir.acc_node, starts[0:-1:4])
    hi = np.searchsorted(ir.acc_node, starts[1::4])
    total = np.zeros(len(ir.acc_node) + 1, np.int64)
    np.cumsum(ir.acc_end - ir.acc_start, out=total[1:])
    words = total.take(hi) - total.take(lo)
    over = np.flatnonzero((hi > lo) & (words > ir.cm_block_capacity))
    for pos, need in zip(over.tolist(), words.take(over).tolist()):
        visit_index = int(ir.visit_index[pos])
        cm_block = int(ir.acc_slot[lo[pos]]) >> 1
        emit(
            "HAZ003",
            f"CM block {cm_block} refill needs {need} words, "
            f"capacity is {ir.cm_block_capacity}",
            location=f"visit {visit_index}",
            cost_words=need - ir.cm_block_capacity,
            cm_block=cm_block,
        )

    # Frame-buffer residency along the program order: every definition
    # sits at an even position and every release at an odd one, so the
    # running sum over positions peaks exactly where the event sweep
    # does, and first reaches that peak at the same position.
    positions = 2 * len(ir.node_kind) + 2
    for fb_set in (0, 1):
        mine = np.flatnonzero((ir.val_set == fb_set) & (ir.val_words > 0))
        words = ir.val_words.take(mine)
        residency = np.cumsum(
            np.bincount(2 * ir.val_def.take(mine), words, positions)
            - np.bincount(ir.val_release.take(mine), words, positions)
        )
        at = int(residency.argmax())
        peak = int(residency[at])
        if peak > ir.fb_capacity:
            emit(
                "HAZ003",
                f"FB set {fb_set} residency reaches {peak} words, "
                f"capacity is {ir.fb_capacity}",
                location=f"visit {_visit_at(ir, at)}",
                cost_words=peak - ir.fb_capacity,
                fb_set=fb_set,
            )

    # Overlap windows where arriving loads overtake departing stores:
    # the set briefly holds both; the adaptive policy's own soundness
    # bound (departing stores + arriving DS(C) <= FBS) must hold.
    dataflow = schedule.dataflow
    visit_set = ir.visit_set.tolist()
    visit_cluster = ir.visit_cluster.tolist()
    for window in hb.loads_first_windows:
        departing, arriving = window - 1, window + 1
        if visit_set[departing] != visit_set[arriving]:
            continue
        plan = schedule.plan_for(visit_cluster[arriving])
        outgoing = schedule.plan_for(
            visit_cluster[departing]
        ).store_words(dataflow, int(ir.visit_iters[departing]))
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
                fb_set=visit_set[arriving],
                policy=hb.policy.name,
            )


def _visit_at(ir: ProgramIR, pos: int) -> int:
    """Visit index owning doubled node position *pos*."""
    node_id = min(pos // 2, len(ir.node_kind) - 1)
    if node_id < 0:
        return 0
    return int(ir.node_visit[node_id])


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
