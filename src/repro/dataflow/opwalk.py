"""The op walk: lowering any program by replaying its ops.

:func:`lower_ops` replays ``program.visits`` one op at a time, in the
verifier's order, building plain lists that it converts to the
:class:`~repro.dataflow.ir.ProgramIR` columns once, at the end.  It
lowers every program that is not templated (fuzz mutations, edited
visits) and every templated one whose blocks do not resolve alike for
every iteration; for templated programs it is the oracle of the block
lowering of :mod:`repro.dataflow.blocks`
(:func:`repro.dataflow.reference.lowering_mismatch`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.arch.frame_buffer import Extent
from repro.codegen.program import Program
from repro.dataflow.ir import (
    _CTX,
    _LOAD,
    _RUN,
    _STORE,
    ProgramIR,
    kernel_io,
)

__all__ = ["lower_ops"]


def _placement_index(
    allocations: Optional[Sequence[object]],
    extents_table: List[Tuple[Extent, ...]],
    spans_table: List[Tuple[Tuple[int, int], ...]],
) -> Optional[Tuple[Dict[Tuple[str, int], Dict[int, int]], ...]]:
    """Per-set ``(name, instance-in-round) -> {cluster -> placement}``
    tables; a placement is a row of *extents_table*/*spans_table*
    (appended here), -1 for a record without extents.

    An object consumed by several clusters of the same set gets one
    record *per consuming cluster* (each visit re-loads it into whatever
    words are free then), so the cluster index is part of the key.
    """
    if not allocations:
        return None
    tables: List[Dict[Tuple[str, int], Dict[int, int]]] = []
    for alloc_map in allocations:
        table: Dict[Tuple[str, int], Dict[int, int]] = {}
        for record in alloc_map.records:
            extents = record.extents
            place = -1
            if extents:
                place = len(extents_table)
                extents_table.append(extents)
                spans_table.append(tuple([
                    (extent.start, extent.start + extent.size)
                    for extent in extents
                ]))
            table.setdefault((record.name, record.instance), {})[
                record.cluster_index
            ] = place
        tables.append(table)
    return tuple(tables)


def lower_ops(
    program: Program,
    allocations: Optional[Sequence[object]] = None,
) -> ProgramIR:
    """Lower *program* by replaying its ops one by one; arguments as for
    :func:`~repro.dataflow.ir.lower_program`.

    The replay mirrors :func:`repro.codegen.verifier.iter_program_violations`
    exactly — survivor filtering per visit, full drain of both sets at
    round end, cross-set reads of kept operands — so it tolerates the
    same broken programs the verifier reports on (a missing operand
    becomes a value-less read, not a crash).  It builds plain lists and
    converts them to arrays once, at the end.
    """
    schedule = program.schedule
    last_cluster = len(schedule.clustering) - 1
    # The last keep of a name decides, as a name-keyed table would.
    keep_set = {keep.name: keep.fb_set for keep in schedule.keeps}
    place_extents: List[Tuple[Extent, ...]] = []
    place_spans: List[Tuple[Tuple[int, int], ...]] = []
    placement = _placement_index(allocations, place_extents, place_spans)
    invariant = {info.name for info in schedule.dataflow if info.invariant}
    kernel_inputs, kernel_outputs = kernel_io(schedule)

    node_kind: List[int] = []
    node_visit: List[int] = []
    visit_index: List[int] = []
    visit_set: List[int] = []
    visit_cluster: List[int] = []
    visit_iters: List[int] = []
    group_starts: List[int] = []
    acc_node: List[int] = []
    acc_slot: List[int] = []
    acc_start: List[int] = []
    acc_end: List[int] = []
    acc_write: List[bool] = []
    acc_value: List[int] = []
    val_name: List[str] = []
    val_instance: List[int] = []
    val_set: List[int] = []
    val_words: List[int] = []
    val_def: List[int] = []
    val_kind: List[int] = []
    val_place: List[int] = []
    val_kept: List[bool] = []
    val_survived: List[bool] = []
    val_end_visit: List[int] = []
    val_release: List[int] = []
    val_last_read: List[int] = []
    # Whether each value was stored: it then holds its words to the end
    # of the draining visit.
    val_stored: List[bool] = []
    use_value: List[int] = []
    use_node: List[int] = []
    store_value: List[int] = []
    store_node: List[int] = []

    def place_of(fb_set: int, name: str, instance: int, round_start: int,
                 cluster_index: int) -> int:
        if placement is None:
            return -1
        in_round = 0 if name in invariant else instance - round_start
        by_cluster = placement[fb_set].get((name, in_round))
        if not by_cluster:
            return -1
        place = by_cluster.get(cluster_index)
        if place is not None:
            return place
        if len(by_cluster) == 1:
            return next(iter(by_cluster.values()))
        return -1

    def new_value(name: str, instance: int, fb_set: int, words: int,
                  node: int, kind: int, place: int) -> int:
        value = len(val_name)
        val_name.append(name)
        val_instance.append(instance)
        val_set.append(fb_set)
        val_words.append(words)
        val_def.append(node)
        val_kind.append(kind)
        val_place.append(place)
        val_kept.append(keep_set.get(name) == fb_set)
        val_survived.append(False)
        val_end_visit.append(-1)
        val_release.append(-1)
        val_last_read.append(-1)
        val_stored.append(False)
        return value

    def add_rows(node: int, slot: int, place: int, write: bool,
                 value: int) -> None:
        for start, end in place_spans[place]:
            acc_node.append(node)
            acc_slot.append(slot)
            acc_start.append(start)
            acc_end.append(end)
            acc_write.append(write)
            acc_value.append(value)

    def close_value(value: int, end_visit: int, end_node: int) -> None:
        # Stored/kept values (and never-read ones) are freed when the
        # draining visit's finish phase completes: end of that visit.
        # Plain inputs and intermediates go right after their last read.
        val_end_visit[value] = end_visit
        last_read = val_last_read[value]
        if val_kept[value] or val_stored[value] or last_read < 0:
            val_release[value] = 2 * end_node + 1
        else:
            val_release[value] = 2 * last_read + 1

    # Survivor sets are per (cluster, FB set), not per visit: memoize
    # them like the verifier does instead of re-scanning the keep list
    # once per visit.
    survivors_memo: Dict[Tuple[int, int], FrozenSet[str]] = {}
    # Live value ids per set, keyed (name, instance).
    live: List[Dict[Tuple[str, int], int]] = [{}, {}]
    # Kernel -> CM word range per block, rebuilt at each refill.
    cm_regions: List[Dict[str, Tuple[int, int]]] = [{}, {}]

    for ops in program.visits:
        visit = ops.visit
        fb_set = visit.fb_set
        block = visit.cm_block
        index = visit.index
        cluster_index = visit.cluster_index
        round_start = visit.iterations[0]
        in_set = live[fb_set]
        cm_slot = 2 * block + 1
        visit_index.append(index)
        visit_set.append(fb_set)
        visit_cluster.append(cluster_index)
        visit_iters.append(len(visit.iterations))

        group_starts.append(len(node_kind))
        if ops.context_loads:
            region = cm_regions[block] = {}
            offset = 0
            for load in ops.context_loads:
                end = offset + load.words
                region[load.kernel] = (offset, end)
                acc_node.append(len(node_kind))
                acc_slot.append(cm_slot)
                acc_start.append(offset)
                acc_end.append(end)
                acc_write.append(True)
                acc_value.append(-1)
                node_kind.append(_CTX)
                node_visit.append(index)
                offset = end

        group_starts.append(len(node_kind))
        for load in ops.data_loads:
            key = (load.name, load.iteration)
            node = len(node_kind)
            place = place_of(fb_set, load.name, load.iteration,
                             round_start, cluster_index)
            value = new_value(load.name, load.iteration, fb_set, load.words,
                              node, _LOAD, place)
            if place >= 0:
                add_rows(node, 2 * fb_set, place, True, value)
            node_kind.append(_LOAD)
            node_visit.append(index)
            previous = in_set.get(key)
            if previous is not None:
                # Redundant load (PROG005): the old value is clobbered.
                close_value(previous, index, node)
            in_set[key] = value

        group_starts.append(len(node_kind))
        region = cm_regions[block]
        for run in ops.compute:
            node = len(node_kind)
            instance = run.iteration
            inputs = kernel_inputs[run.kernel]
            words = region.get(run.kernel)
            if words is not None:
                acc_node.append(node)
                acc_slot.append(cm_slot)
                acc_start.append(words[0])
                acc_end.append(words[1])
                acc_write.append(False)
                acc_value.append(-1)
            for in_name, in_invariant in inputs:
                key = (in_name, 0 if in_invariant else instance)
                value = in_set.get(key)
                if value is None:
                    home = keep_set.get(in_name)
                    if home is not None and home != fb_set:
                        value = live[home].get(key)
                if value is None:
                    continue  # use-before-load: PROG001's territory
                use_value.append(value)
                use_node.append(node)
                val_last_read[value] = node
                place = val_place[value]
                if place >= 0:
                    add_rows(node, 2 * val_set[value], place, False, value)
            for out_name, out_words in kernel_outputs[run.kernel]:
                key = (out_name, instance)
                place = place_of(fb_set, out_name, instance, round_start,
                                 cluster_index)
                value = new_value(out_name, instance, fb_set, out_words,
                                  node, _RUN, place)
                previous = in_set.get(key)
                if previous is not None:
                    close_value(previous, index, node)
                in_set[key] = value
                if place >= 0:
                    add_rows(node, 2 * fb_set, place, True, value)
            node_kind.append(_RUN)
            node_visit.append(index)

        group_starts.append(len(node_kind))
        for store in ops.stores:
            node = len(node_kind)
            value = in_set.get((store.name, store.iteration))
            if value is not None:
                store_value.append(value)
                store_node.append(node)
                val_stored[value] = True
                place = val_place[value]
                if place >= 0:
                    add_rows(node, 2 * fb_set, place, False, value)
            node_kind.append(_STORE)
            node_visit.append(index)

        # Visit end: drain non-survivors from the visit's set.
        end_node = max(len(node_kind) - 1, 0)
        survivors_key = (cluster_index, fb_set)
        survivors = survivors_memo.get(survivors_key)
        if survivors is None:
            survivors = schedule.survivors(cluster_index, fb_set)
            survivors_memo[survivors_key] = survivors
        drained = [key for key in in_set if key[0] not in survivors]
        for key in drained:
            close_value(in_set.pop(key), index, end_node)
        for value in in_set.values():
            val_survived[value] = True
        # Round end on the last cluster: both sets drain completely.
        if cluster_index == last_cluster:
            for other in live:
                for value in other.values():
                    close_value(value, index, end_node)
                other.clear()
    group_starts.append(len(node_kind))

    # A well-formed program drains everything; close leftovers anyway so
    # broken programs still produce a complete IR.
    last_node = max(len(node_kind) - 1, 0)
    last_visit = visit_index[-1] if visit_index else -1
    for other in live:
        for value in other.values():
            close_value(value, last_visit, last_node)

    # Names are coded in order of their first value.
    codes: Dict[str, int] = {}
    for name in val_name:
        codes.setdefault(name, len(codes))
    columns = dict(
        node_kind=node_kind, node_visit=node_visit, visit_index=visit_index,
        visit_set=visit_set, visit_cluster=visit_cluster,
        visit_iters=visit_iters, group_starts=group_starts,
        acc_node=acc_node, acc_slot=acc_slot, acc_start=acc_start,
        acc_end=acc_end, acc_write=acc_write, acc_value=acc_value,
        val_name=[codes[name] for name in val_name],
        val_instance=val_instance, val_set=val_set, val_words=val_words,
        val_def=val_def, val_kind=val_kind, val_place=val_place,
        val_kept=val_kept, val_survived=val_survived,
        val_end_visit=val_end_visit, val_release=val_release,
        val_last_read=val_last_read, use_value=use_value, use_node=use_node,
        store_value=store_value, store_node=store_node,
    )
    return ProgramIR.from_columns(
        program, allocations, program.cm_block_capacity, tuple(codes),
        place_extents, columns,
    )
