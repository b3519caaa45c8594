"""The block lowering of templated programs.

A templated program (``program.visits`` a
:class:`~repro.codegen.templated.TemplateVisits`) is lowered one block
per (visit, template entry): the visit's context loads, one planned
load, one kernel or one store, over the visit's iteration window.
Within a block, node ids, value ids, instances and access rows are
affine in the iteration, and an input resolves the same way for every
iteration — to this visit's load or output, to a survivor of an earlier
visit, or to the kept home set — so each block is a few Python scalars:

* a *value family* per object a block defines (value ids ``base +
  stride * local``, instances and defining nodes ``+ local``);
* an *access family* per block operand (one access per node, of values
  or of one context-memory range).

The families are expanded into the :class:`~repro.dataflow.ir.ProgramIR`
columns by ``arange`` arithmetic at the end.  The allocator's segments
(:class:`~repro.alloc.maps.Segment`, instances at affine
addresses) are expanded the same way into its placements, in records
order, and each value's placement is looked up among them as sorted
keys.  Neither the ops nor the allocation records are materialised.
The result equals the op walk of :mod:`repro.dataflow.opwalk` column
for column; a block that does not resolve alike for every iteration
sends the program to the op walk.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.codegen.program import Program
from repro.codegen.templated import TemplateVisits
from repro.dataflow.ir import (
    _LOAD,
    _RUN,
    _STORE,
    PlaceExtents,
    ProgramIR,
    expand_ranges,
    kernel_io,
)
from repro.obs.metrics import inc, metrics_active

__all__ = ["lower_templates"]

_START_SIZE = attrgetter("start", "size")

class _Irregular(Exception):
    """A block whose iterations do not all resolve alike: the program
    is lowered by the op walk instead."""


def _scatter(
    count: List[int], pos_base: List[int], pos_stride: List[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand families of ``count`` affine items, item ``local`` of a
    family going to position ``pos_base + pos_stride * local``: per
    position, its family and local index (the positions must tile
    ``range(sum(count))``)."""
    counts = np.asarray(count, np.int32)
    family = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    local = np.arange(len(family), dtype=np.int32) - (
        np.cumsum(counts, dtype=np.int32) - counts
    ).take(family)
    at = (np.asarray(pos_base, np.int32).take(family)
          + np.asarray(pos_stride, np.int32).take(family) * local)
    order = np.empty(len(at), np.int32)
    order[at] = np.arange(len(at), dtype=np.int32)
    return family.take(order), local.take(order)


def _record_places(
    allocations: Optional[Sequence[object]],
) -> Tuple[Tuple[List[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                 np.ndarray], Tuple[np.ndarray, ...]]:
    """The maps' placements in records order, set 0's first, expanded
    from their segments (:meth:`AllocationMap.placement_columns`) by
    ``arange`` arithmetic over one segment table: the segment names,
    and per placement its set, segment, instance, cluster and placement
    row (-1 when it has no extents); then per placement row its first
    span and span count, and the spans' starts and sizes."""
    names: List[str] = []
    table: List[List[int]] = [[] for _ in range(10)]
    listed: Dict[int, Tuple[object, ...]] = {}
    for fb_set, alloc_map in enumerate(allocations or ()):
        columns = alloc_map.placement_columns()
        base = len(names)
        names += columns.names
        table[0] += [fb_set] * len(columns.names)
        for row, column in zip(table[1:], (
            columns.count, columns.first, columns.cluster, columns.start,
            columns.stride, columns.size, columns.order_step,
            columns.order_stride, columns.order_pos,
        )):
            row += column
        for index, extents in enumerate(columns.extents, base):
            if extents is not None:
                listed[index] = extents
    if not names:
        empty = np.empty(0, np.int32)
        return (names, empty, empty, empty, empty, empty), (empty,) * 4
    segments = np.array(table, np.int64)
    k, seg = expand_ranges(
        np.zeros(len(names), np.int32), segments[1].astype(np.int32)
    )
    (sets, _, first, cluster, start, stride, size, step, step_stride,
     pos) = segments.take(seg, axis=1)
    instance = first + k
    order = np.lexsort((instance, pos, step + step_stride * k, sets))
    seg = seg.take(order)
    k = k.take(order)
    start = start.take(order) + stride.take(order) * k
    size = size.take(order)
    spans = np.ones(len(order), np.int32)
    if listed:
        # Split placements (and maps given as records) list their
        # extents: their span rows follow the affine ones.
        rows = len(order)
        lo = np.arange(rows, dtype=np.int32)
        ext_spans: List[Tuple[int, int]] = []
        for at in np.flatnonzero(np.isin(seg, list(listed))).tolist():
            extents = listed[int(seg[at])]
            lo[at] = rows + len(ext_spans)
            spans[at] = len(extents)
            ext_spans += map(_START_SIZE, extents)
        row, _ = expand_ranges(lo, lo + spans)
        ext = np.array(ext_spans, np.int64).reshape(-1, 2)
        start = np.concatenate([start, ext[:, 0]]).take(row)
        size = np.concatenate([size, ext[:, 1]]).take(row)
    placed = spans > 0
    place = np.where(placed, np.cumsum(placed, dtype=np.int32) - 1, -1)
    place_spans = spans[placed]
    place_first = np.cumsum(place_spans, dtype=np.int32) - place_spans
    return (
        (names, sets.take(order).astype(np.int32), seg,
         instance.take(order).astype(np.int32),
         cluster.take(order).astype(np.int32), place.astype(np.int32)),
        (place_first, place_spans, start.astype(np.int32),
         size.astype(np.int32)),
    )


def _lookup_places(
    records: Tuple[List[str], np.ndarray, np.ndarray, np.ndarray,
                   np.ndarray, np.ndarray],
    codes: Dict[str, int],
    fb_set: np.ndarray,
    code: np.ndarray,
    in_round: np.ndarray,
    cluster: np.ndarray,
) -> np.ndarray:
    """The placement of each value: the record of its (set, name,
    in-round instance) for its cluster, else the only record of that
    instance when exactly one cluster has one, else -1 — the op walk's
    per-record table, as sorted keys."""
    if not len(code):
        return np.empty(0, np.int32)
    names, sets, name, instances, clusters, places = records
    rec_code = np.array(
        [codes.get(entry, -1) for entry in names], np.int64
    ).take(name)
    known = rec_code >= 0
    rec_set = sets.astype(np.int64)[known]
    rec_code = rec_code[known]
    rec_instance = instances.astype(np.int64)[known]
    rec_cluster = clusters.astype(np.int64)[known]
    rec_place = places[known]
    width = max(int(rec_instance.max(initial=0)), int(in_round.max())) + 1
    clusters_n = max(int(rec_cluster.max(initial=0)), int(cluster.max())) + 1
    names_n = len(codes)

    def instance_key(s, c, i):
        return (s.astype(np.int64) * names_n + c) * width + i

    rec_key = instance_key(rec_set, rec_code, rec_instance)
    rec_full = rec_key * clusters_n + rec_cluster
    order = np.argsort(rec_full, kind="stable")
    rec_full = rec_full.take(order)
    # A later record of the same (set, name, instance, cluster) wins.
    last = np.ones(len(rec_full), np.bool_)
    last[:-1] = rec_full[1:] != rec_full[:-1]
    rec_full = rec_full[last]
    rec_key = rec_key.take(order)[last]
    rec_place = rec_place.take(order)[last]

    key = instance_key(fb_set, code, in_round)
    place = np.full(len(key), -1, np.int32)
    if not len(rec_full):
        return place
    lo = np.searchsorted(rec_key, key, side="left")
    only = np.flatnonzero(np.searchsorted(rec_key, key, side="right") - lo
                          == 1)
    place[only] = rec_place.take(lo.take(only))
    full = key * clusters_n + cluster
    at = np.minimum(np.searchsorted(rec_full, full), len(rec_full) - 1)
    exact = np.flatnonzero(rec_full.take(at) == full)
    place[exact] = rec_place.take(at.take(exact))
    return place


def lower_templates(
    program: Program,
    visits: TemplateVisits,
    allocations: Optional[Sequence[object]],
) -> Optional[ProgramIR]:
    """Lower a templated program block by block; ``None`` when some
    block does not resolve alike for every iteration."""
    try:
        return _lower_blocks(program, visits, allocations)
    except _Irregular:
        return None


def _lower_blocks(
    program: Program,
    visits: TemplateVisits,
    allocations: Optional[Sequence[object]],
) -> ProgramIR:
    # The stamping schedule gives the rounds; the program's, every fact
    # the op walk reads from it.
    schedule = program.schedule
    stamped = visits.schedule
    templates = visits.templates
    last_cluster = len(schedule.clustering) - 1
    keep_set = {keep.name: keep.fb_set for keep in schedule.keeps}
    kernel_inputs, kernel_outputs = kernel_io(schedule)

    records, (place_first, place_spans, rec_start, rec_size) = (
        _record_places(allocations)
    )
    # Each context-memory range gets a placement of one span after the
    # records': ``(start, size)`` per range.
    places = len(place_first)
    cm_spans: List[Tuple[int, int]] = []

    # Value families: the values one block defines for one object, in
    # value-id order ``base + stride * local``, instance ``instance +
    # local`` and defining node ``node + local`` (``local`` over the
    # window, or 0 alone for an iteration-invariant load).
    codes: Dict[str, int] = {}
    f_base: List[int] = []
    f_stride: List[int] = []
    f_count: List[int] = []
    f_code: List[int] = []
    f_instance: List[int] = []
    f_set: List[int] = []
    f_words: List[int] = []
    f_node: List[int] = []
    f_kind: List[int] = []
    f_cluster: List[int] = []
    f_kept: List[bool] = []
    f_fixed: List[bool] = []
    f_stored: List[bool] = []
    f_survived: List[bool] = []
    # The drain: visit, and end node ``end + end_stride * local``.
    f_end_visit: List[int] = []
    f_end: List[int] = []
    f_end_stride: List[int] = []
    # The last kernel read: node ``read + read_stride * local``, or -1.
    f_read: List[int] = []
    f_read_stride: List[int] = []
    # Access families: per block and operand, one access per node
    # ``node + local`` at position ``at + at_stride * local`` among the
    # program's accesses, of ``ref + ref_stride * local``: a value in
    # its FB set (``slot`` -1) or a context placement in CM slot
    # ``slot``.
    a_at: List[int] = []
    a_at_stride: List[int] = []
    a_count: List[int] = []
    a_node: List[int] = []
    a_ref: List[int] = []
    a_ref_stride: List[int] = []
    a_write: List[bool] = []
    a_slot: List[int] = []
    visit_set: List[int] = []
    visit_cluster: List[int] = []
    visit_iters: List[int] = []
    group_starts: List[int] = []

    def new_family(name: str, base: int, stride: int, count: int,
                   instance: int, fb_set: int, words: int, node: int,
                   kind: int, cluster: int, fixed: bool) -> int:
        family = len(f_base)
        f_base.append(base)
        f_stride.append(stride)
        f_count.append(count)
        f_code.append(codes.setdefault(name, len(codes)))
        f_instance.append(instance)
        f_set.append(fb_set)
        f_words.append(words)
        f_node.append(node)
        f_kind.append(kind)
        f_cluster.append(cluster)
        f_kept.append(keep_set.get(name) == fb_set)
        f_fixed.append(fixed)
        f_stored.append(False)
        f_survived.append(False)
        f_end_visit.append(-1)
        f_end.append(0)
        f_end_stride.append(0)
        f_read.append(-1)
        f_read_stride.append(0)
        return family

    def access(at: int, at_stride: int, count: int, node: int, ref: int,
               ref_stride: int, write: bool, slot: int = -1) -> None:
        a_at.append(at)
        a_at_stride.append(at_stride)
        a_count.append(count)
        a_node.append(node)
        a_ref.append(ref)
        a_ref_stride.append(ref_stride)
        a_write.append(write)
        a_slot.append(slot)

    def close(family: int, visit: int, end: int, stride: int) -> None:
        f_end_visit[family] = visit
        f_end[family] = end
        f_end_stride[family] = stride

    def operand(family: int, count: int) -> int:
        """The value-id stride of a block of *count* nodes reading one
        value per node from *family* (0 for an invariant one)."""
        if f_fixed[family]:
            return 0
        if f_count[family] != count:
            raise _Irregular
        return f_stride[family]

    survivors_memo: Dict[int, FrozenSet[str]] = {}
    # Live value families per set, keyed by name: a family holds every
    # instance of the window (or the one invariant instance).
    live: List[Dict[str, int]] = [{}, {}]
    # Per CM block, kernel -> context placement of the last refill; per
    # (template, parity), the context placements and their first one.
    cm_regions: List[Dict[str, int]] = [{}, {}]
    refills: Dict[Tuple[int, int], Tuple[Dict[str, int], int]] = {}
    node = value = entries = blocks = 0
    index = -1
    next_iteration = 0
    for round_index in range(stamped.rounds):
        count = stamped.iterations_in_round(round_index)
        round_start = next_iteration
        next_iteration += count
        for position, template in enumerate(templates):
            index += 1
            fb_set = template.fb_set
            cluster = template.cluster_index
            block = index % 2
            in_set = live[fb_set]
            visit_set.append(fb_set)
            visit_cluster.append(cluster)
            visit_iters.append(count)

            group_starts.append(node)
            context_loads = template.context_loads[block]
            if context_loads:
                refill = refills.get((position, block))
                if refill is None:
                    region: Dict[str, int] = {}
                    first = places + len(cm_spans)
                    offset = 0
                    for load in context_loads:
                        region[load.kernel] = places + len(cm_spans)
                        cm_spans.append((offset, load.words))
                        offset += load.words
                    refill = refills[(position, block)] = (region, first)
                cm_regions[block] = refill[0]
                loads = len(context_loads)
                access(entries, 1, loads, node, refill[1], 1, True,
                       2 * block + 1)
                entries += loads
                node += loads
                blocks += 1

            group_starts.append(node)
            for name, words, fixed in template.loads:
                if fixed:
                    if len(fixed) != 1:
                        raise _Irregular
                    loads, instance = 1, fixed[0]
                else:
                    loads, instance = count, round_start
                family = new_family(name, value, 1, loads, instance, fb_set,
                                    words, node, _LOAD, cluster, bool(fixed))
                access(entries, 1, loads, node, value, 1, True)
                previous = in_set.get(name)
                if previous is not None:
                    # Redundant load (PROG005): the old values are
                    # clobbered, one per load node.
                    if f_count[previous] != loads:
                        raise _Irregular
                    close(previous, index, node, 1)
                in_set[name] = family
                entries += loads
                node += loads
                value += loads
                blocks += 1

            group_starts.append(node)
            region = cm_regions[block]
            for kernel, _ in template.compute:
                cm = region.get(kernel, -1)
                operands: List[int] = []
                for in_name, in_invariant in kernel_inputs[kernel]:
                    family = in_set.get(in_name)
                    if family is None:
                        home = keep_set.get(in_name)
                        if home is not None and home != fb_set:
                            family = live[home].get(in_name)
                    if family is None:
                        continue  # use-before-load: PROG001's territory
                    if f_fixed[family] != in_invariant:
                        raise _Irregular
                    operands.append(family)
                outputs = kernel_outputs[kernel]
                width = (cm >= 0) + len(operands) + len(outputs)
                at = entries
                if cm >= 0:
                    access(at, width, count, node, cm, 0, False,
                           2 * block + 1)
                    at += 1
                for family in operands:
                    access(at, width, count, node, f_base[family],
                           operand(family, count), False)
                    at += 1
                    if f_fixed[family]:
                        f_read[family] = node + count - 1
                        f_read_stride[family] = 0
                    else:
                        f_read[family] = node
                        f_read_stride[family] = 1
                for out_name, out_words in outputs:
                    family = new_family(
                        out_name, value, len(outputs), count, round_start,
                        fb_set, out_words, node, _RUN, cluster, False,
                    )
                    previous = in_set.get(out_name)
                    if previous is not None:
                        if f_fixed[previous] or f_count[previous] != count:
                            raise _Irregular
                        close(previous, index, node, 1)
                    in_set[out_name] = family
                    access(at, width, count, node, value, len(outputs), True)
                    at += 1
                    value += 1
                value += (count - 1) * len(outputs)
                entries += width * count
                node += count
                blocks += 1

            group_starts.append(node)
            for name, _ in template.stores:
                family = in_set.get(name)
                if family is not None:
                    if f_fixed[family]:
                        raise _Irregular
                    access(entries, 1, count, node, f_base[family],
                           operand(family, count), False)
                    f_stored[family] = True
                    entries += count
                node += count
                blocks += 1

            # Visit end: drain non-survivors from the visit's set.
            end_node = max(node - 1, 0)
            survivors = survivors_memo.get(position)
            if survivors is None:
                survivors = survivors_memo[position] = schedule.survivors(
                    cluster, fb_set
                )
            for name in [name for name in in_set if name not in survivors]:
                close(in_set.pop(name), index, end_node, 0)
            for family in in_set.values():
                f_survived[family] = True
            # Round end on the last cluster: both sets drain completely.
            if cluster == last_cluster:
                for other in live:
                    for family in other.values():
                        close(family, index, end_node, 0)
                    other.clear()
    group_starts.append(node)
    for other in live:
        for family in other.values():
            close(family, index, max(node - 1, 0), 0)

    if metrics_active():
        inc("blocks", blocks, scope="analysis")

    # Values, in value-id order.
    fam, local = _scatter(f_count, f_base, f_stride)

    def per_value(column: List, dtype=np.int32) -> np.ndarray:
        return np.asarray(column, dtype).take(fam)

    val_set = per_value(f_set)
    val_name = per_value(f_code)
    val_end = per_value(f_end) + per_value(f_end_stride) * local
    read = per_value(f_read)
    val_last_read = np.where(
        read >= 0, read + per_value(f_read_stride) * local, -1
    )
    val_kept = per_value(f_kept, np.bool_)
    # Stored/kept values (and never-read ones) are freed when the
    # draining visit's finish phase completes: end of that visit.
    # Plain inputs and intermediates go right after their last read.
    val_release = 2 * np.where(
        val_kept | per_value(f_stored, np.bool_) | (val_last_read < 0),
        val_end, val_last_read,
    ) + 1
    val_place = np.full(len(fam), -1, np.int32)
    if allocations:
        val_place = _lookup_places(
            records, codes, val_set, val_name, local, per_value(f_cluster),
        )
    columns: Dict[str, object] = dict(
        val_name=val_name,
        val_instance=per_value(f_instance) + local,
        val_set=val_set,
        val_words=per_value(f_words),
        val_def=per_value(f_node) + local,
        val_kind=per_value(f_kind),
        val_place=val_place,
        val_kept=val_kept,
        val_survived=per_value(f_survived, np.bool_),
        val_end_visit=per_value(f_end_visit),
        val_release=val_release,
        val_last_read=val_last_read,
    )

    # Accesses, in node order.
    fam, local = _scatter(a_count, a_at, a_at_stride)

    def per_access(column: List, dtype=np.int32) -> np.ndarray:
        return np.asarray(column, dtype).take(fam)

    access_node = per_access(a_node) + local
    ref = per_access(a_ref) + per_access(a_ref_stride) * local
    slot = per_access(a_slot)
    fb = slot < 0
    access_value = np.where(fb, ref, -1)
    access_write = per_access(a_write, np.bool_)
    of_value = np.where(fb, ref, 0)
    if not len(val_set):  # no values: no FB accesses to look up
        val_set = val_place = np.zeros(1, np.int32)
    place = np.where(fb, val_place.take(of_value), ref)
    slot = np.where(fb, 2 * val_set.take(of_value), slot)

    starts = np.asarray(group_starts, np.int32)
    visits_n = len(visit_set)
    node_kind = np.repeat(
        np.tile(np.arange(4, dtype=np.int32), visits_n), np.diff(starts)
    )
    kind = node_kind.take(access_node)
    used = np.flatnonzero(fb & ~access_write & (kind == _RUN))
    stored = np.flatnonzero(fb & (kind == _STORE))

    # One row per span of each placed access.
    cm = np.array(cm_spans, np.int32).reshape(-1, 2)
    counts = np.concatenate([place_spans, np.ones(len(cm), np.int32)])
    first = np.cumsum(counts, dtype=np.int32) - counts
    placed = np.flatnonzero(place >= 0)
    placed_place = place.take(placed)
    span, row_of = expand_ranges(
        first.take(placed_place), (first + counts).take(placed_place)
    )
    row_of = placed.take(row_of)
    span_start = np.concatenate([rec_start, cm[:, 0]])
    span_size = np.concatenate([rec_size, cm[:, 1]])

    columns.update(
        node_kind=node_kind,
        node_visit=np.repeat(np.arange(visits_n, dtype=np.int32),
                             np.diff(starts[::4])),
        visit_index=np.arange(visits_n, dtype=np.int32),
        visit_set=visit_set,
        visit_cluster=visit_cluster,
        visit_iters=visit_iters,
        group_starts=starts,
        acc_node=access_node.take(row_of),
        acc_slot=slot.take(row_of),
        acc_start=span_start.take(span),
        acc_end=span_start.take(span) + span_size.take(span),
        acc_write=access_write.take(row_of),
        acc_value=access_value.take(row_of),
        use_value=access_value.take(used),
        use_node=access_node.take(used),
        store_value=access_value.take(stored),
        store_node=access_node.take(stored),
    )
    # Every visit refills its template's contexts: Program's rule.
    cm_block_capacity = schedule.context_block_words or max(
        (template.context_total for template in templates), default=0
    ) or 1
    return ProgramIR.from_columns(
        program, allocations, cm_block_capacity, tuple(codes),
        PlaceExtents(place_first, place_spans, rec_start, rec_size), columns,
    )
