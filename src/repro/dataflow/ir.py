"""Lowering a compiled :class:`Program` into a def-use IR.

:func:`lower_program` replays the program once, in the verifier's
order, and fills parallel integer columns on :class:`ProgramIR`:

* per **node** (one per leaf op, numbered in program order): its kind
  code and its visit index;
* per **access row** (one per word range a node reads or writes): the
  node, the address-space slot (frame-buffer set or context-memory
  block), the ``[start, end)`` words, read or write, and the value;
* per **value** (one per resident instance of one object in one FB
  set): name, instance, set, words, defining node and kind, placement,
  keep and drain flags, the visit that drains it and the node-order
  position at which the allocator returns its words; its kernel reads
  and stores are flat ``(value, node)`` lists.

The hazard passes read those columns directly.  :attr:`ProgramIR.nodes`,
:attr:`ProgramIR.values` and :attr:`ProgramIR.visit_nodes` are lazy
sequences over them that build an :class:`IRNode` (with its
:class:`Access` tuple), a :class:`ValueLifetime` or a
:class:`VisitNodes` only when indexed or iterated — for a diagnostic's
description, ``repro analyze``, the tests and the reference passes of
:mod:`repro.dataflow.reference`.  They compare equal to the lists of
those objects.

The IR is purely *program-order*: it says what the program means, not
when the DMA channel moves the words.  The timing dimension is added
separately by :class:`repro.dataflow.hazards.HappensBefore`; the hazard
passes (:mod:`repro.dataflow.passes`) then check that the timing order
can never contradict the program order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.arch.frame_buffer import Extent
from repro.codegen.program import Program

__all__ = [
    "CONTEXT_LOAD",
    "DATA_LOAD",
    "COMPUTE",
    "STORE",
    "KINDS",
    "Access",
    "IRNode",
    "ValueLifetime",
    "VisitNodes",
    "ProgramIR",
    "lower_program",
]

#: Node kinds, one per leaf op class.
CONTEXT_LOAD = "context_load"
DATA_LOAD = "data_load"
COMPUTE = "compute"
STORE = "store"

#: The kind codes of :attr:`ProgramIR.node_kind` and
#: :attr:`ProgramIR.val_kind` index this tuple; a visit's node groups
#: come in this order too.
KINDS = (CONTEXT_LOAD, DATA_LOAD, COMPUTE, STORE)
_CTX, _LOAD, _RUN, _STORE = range(4)
_GROUPS = ("context_loads", "data_loads", "compute", "stores")


@dataclass(frozen=True)
class Access:
    """One read or write of a word range by a node.

    Attributes:
        space: ``"fb"`` (a frame-buffer set) or ``"cm"`` (a context
            memory block).
        index: the set index or block index within the space.
        extents: the word ranges touched.
        write: True for a write, False for a read.
        value_id: the :class:`ValueLifetime` involved (FB accesses of
            known values only; ``None`` for CM accesses and for
            accesses whose placement is unknown).
    """

    space: str
    index: int
    extents: Tuple[Extent, ...]
    write: bool
    value_id: Optional[int] = None


@dataclass(frozen=True)
class IRNode:
    """One leaf op with its memory effects.

    ``node_id`` doubles as the node's program-order position: ids are
    assigned sequentially in replay order (context loads, data loads,
    compute, stores — visit by visit).
    """

    node_id: int
    kind: str
    visit_index: int
    op: object
    accesses: Tuple[Access, ...]

    def describe(self) -> str:
        """Short human-readable label, e.g. ``"load x#3"``."""
        return _describe(self.kind, self.op)


def _describe(kind: str, op) -> str:
    if kind == CONTEXT_LOAD:
        return f"ctx {op.kernel}"
    if kind == DATA_LOAD:
        return f"load {op.name}#{op.iteration}"
    if kind == STORE:
        return f"store {op.name}#{op.iteration}"
    return f"run {op.kernel}#{op.iteration}"


@dataclass
class ValueLifetime:
    """One resident instance of one object in one FB set.

    Positions (``def_pos`` / ``release_pos``) live on a doubled node-id
    scale so an end-of-node release (``2 * node + 1``) sorts strictly
    between the node itself and its successor.  ``release_pos`` mirrors
    the allocator's free rules: stored/kept/outbound values hold their
    words until the end of the visit that drains them; plain inputs and
    intermediates return their words right after their last use.
    """

    value_id: int
    name: str
    instance: int
    fb_set: int
    words: int
    def_node: int
    def_visit: int
    def_kind: str
    extents: Tuple[Extent, ...] = ()
    uses: List[int] = field(default_factory=list)
    store_nodes: List[int] = field(default_factory=list)
    kept: bool = False
    survived_drain: bool = False
    end_visit: int = -1
    release_pos: int = -1

    @property
    def def_pos(self) -> int:
        return 2 * self.def_node

    @property
    def dead(self) -> bool:
        """Loaded (or produced) but never read by any kernel."""
        return not self.uses

    @property
    def last_use_node(self) -> Optional[int]:
        candidates = list(self.uses) + list(self.store_nodes)
        return max(candidates) if candidates else None


@dataclass(frozen=True)
class VisitNodes:
    """The node-id groups of one visit, in program order."""

    visit_index: int
    context_loads: Tuple[int, ...]
    data_loads: Tuple[int, ...]
    compute: Tuple[int, ...]
    stores: Tuple[int, ...]

    @property
    def first(self) -> int:
        for group in (self.context_loads, self.data_loads, self.compute,
                      self.stores):
            if group:
                return group[0]
        raise ValueError("empty visit")

    @property
    def last(self) -> int:
        for group in (self.stores, self.compute, self.data_loads,
                      self.context_loads):
            if group:
                return group[-1]
        raise ValueError("empty visit")


class _LazyView(SequenceABC):
    """A read-only sequence that builds item *i* from the IR's columns
    on access; equal to a list of the same items (and unhashable, like
    one)."""

    __slots__ = ("_ir",)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, ir: "ProgramIR") -> None:
        self._ir = ir

    def _build(self, index: int):
        raise NotImplementedError

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._build(i) for i in range(*index.indices(len(self)))]
        count = len(self)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError(f"{type(self).__name__} index out of range")
        return self._build(index)

    def __iter__(self):
        return map(self._build, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, _LazyView)):
            return list(self) == list(other)
        return NotImplemented


class _NodeView(_LazyView):
    """``ProgramIR.nodes``: an :class:`IRNode` per node id."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self._ir.node_kind)

    def _build(self, node: int) -> IRNode:
        ir = self._ir
        return IRNode(node, KINDS[ir.node_kind[node]], ir.node_visit[node],
                      ir.op_of(node), ir.accesses_of(node))


class _ValueView(_LazyView):
    """``ProgramIR.values``: a :class:`ValueLifetime` per value id."""

    __slots__ = ("_uses", "_stores")

    def __init__(self, ir: "ProgramIR") -> None:
        super().__init__(ir)
        self._uses: Optional[Dict[int, List[int]]] = None
        self._stores: Optional[Dict[int, List[int]]] = None

    def __len__(self) -> int:
        return len(self._ir.val_name)

    def _build(self, v: int) -> ValueLifetime:
        ir = self._ir
        if self._uses is None:
            self._uses = _group(ir.use_value, ir.use_node)
            self._stores = _group(ir.store_value, ir.store_node)
        place = ir.val_place[v]
        return ValueLifetime(
            value_id=v,
            name=ir.val_name[v],
            instance=ir.val_instance[v],
            fb_set=ir.val_set[v],
            words=ir.val_words[v],
            def_node=ir.val_def[v],
            def_visit=ir.node_visit[ir.val_def[v]],
            def_kind=KINDS[ir.val_kind[v]],
            extents=ir.place_extents[place] if place >= 0 else (),
            uses=list(self._uses.get(v, ())),
            store_nodes=list(self._stores.get(v, ())),
            kept=ir.val_kept[v],
            survived_drain=ir.val_survived[v],
            end_visit=ir.val_end_visit[v],
            release_pos=ir.val_release[v],
        )


class _VisitNodesView(_LazyView):
    """``ProgramIR.visit_nodes``: a :class:`VisitNodes` per visit."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self._ir.visit_index)

    def _build(self, pos: int) -> VisitNodes:
        ir = self._ir
        b = ir.group_starts[4 * pos:4 * pos + 5]
        return VisitNodes(
            visit_index=ir.visit_index[pos],
            context_loads=tuple(range(b[0], b[1])),
            data_loads=tuple(range(b[1], b[2])),
            compute=tuple(range(b[2], b[3])),
            stores=tuple(range(b[3], b[4])),
        )


def _group(keys: List[int], items: List[int]) -> Dict[int, List[int]]:
    grouped: Dict[int, List[int]] = {}
    for key, item in zip(keys, items):
        grouped.setdefault(key, []).append(item)
    return grouped


@dataclass(eq=False)
class ProgramIR:
    """The lowered def-use IR of one program, as parallel columns.

    Columns, all plain lists indexed by id:

    * nodes: ``node_kind`` (a :data:`KINDS` index) and ``node_visit``
      (the visit's ``index``);
    * visits (by position in ``program.visits``): ``visit_index``, and
      ``group_starts`` — visit *p*'s context loads, data loads, compute
      and stores are the node ranges between ``group_starts[4p + g]``
      and ``group_starts[4p + g + 1]``;
    * access rows, in node order: ``acc_node``, ``acc_slot`` (``2 *
      index`` for FB set *index*, ``2 * index + 1`` for CM block
      *index*), ``acc_start``/``acc_end``, ``acc_write`` and
      ``acc_value`` (-1 for CM rows);
    * values: ``val_name``, ``val_instance``, ``val_set``,
      ``val_words``, ``val_def`` (defining node), ``val_kind``,
      ``val_place`` (row of ``place_extents``/``place_spans``, -1 when
      unplaced), ``val_kept``, ``val_survived``, ``val_end_visit``,
      ``val_release`` and ``val_last_read`` (the last kernel read, -1
      when none);
    * kernel reads and stores: ``use_value``/``use_node`` and
      ``store_value``/``store_node`` pairs in node order.
    """

    program: Program
    has_placement: bool
    fb_capacity: int
    cm_block_capacity: int
    node_kind: List[int]
    node_visit: List[int]
    visit_index: List[int]
    group_starts: List[int]
    acc_node: List[int]
    acc_slot: List[int]
    acc_start: List[int]
    acc_end: List[int]
    acc_write: List[bool]
    acc_value: List[int]
    val_name: List[str]
    val_instance: List[int]
    val_set: List[int]
    val_words: List[int]
    val_def: List[int]
    val_kind: List[int]
    val_place: List[int]
    val_kept: List[bool]
    val_survived: List[bool]
    val_end_visit: List[int]
    val_release: List[int]
    val_last_read: List[int]
    use_value: List[int]
    use_node: List[int]
    store_value: List[int]
    store_node: List[int]
    place_extents: List[Tuple[Extent, ...]]
    place_spans: List[Tuple[Tuple[int, int], ...]]

    def __post_init__(self) -> None:
        self.nodes: Sequence[IRNode] = _NodeView(self)
        self.values: Sequence[ValueLifetime] = _ValueView(self)
        self.visit_nodes: Sequence[VisitNodes] = _VisitNodesView(self)

    def node(self, node_id: int) -> IRNode:
        return self.nodes[node_id]

    def describe(self, node_id: int) -> str:
        label = _describe(KINDS[self.node_kind[node_id]], self.op_of(node_id))
        return f"{label} (visit {self.node_visit[node_id]})"

    def op_of(self, node_id: int) -> object:
        """The leaf op of one node, read from ``program.visits``."""
        starts = self.group_starts
        at = bisect_right(starts, node_id) - 1
        pos, group = divmod(at, 4)
        return getattr(self.program.visits[pos], _GROUPS[group])[
            node_id - starts[at]
        ]

    def accesses_of(self, node_id: int) -> Tuple[Access, ...]:
        """The :class:`Access` objects of one node, rebuilt from its
        rows: an FB access spans its value's extents, a CM access one
        row."""
        rows = self.acc_node
        row = bisect_left(rows, node_id)
        end = bisect_right(rows, node_id, row)
        accesses: List[Access] = []
        while row < end:
            slot = self.acc_slot[row]
            value = self.acc_value[row]
            if slot & 1:
                extents: Tuple[Extent, ...] = (Extent(
                    self.acc_start[row],
                    self.acc_end[row] - self.acc_start[row],
                ),)
                accesses.append(Access("cm", slot >> 1, extents,
                                       self.acc_write[row]))
                row += 1
                continue
            extents = self.place_extents[self.val_place[value]]
            accesses.append(Access("fb", slot >> 1, extents,
                                   self.acc_write[row], value))
            row += len(extents)
        return tuple(accesses)


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


def lower_program(
    program: Program,
    allocations: Optional[Sequence[object]] = None,
) -> ProgramIR:
    """Lower *program* into a :class:`ProgramIR`.

    Args:
        program: the compiled program.
        allocations: the ``(set0, set1)`` :class:`AllocationMap` pair
            from :class:`~repro.alloc.allocator.FrameBufferAllocator`.
            When omitted, FB accesses carry no extents and the word
            level passes degrade to what sizes alone can prove.

    The replay mirrors :func:`repro.codegen.verifier.iter_program_violations`
    exactly — survivor filtering per visit, full drain of both sets at
    round end, cross-set reads of kept operands — so it tolerates the
    same broken programs the verifier reports on (a missing operand
    becomes a value-less read, not a crash).
    """
    schedule = program.schedule
    application = schedule.application
    dataflow = schedule.dataflow
    last_cluster = len(schedule.clustering) - 1
    # The last keep of a name decides, as a name-keyed table would.
    keep_set = {keep.name: keep.fb_set for keep in schedule.keeps}
    place_extents: List[Tuple[Extent, ...]] = []
    place_spans: List[Tuple[Tuple[int, int], ...]] = []
    placement = _placement_index(allocations, place_extents, place_spans)
    invariant = {info.name for info in dataflow if info.invariant}

    # kernel -> ((input, invariant), ...) and ((output, words), ...)
    kernel_inputs: Dict[str, Tuple[Tuple[str, bool], ...]] = {}
    kernel_outputs: Dict[str, Tuple[Tuple[str, int], ...]] = {}
    for kernel in application.kernels:
        kernel_inputs[kernel.name] = tuple(
            (in_name, in_name in invariant) for in_name in kernel.inputs
        )
        kernel_outputs[kernel.name] = tuple(
            (out_name, dataflow[out_name].size if out_name in dataflow else 0)
            for out_name in kernel.outputs
        )

    node_kind: List[int] = []
    node_visit: List[int] = []
    visit_index: List[int] = []
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

    return ProgramIR(
        program=program,
        has_placement=placement is not None,
        fb_capacity=schedule.fb_set_words,
        cm_block_capacity=program.cm_block_capacity,
        node_kind=node_kind,
        node_visit=node_visit,
        visit_index=visit_index,
        group_starts=group_starts,
        acc_node=acc_node,
        acc_slot=acc_slot,
        acc_start=acc_start,
        acc_end=acc_end,
        acc_write=acc_write,
        acc_value=acc_value,
        val_name=val_name,
        val_instance=val_instance,
        val_set=val_set,
        val_words=val_words,
        val_def=val_def,
        val_kind=val_kind,
        val_place=val_place,
        val_kept=val_kept,
        val_survived=val_survived,
        val_end_visit=val_end_visit,
        val_release=val_release,
        val_last_read=val_last_read,
        use_value=use_value,
        use_node=use_node,
        store_value=store_value,
        store_node=store_node,
        place_extents=place_extents,
        place_spans=place_spans,
    )
