"""Lowering a compiled :class:`Program` into a def-use IR.

Every leaf op of every visit becomes one :class:`IRNode` carrying its
memory *effects*: which frame-buffer words (when an allocation map is
available) or context-memory words it reads and writes.  A verifier
style replay threads values through the nodes, producing one
:class:`ValueLifetime` per resident instance — its defining node, every
consuming node, the visit at whose end it leaves the set, and the
node-order position at which the allocator returns its words to the
free list.

The IR is purely *program-order*: it says what the program means, not
when the DMA channel moves the words.  The timing dimension is added
separately by :class:`repro.dataflow.hazards.HappensBefore`; the hazard
passes (:mod:`repro.dataflow.passes`) then check that the timing order
can never contradict the program order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.arch.frame_buffer import Extent
from repro.codegen.program import Program

__all__ = [
    "CONTEXT_LOAD",
    "DATA_LOAD",
    "COMPUTE",
    "STORE",
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
        op = self.op
        if self.kind == CONTEXT_LOAD:
            return f"ctx {op.kernel}"
        if self.kind == DATA_LOAD:
            return f"load {op.name}#{op.iteration}"
        if self.kind == STORE:
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


@dataclass
class ProgramIR:
    """The lowered def-use IR of one program."""

    program: Program
    nodes: List[IRNode]
    visit_nodes: List[VisitNodes]
    values: List[ValueLifetime]
    has_placement: bool
    fb_capacity: int
    cm_block_capacity: int

    def node(self, node_id: int) -> IRNode:
        return self.nodes[node_id]

    def describe(self, node_id: int) -> str:
        node = self.nodes[node_id]
        return f"{node.describe()} (visit {node.visit_index})"


def _placement_index(
    allocations: Optional[Sequence[object]],
) -> Optional[Tuple[Dict[Tuple[str, int], Dict[int, Tuple[Extent, ...]]], ...]]:
    """Per-set ``(name, instance-in-round) -> {cluster -> extents}`` tables.

    An object consumed by several clusters of the same set gets one
    record *per consuming cluster* (each visit re-loads it into whatever
    words are free then), so the cluster index is part of the key.
    """
    if not allocations:
        return None
    tables: List[Dict[Tuple[str, int], Dict[int, Tuple[Extent, ...]]]] = []
    for alloc_map in allocations:
        table: Dict[Tuple[str, int], Dict[int, Tuple[Extent, ...]]] = {}
        for record in alloc_map.records:
            table.setdefault((record.name, record.instance), {})[
                record.cluster_index
            ] = record.extents
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
    clustering = schedule.clustering
    keeps_by_name = {keep.name: keep for keep in schedule.keeps}
    placement = _placement_index(allocations)

    nodes: List[IRNode] = []
    visit_nodes: List[VisitNodes] = []
    values: List[ValueLifetime] = []
    # Survivor sets are per (cluster, FB set), not per visit: memoize
    # them like the verifier does instead of re-scanning the keep list
    # once per visit.
    survivors_memo: Dict[Tuple[int, int], FrozenSet[str]] = {}
    # Live values per set, keyed (name, instance).
    live: List[Dict[Tuple[str, int], ValueLifetime]] = [{}, {}]
    # Kernel -> CM extent per block, rebuilt at each refill.
    cm_regions: List[Dict[str, Extent]] = [{}, {}]

    kernel_inputs: Dict[str, Tuple[Tuple[str, bool], ...]] = {
        kernel.name: tuple(
            (in_name, dataflow[in_name].invariant)
            for in_name in kernel.inputs
        )
        for kernel in application.kernels
    }
    kernel_by_name = {kernel.name: kernel for kernel in application.kernels}

    def extents_for(fb_set: int, name: str, instance: int,
                    round_start: int, cluster_index: int) -> Tuple[Extent, ...]:
        if placement is None:
            return ()
        info = dataflow[name] if name in dataflow else None
        if info is not None and info.invariant:
            in_round = 0
        else:
            in_round = instance - round_start
        by_cluster = placement[fb_set].get((name, in_round))
        if not by_cluster:
            return ()
        extents = by_cluster.get(cluster_index)
        if extents is not None:
            return extents
        if len(by_cluster) == 1:
            return next(iter(by_cluster.values()))
        return ()

    def new_node(kind: str, visit_index: int, op: object,
                 accesses: Sequence[Access]) -> int:
        node_id = len(nodes)
        nodes.append(IRNode(node_id, kind, visit_index, op, tuple(accesses)))
        return node_id

    def close_value(value: ValueLifetime, end_visit: int,
                    end_node: int) -> None:
        value.end_visit = end_visit
        if value.kept or value.store_nodes:
            # Freed when the draining visit's finish phase completes
            # (stores issued / keep span ended): end of that visit.
            value.release_pos = 2 * end_node + 1
        else:
            last_use = value.last_use_node
            if last_use is None:
                value.release_pos = 2 * end_node + 1
            else:
                value.release_pos = 2 * last_use + 1

    for pos, ops in enumerate(program.visits):
        visit = ops.visit
        fb_set = visit.fb_set
        block = visit.cm_block
        round_start = visit.iterations[0]
        in_set = live[fb_set]

        ctx_ids: List[int] = []
        if ops.context_loads:
            cm_regions[block] = {}
            offset = 0
            for load in ops.context_loads:
                extent = Extent(offset, load.words)
                offset += load.words
                cm_regions[block][load.kernel] = extent
                ctx_ids.append(new_node(
                    CONTEXT_LOAD, visit.index, load,
                    [Access("cm", block, (extent,), True)],
                ))

        load_ids: List[int] = []
        for load in ops.data_loads:
            key = (load.name, load.iteration)
            previous = in_set.get(key)
            extents = extents_for(fb_set, load.name, load.iteration,
                                  round_start, visit.cluster_index)
            value = ValueLifetime(
                value_id=len(values),
                name=load.name,
                instance=load.iteration,
                fb_set=fb_set,
                words=load.words,
                def_node=len(nodes),
                def_visit=visit.index,
                def_kind=DATA_LOAD,
                extents=extents,
                kept=load.name in keeps_by_name
                and keeps_by_name[load.name].fb_set == fb_set,
            )
            node_id = new_node(
                DATA_LOAD, visit.index, load,
                [Access("fb", fb_set, extents, True, value.value_id)]
                if extents else [],
            )
            if previous is not None:
                # Redundant load (PROG005): the old value is clobbered.
                close_value(previous, visit.index, node_id)
            values.append(value)
            in_set[key] = value
            load_ids.append(node_id)

        compute_ids: List[int] = []
        for run in ops.compute:
            kernel = kernel_by_name[run.kernel]
            accesses: List[Access] = []
            region = cm_regions[block].get(run.kernel)
            if region is not None:
                accesses.append(Access("cm", block, (region,), False))
            node_id = len(nodes)
            for in_name, invariant in kernel_inputs[run.kernel]:
                instance = 0 if invariant else run.iteration
                value = in_set.get((in_name, instance))
                if value is None:
                    keep = keeps_by_name.get(in_name)
                    if keep is not None and keep.fb_set != fb_set:
                        value = live[keep.fb_set].get((in_name, instance))
                if value is None:
                    continue  # use-before-load: PROG001's territory
                value.uses.append(node_id)
                if value.extents:
                    accesses.append(Access(
                        "fb", value.fb_set, value.extents, False,
                        value.value_id,
                    ))
            for out_name in kernel.outputs:
                extents = extents_for(fb_set, out_name, run.iteration,
                                      round_start, visit.cluster_index)
                value = ValueLifetime(
                    value_id=len(values),
                    name=out_name,
                    instance=run.iteration,
                    fb_set=fb_set,
                    words=dataflow[out_name].size
                    if out_name in dataflow else 0,
                    def_node=node_id,
                    def_visit=visit.index,
                    def_kind=COMPUTE,
                    extents=extents,
                    kept=out_name in keeps_by_name
                    and keeps_by_name[out_name].fb_set == fb_set,
                )
                previous = in_set.get((out_name, run.iteration))
                if previous is not None:
                    close_value(previous, visit.index, node_id)
                values.append(value)
                in_set[(out_name, run.iteration)] = value
                if extents:
                    accesses.append(Access(
                        "fb", fb_set, extents, True, value.value_id,
                    ))
            compute_ids.append(new_node(COMPUTE, visit.index, run, accesses))

        store_ids: List[int] = []
        for store in ops.stores:
            value = in_set.get((store.name, store.iteration))
            accesses = []
            node_id = len(nodes)
            if value is not None:
                value.store_nodes.append(node_id)
                if value.extents:
                    accesses.append(Access(
                        "fb", fb_set, value.extents, False, value.value_id,
                    ))
            store_ids.append(new_node(STORE, visit.index, store, accesses))

        visit_nodes.append(VisitNodes(
            visit_index=visit.index,
            context_loads=tuple(ctx_ids),
            data_loads=tuple(load_ids),
            compute=tuple(compute_ids),
            stores=tuple(store_ids),
        ))

        # Visit end: drain non-survivors from the visit's set.
        group = visit_nodes[-1]
        if (group.stores or group.compute or group.data_loads
                or group.context_loads):
            end_node = group.last
        else:
            end_node = max(len(nodes) - 1, 0)
        survivors_key = (visit.cluster_index, fb_set)
        survivors = survivors_memo.get(survivors_key)
        if survivors is None:
            survivors = schedule.survivors(visit.cluster_index, fb_set)
            survivors_memo[survivors_key] = survivors
        drained = {
            key: value for key, value in in_set.items()
            if key[0] not in survivors
        }
        for key, value in drained.items():
            close_value(value, visit.index, end_node)
            del in_set[key]
        for value in in_set.values():
            value.survived_drain = True
        # Round end on the last cluster: both sets drain completely.
        if visit.cluster_index == len(clustering) - 1:
            for other_set in (0, 1):
                for value in live[other_set].values():
                    close_value(value, visit.index, end_node)
                live[other_set].clear()

    # A well-formed program drains everything; close leftovers anyway so
    # broken programs still produce a complete IR.
    last_node = len(nodes) - 1
    last_visit = program.visits[-1].visit.index if program.visits else -1
    for fb_set in (0, 1):
        for value in live[fb_set].values():
            close_value(value, last_visit, max(last_node, 0))
        live[fb_set] = {}

    return ProgramIR(
        program=program,
        nodes=nodes,
        visit_nodes=visit_nodes,
        values=values,
        has_placement=placement is not None,
        fb_capacity=schedule.fb_set_words,
        cm_block_capacity=program.cm_block_capacity,
    )
