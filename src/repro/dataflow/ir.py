"""Lowering a compiled :class:`Program` into a def-use IR.

:func:`lower_program` fills parallel NumPy columns (``int32``, and
``bool`` for flags) on :class:`ProgramIR`:

* per **node** (one per leaf op, numbered in program order): its kind
  code and its visit index;
* per **visit**: its index, FB set, cluster, iteration count and the
  node ranges of its four op groups;
* per **access row** (one per word range a node reads or writes): the
  node, the address-space slot (frame-buffer set or context-memory
  block), the ``[start, end)`` words, read or write, and the value;
* per **value** (one per resident instance of one object in one FB
  set): name code, instance, set, words, defining node and kind,
  placement, keep and drain flags, the visit that drains it and the
  node-order position at which the allocator returns its words; its
  kernel reads and stores are flat ``(value, node)`` columns.

There are two lowerings, and they fill equal columns:
:mod:`repro.dataflow.blocks` lowers a templated program block by block
from its templates, without materialising its ops, and
:mod:`repro.dataflow.opwalk` replays any program's ops one by one — the
path for programs that are not templated (fuzz mutations, edited
visits) and the oracle of the first
(:func:`repro.dataflow.reference.lowering_mismatch`).

The hazard passes read those columns directly.  :attr:`ProgramIR.nodes`,
:attr:`ProgramIR.values` and :attr:`ProgramIR.visit_nodes` are lazy
sequences over them that build an :class:`IRNode` (with its
:class:`Access` tuple), a :class:`ValueLifetime` or a
:class:`VisitNodes` of plain Python ints, bools and strings only when
indexed or iterated — for a diagnostic's description, ``repro
analyze``, the tests and the reference passes of
:mod:`repro.dataflow.reference`.  They compare equal to the lists of
those objects.

The IR is purely *program-order*: it says what the program means, not
when the DMA channel moves the words.  The timing dimension is added
separately by :class:`repro.dataflow.hazards.HappensBefore`; the hazard
passes (:mod:`repro.dataflow.passes`) then check that the timing order
can never contradict the program order.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.frame_buffer import Extent
from repro.codegen.program import Program
from repro.codegen.templated import TemplateVisits

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
        return IRNode(node, KINDS[ir.node_kind[node]],
                      int(ir.node_visit[node]), ir.op_of(node),
                      ir.accesses_of(node))


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
        place = int(ir.val_place[v])
        def_node = int(ir.val_def[v])
        return ValueLifetime(
            value_id=v,
            name=ir.name_of(v),
            instance=int(ir.val_instance[v]),
            fb_set=int(ir.val_set[v]),
            words=int(ir.val_words[v]),
            def_node=def_node,
            def_visit=int(ir.node_visit[def_node]),
            def_kind=KINDS[ir.val_kind[v]],
            extents=ir.place_extents[place] if place >= 0 else (),
            uses=list(self._uses.get(v, ())),
            store_nodes=list(self._stores.get(v, ())),
            kept=bool(ir.val_kept[v]),
            survived_drain=bool(ir.val_survived[v]),
            end_visit=int(ir.val_end_visit[v]),
            release_pos=int(ir.val_release[v]),
        )


class _VisitNodesView(_LazyView):
    """``ProgramIR.visit_nodes``: a :class:`VisitNodes` per visit."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self._ir.visit_index)

    def _build(self, pos: int) -> VisitNodes:
        ir = self._ir
        b = ir.group_starts[4 * pos:4 * pos + 5].tolist()
        return VisitNodes(
            visit_index=int(ir.visit_index[pos]),
            context_loads=tuple(range(b[0], b[1])),
            data_loads=tuple(range(b[1], b[2])),
            compute=tuple(range(b[2], b[3])),
            stores=tuple(range(b[3], b[4])),
        )


def _group(keys: np.ndarray, items: np.ndarray) -> Dict[int, List[int]]:
    grouped: Dict[int, List[int]] = {}
    for key, item in zip(keys.tolist(), items.tolist()):
        grouped.setdefault(key, []).append(item)
    return grouped


def expand_ranges(
    lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``k`` in ``[lo[i], hi[i])``, ranges in order, with its ``i``
    (int32 bounds in, int32 arrays out)."""
    count = hi - lo
    index = np.repeat(np.arange(len(count), dtype=np.int32), count)
    offset = lo - np.cumsum(count, dtype=np.int32) + count
    return offset.take(index) + np.arange(len(index), dtype=np.int32), index


@dataclass(eq=False)
class ProgramIR:
    """The lowered def-use IR of one program, as parallel columns.

    Columns, all NumPy ``int32`` arrays indexed by id (``bool`` for the
    flags):

    * nodes: ``node_kind`` (a :data:`KINDS` index) and ``node_visit``
      (the visit's ``index``);
    * visits (by position in ``program.visits``): ``visit_index``,
      ``visit_set``, ``visit_cluster``, ``visit_iters`` (its iteration
      count), and ``group_starts`` — visit *p*'s context loads, data
      loads, compute and stores are the node ranges between
      ``group_starts[4p + g]`` and ``group_starts[4p + g + 1]``;
    * access rows, in node order: ``acc_node``, ``acc_slot`` (``2 *
      index`` for FB set *index*, ``2 * index + 1`` for CM block
      *index*), ``acc_start``/``acc_end``, ``acc_write`` and
      ``acc_value`` (-1 for CM rows);
    * values: ``val_name`` (a code into :attr:`names`),
      ``val_instance``, ``val_set``, ``val_words``, ``val_def``
      (defining node), ``val_kind``, ``val_place`` (row of
      ``place_extents``, -1 when unplaced), ``val_kept``,
      ``val_survived``, ``val_end_visit``, ``val_release`` and
      ``val_last_read`` (the last kernel read, -1 when none);
    * kernel reads and stores: ``use_value``/``use_node`` and
      ``store_value``/``store_node`` pairs in node order.

    ``names`` lists the object names in order of their first value;
    ``place_extents`` the placed allocation records' extents, set 0's
    records first.
    """

    #: The array columns, in declaration order.
    COLUMNS = (
        "node_kind", "node_visit", "visit_index", "visit_set",
        "visit_cluster", "visit_iters", "group_starts", "acc_node",
        "acc_slot", "acc_start", "acc_end", "acc_write", "acc_value",
        "val_name", "val_instance", "val_set", "val_words", "val_def",
        "val_kind", "val_place", "val_kept", "val_survived",
        "val_end_visit", "val_release", "val_last_read", "use_value",
        "use_node", "store_value", "store_node",
    )
    #: The columns holding flags; every other column is ``int32``.
    FLAGS = ("acc_write", "val_kept", "val_survived")

    program: Program
    has_placement: bool
    fb_capacity: int
    cm_block_capacity: int
    node_kind: np.ndarray
    node_visit: np.ndarray
    visit_index: np.ndarray
    visit_set: np.ndarray
    visit_cluster: np.ndarray
    visit_iters: np.ndarray
    group_starts: np.ndarray
    acc_node: np.ndarray
    acc_slot: np.ndarray
    acc_start: np.ndarray
    acc_end: np.ndarray
    acc_write: np.ndarray
    acc_value: np.ndarray
    val_name: np.ndarray
    val_instance: np.ndarray
    val_set: np.ndarray
    val_words: np.ndarray
    val_def: np.ndarray
    val_kind: np.ndarray
    val_place: np.ndarray
    val_kept: np.ndarray
    val_survived: np.ndarray
    val_end_visit: np.ndarray
    val_release: np.ndarray
    val_last_read: np.ndarray
    use_value: np.ndarray
    use_node: np.ndarray
    store_value: np.ndarray
    store_node: np.ndarray
    names: Tuple[str, ...]
    place_extents: List[Tuple[Extent, ...]]

    @classmethod
    def from_columns(
        cls,
        program: Program,
        allocations: Optional[Sequence[object]],
        cm_block_capacity: int,
        names: Tuple[str, ...],
        place_extents: List[Tuple[Extent, ...]],
        columns: Dict[str, object],
    ) -> "ProgramIR":
        """The IR over *columns* (lists or arrays, keyed by
        :attr:`COLUMNS`), each cast to its column type."""
        typed = {
            name: np.asarray(
                columns[name], np.bool_ if name in cls.FLAGS else np.int32
            )
            for name in cls.COLUMNS
        }
        return cls(
            program=program,
            has_placement=bool(allocations),
            fb_capacity=program.schedule.fb_set_words,
            cm_block_capacity=cm_block_capacity,
            names=names,
            place_extents=place_extents,
            **typed,
        )

    def __post_init__(self) -> None:
        self.nodes: Sequence[IRNode] = _NodeView(self)
        self.values: Sequence[ValueLifetime] = _ValueView(self)
        self.visit_nodes: Sequence[VisitNodes] = _VisitNodesView(self)

    def node(self, node_id: int) -> IRNode:
        return self.nodes[node_id]

    def name_of(self, value: int) -> str:
        """The object name of one value."""
        return self.names[self.val_name[value]]

    def describe(self, node_id: int) -> str:
        label = _describe(KINDS[self.node_kind[node_id]], self.op_of(node_id))
        return f"{label} (visit {self.node_visit[node_id]})"

    def op_of(self, node_id: int) -> object:
        """The leaf op of one node, read from ``program.visits``."""
        starts = self.group_starts
        at = int(np.searchsorted(starts, node_id, side="right")) - 1
        pos, group = divmod(at, 4)
        return getattr(self.program.visits[pos], _GROUPS[group])[
            node_id - int(starts[at])
        ]

    def accesses_of(self, node_id: int) -> Tuple[Access, ...]:
        """The :class:`Access` objects of one node, rebuilt from its
        rows: an FB access spans its value's extents, a CM access one
        row."""
        rows = self.acc_node
        row = int(np.searchsorted(rows, node_id, side="left"))
        end = int(np.searchsorted(rows, node_id, side="right"))
        accesses: List[Access] = []
        while row < end:
            slot = int(self.acc_slot[row])
            value = int(self.acc_value[row])
            write = bool(self.acc_write[row])
            if slot & 1:
                start = int(self.acc_start[row])
                extents: Tuple[Extent, ...] = (
                    Extent(start, int(self.acc_end[row]) - start),
                )
                accesses.append(Access("cm", slot >> 1, extents, write))
                row += 1
                continue
            extents = self.place_extents[self.val_place[value]]
            accesses.append(Access("fb", slot >> 1, extents, write, value))
            row += len(extents)
        return tuple(accesses)


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

    A templated program is lowered block by block
    (:func:`repro.dataflow.blocks.lower_templates`; while metrics
    collect, ``analysis/blocks`` counts the blocks); any other program,
    or a templated one whose blocks do not resolve alike for every
    iteration, by the op walk (:func:`repro.dataflow.opwalk.lower_ops`).
    Each lowering is imported on first use.
    """
    visits = program.visits
    if isinstance(visits, TemplateVisits):
        from repro.dataflow.blocks import lower_templates

        lowered = lower_templates(program, visits, allocations)
        if lowered is not None:
            return lowered
    from repro.dataflow.opwalk import lower_ops

    return lower_ops(program, allocations)


def kernel_io(schedule) -> Tuple[
    Dict[str, Tuple[Tuple[str, bool], ...]],
    Dict[str, Tuple[Tuple[str, int], ...]],
]:
    """kernel -> ``((input, invariant), ...)`` and ``((output, words),
    ...)``, as both lowerings read them."""
    dataflow = schedule.dataflow
    invariant = {info.name for info in dataflow if info.invariant}
    kernel_inputs: Dict[str, Tuple[Tuple[str, bool], ...]] = {}
    kernel_outputs: Dict[str, Tuple[Tuple[str, int], ...]] = {}
    for kernel in schedule.application.kernels:
        kernel_inputs[kernel.name] = tuple(
            (in_name, in_name in invariant) for in_name in kernel.inputs
        )
        kernel_outputs[kernel.name] = tuple(
            (out_name, dataflow[out_name].size if out_name in dataflow else 0)
            for out_name in kernel.outputs
        )
    return kernel_inputs, kernel_outputs
