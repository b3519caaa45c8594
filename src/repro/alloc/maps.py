"""Allocation maps: what the Figure-4 allocator books, and the views
expanded from it.

The allocator (:mod:`repro.alloc.allocator`) books :class:`Segment`
runs — instances of one object at affine addresses and steps — into an
:class:`AllocationMap`.  The per-instance views are expanded from the
segments on demand, in the order a per-instance walk makes them:
:attr:`AllocationMap.records`, the ``alloc.*`` decision events
(:func:`repro.alloc.views.decision_events`) and the Figure-5 snapshots
(:func:`repro.alloc.views.build_snapshots`).  A map can also be built
from a record list.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.arch.frame_buffer import Extent
from repro.errors import AllocationError

__all__ = [
    "AllocationRecord", "Segment", "PlacementColumns", "Snapshot",
    "AllocationMap",
]

_FIRST = itemgetter(0)


class AllocationRecord(NamedTuple):
    """Lifetime and placement of one object instance.

    The allocator books :class:`Segment` runs; records are expanded
    from them on first use of :attr:`AllocationMap.records`.  Use
    ``record._replace(...)`` for a modified copy.

    Attributes:
        name: object name.
        instance: iteration index within the round (``0 .. RF-1``).
        cluster_index: cluster whose activity allocated it.
        extents: the address ranges occupied (len > 1 means split).
        direction: ``"high"`` or ``"low"`` growth direction.
        alloc_step: logical step at which it was placed.
        free_step: logical step at which it was released.
        regular: placement was adjacent to the previous instance (always
            True for instance 0).
    """

    name: str
    instance: int
    cluster_index: int
    extents: Tuple[Extent, ...]
    direction: str
    alloc_step: int
    free_step: int
    regular: bool

    @property
    def size(self) -> int:
        return sum(extent.size for extent in self.extents)

    @property
    def split(self) -> bool:
        """True if the object was split across free blocks."""
        return len(self.extents) > 1


class Segment:
    """Instances ``first .. first+count-1`` of one object, booked as one.

    Instance ``first + k`` occupies ``size`` words at ``start + k *
    stride`` (``extents`` instead, for a split placement, which is a
    segment of one), was placed at ``alloc_step + k * alloc_stride`` and
    is freed at ``free_step + k * free_stride``.  ``place_pos`` and
    ``free_pos`` order the placements and frees of one step: the load
    or output index, and the release index or finish-phase order.
    ``fallback`` is the start of a failed adjacency attempt (walked
    placements only).

    While live, the first ``closed`` instances are already freed (the
    ``free_*`` fields describe them); a booked segment is closed whole
    and is not changed again.
    """

    __slots__ = (
        "name", "first", "count", "cluster_index", "direction", "regular",
        "start", "stride", "size", "extents", "alloc_step", "alloc_stride",
        "place_pos", "fallback", "closed", "free_step", "free_stride",
        "free_pos",
    )

    def __init__(self, name: str, first: int, count: int,
                 cluster_index: int, direction: str, regular: bool,
                 start: int, stride: int, size: int,
                 extents: Optional[Tuple[Extent, ...]], alloc_step: int,
                 alloc_stride: int, place_pos: int,
                 fallback: Optional[int] = None):
        self.name = name
        self.first = first
        self.count = count
        self.cluster_index = cluster_index
        self.direction = direction
        self.regular = regular
        self.start = start
        self.stride = stride
        self.size = size
        self.extents = extents
        self.alloc_step = alloc_step
        self.alloc_stride = alloc_stride
        self.place_pos = place_pos
        self.fallback = fallback
        self.closed = 0
        self.free_step = 0
        self.free_stride = 0
        self.free_pos = 0

    def __repr__(self) -> str:
        return (
            f"Segment({self.name}#{self.first}+{self.count}, "
            f"start={self.start}, stride={self.stride}, size={self.size}, "
            f"alloc={self.alloc_step}+{self.alloc_stride}k, "
            f"free={self.free_step}+{self.free_stride}k)"
        )

    def extents_at(self, k: int) -> Tuple[Extent, ...]:
        """The extents of instance ``first + k``."""
        if self.extents is not None:
            return self.extents
        return (Extent(self.start + k * self.stride, self.size),)

    def placed_key(self, k: int) -> Tuple[int, int, int]:
        """Placement order of instance ``first + k``: by step, then
        load or output index, then instance."""
        return (self.alloc_step + k * self.alloc_stride, self.place_pos,
                self.first + k)

    def part(self, begin: int, end: int) -> "Segment":
        """A new segment of instances ``first+begin .. first+end-1``,
        with this one's placement and closure fields shifted to it."""
        part = Segment(
            self.name, self.first + begin, end - begin, self.cluster_index,
            self.direction, self.regular, self.start + begin * self.stride,
            self.stride, self.size, self.extents,
            self.alloc_step + begin * self.alloc_stride, self.alloc_stride,
            self.place_pos, self.fallback,
        )
        part.free_step = self.free_step + begin * self.free_stride
        part.free_stride = self.free_stride
        part.free_pos = self.free_pos
        return part


class PlacementColumns(NamedTuple):
    """One map's placements as per-segment columns, for vectorised
    readers (:mod:`repro.dataflow.blocks`).

    Segment ``s`` holds instances ``first[s] + k`` for ``k <
    count[s]``, each in ``extents[s]`` when that is not ``None``, else
    at ``start[s] + k * stride[s]`` for ``size[s]`` words.  Sorting the
    instances by ``(order_step[s] + k * order_stride[s], order_pos[s],
    instance)`` gives :attr:`AllocationMap.records` order.
    """

    names: List[str]
    first: List[int]
    count: List[int]
    cluster: List[int]
    start: List[int]
    stride: List[int]
    size: List[int]
    extents: List[Optional[Tuple[Extent, ...]]]
    order_step: List[int]
    order_stride: List[int]
    order_pos: List[int]


@dataclass(frozen=True)
class Snapshot:
    """FB-set contents at one labelled point (for Figure-5 rendering)."""

    label: str
    step: int
    regions: Tuple[Tuple[str, int, Tuple[Extent, ...]], ...]

    @property
    def occupied_words(self) -> int:
        return sum(
            extent.size for _, _, extents in self.regions for extent in extents
        )


class AllocationMap:
    """Complete placement of one FB set for one steady-state round.

    The allocator fills :attr:`segments`; :attr:`records` is expanded
    from them on first access and cached.  A map can also be built from
    a record list (``records=...``), which it then holds as given.
    """

    def __init__(self, fb_set: int, capacity_words: int, rf: int,
                 records: Optional[List[AllocationRecord]] = None,
                 snapshots: Optional[List[Snapshot]] = None,
                 chained: int = 0,
                 segments: Optional[List[Segment]] = None):
        self.fb_set = fb_set
        self.capacity_words = capacity_words
        self.rf = rf
        #: Booked segments, in booking order (filled by the allocator).
        self.segments: List[Segment] = [] if segments is None else segments
        #: Filled only by ``FrameBufferAllocator(..., snapshots=True)``.
        self.snapshots: List[Snapshot] = [] if snapshots is None else snapshots
        #: Placements made as part of a chain (instances ``1..RF-1`` of an
        #: object carved in one step next to its instance 0).
        self.chained = chained
        self._records = records

    def __repr__(self) -> str:
        return (
            f"AllocationMap(fb_set={self.fb_set}, "
            f"capacity_words={self.capacity_words}, rf={self.rf}, "
            f"placements={self.placements}, chained={self.chained})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AllocationMap):
            return NotImplemented
        return (
            (self.fb_set, self.capacity_words, self.rf, self.chained)
            == (other.fb_set, other.capacity_words, other.rf, other.chained)
            and self.records == other.records
            and self.snapshots == other.snapshots
        )

    __hash__ = None  # type: ignore[assignment]

    @property
    def records(self) -> List[AllocationRecord]:
        """One :class:`AllocationRecord` per placement, in the order the
        instances were freed (by free step, then release order within
        the step, then instance)."""
        if self._records is None:
            keyed = []
            for segment in self.segments:
                name = segment.name
                cluster = segment.cluster_index
                direction = segment.direction
                regular = segment.regular
                for k in range(segment.count):
                    instance = segment.first + k
                    free_step = segment.free_step + k * segment.free_stride
                    keyed.append((
                        (free_step, segment.free_pos, instance),
                        AllocationRecord(
                            name, instance, cluster, segment.extents_at(k),
                            direction,
                            segment.alloc_step + k * segment.alloc_stride,
                            free_step, regular,
                        ),
                    ))
            keyed.sort(key=_FIRST)
            self._records = [record for _, record in keyed]
        return self._records

    @property
    def placements(self) -> int:
        """Number of placed instances."""
        if self._records is not None:
            return len(self._records)
        return sum(segment.count for segment in self.segments)

    @property
    def splits(self) -> int:
        """Number of split placements (the paper reports zero)."""
        if self._records is not None:
            return sum(1 for record in self._records if record.split)
        return sum(
            segment.count for segment in self.segments
            if segment.extents is not None and len(segment.extents) > 1
        )

    @property
    def irregular_placements(self) -> int:
        """Placements that broke iteration adjacency."""
        if self._records is not None:
            return sum(1 for record in self._records if not record.regular)
        return sum(
            segment.count for segment in self.segments if not segment.regular
        )

    def placement_columns(self) -> PlacementColumns:
        """The placements as :class:`PlacementColumns`: the booked
        segments, or one segment per record when :attr:`records` has
        been built or given (so edits to it are seen)."""
        if self._records is None:
            segments = self.segments
            return PlacementColumns(
                [s.name for s in segments],
                [s.first for s in segments],
                [s.count for s in segments],
                [s.cluster_index for s in segments],
                [s.start for s in segments],
                [s.stride for s in segments],
                [s.size for s in segments],
                [s.extents for s in segments],
                [s.free_step for s in segments],
                [s.free_stride for s in segments],
                [s.free_pos for s in segments],
            )
        records = self._records
        size = len(records)
        return PlacementColumns(
            [record.name for record in records],
            [record.instance for record in records],
            [1] * size,
            [record.cluster_index for record in records],
            [0] * size,
            [0] * size,
            [0] * size,
            [record.extents for record in records],
            list(range(size)),
            [0] * size,
            [0] * size,
        )

    @property
    def peak_words(self) -> int:
        """Maximum simultaneous occupancy over the round."""
        events: List[Tuple[int, int]] = []
        for record in self.records:
            events.append((record.alloc_step, record.size))
            events.append((record.free_step, -record.size))
        events.sort(key=lambda pair: (pair[0], -pair[1]))
        best = 0
        current = 0
        for _, delta in events:
            current += delta
            best = max(best, current)
        return best

    @property
    def highest_address_used(self) -> int:
        """One past the highest word ever occupied."""
        return max(
            (extent.end for record in self.records for extent in record.extents),
            default=0,
        )

    def record_for(self, name: str, instance: int) -> AllocationRecord:
        """The record of one instance (there is exactly one per round)."""
        for record in self.records:
            if record.name == name and record.instance == instance:
                return record
        raise KeyError(f"no allocation record for {name}#{instance}")

    def overlaps(self) -> Iterator[Tuple[
        AllocationRecord, AllocationRecord, Extent, Extent
    ]]:
        """Every pair of lifetime-overlapping records that share words,
        as ``(first, second, extent_a, extent_b)``.

        Pairs come in :attr:`records` order — ``first`` at index ``i``,
        ``second`` at ``j > i``, ascending ``(i, j)``, then extents in
        record order — so the first pair reported is the first an
        all-pairs scan would find.  Records are swept by ``alloc_step``;
        each is compared only with the live extents that start within
        one widest extent below its own.
        """
        records = self.records
        widest = max(
            (extent.size for record in records for extent in record.extents),
            default=0,
        )
        live: List[Tuple[int, int, int]] = []  # (start, end, record), by start
        ending: List[Tuple[int, int]] = []  # heap of (free_step, record)
        clashes: Set[Tuple[int, int]] = set()
        for index in sorted(
            range(len(records)), key=lambda k: records[k].alloc_step
        ):
            record = records[index]
            # Steps only grow along the sweep: a record freed by now
            # overlaps nothing that comes later.
            while ending and ending[0][0] <= record.alloc_step:
                _, gone = heapq.heappop(ending)
                for extent in records[gone].extents:
                    del live[bisect_left(live, (extent.start, extent.end, gone))]
            spans = [
                (extent.start, extent.end, index) for extent in record.extents
            ]
            for start, end, _ in spans:
                low = bisect_left(live, (start - widest + 1,))
                high = bisect_left(live, (end,), low)
                for _, other_end, other in live[low:high]:
                    if (
                        other_end > start
                        and records[other].alloc_step < record.free_step
                    ):
                        clashes.add((min(other, index), max(other, index)))
            for span in spans:
                insort(live, span)
            heapq.heappush(ending, (record.free_step, index))
        for i, j in sorted(clashes):
            first, second = records[i], records[j]
            for extent_a in first.extents:
                for extent_b in second.extents:
                    if extent_a.overlaps(extent_b):
                        yield first, second, extent_a, extent_b

    def verify(self) -> None:
        """Re-check that lifetime-overlapping records never share words.

        The allocator guards this online through its free list (double
        frees raise, and the list must be whole at round end); this is
        an independent offline check used by the test suite.
        """
        for first, second, extent_a, extent_b in self.overlaps():
            raise AllocationError(
                f"{first.name}#{first.instance} and "
                f"{second.name}#{second.instance} overlap in "
                f"space ({extent_a} vs {extent_b}) and time"
            )


