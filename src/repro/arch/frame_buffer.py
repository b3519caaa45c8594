"""Frame buffer: the dual-set on-chip data cache of MorphoSys.

"The frame buffer (FB) serves as a data cache for the RC Array.  This
buffer has two sets to enable overlapping of computation with data
transfers.  Data from one set is used for current computation, while
the other set stores results in the external memory and loads data for
the next round of computation" (paper, section 2).

:class:`FrameBufferSet` is the region directory of one set: named,
possibly multi-extent regions (the allocator may split an object across
free blocks).  It tracks occupancy and enforces that regions never
overlap — the runtime check backing the allocator's correctness proofs
in the test suite.  The allocator keeps one directory per set.

Bound extents are indexed by start address, so binding is a bisection,
not a scan.  A one-extent region (every placement that did not split)
takes a short path: the capacity check, one bisection that both tests
for a clash and gives the insertion point, and one insert.  Split
regions also check their own extents against each other.  Both paths
raise the same errors.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import AllocationError, CapacityError
from repro.units import format_size

__all__ = ["Extent", "FrameBufferSet"]


@dataclass(frozen=True)
class Extent:
    """A contiguous address range ``[start, start + size)`` in one set."""

    start: int
    size: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.size <= 0:
            raise AllocationError(
                f"invalid extent start={self.start} size={self.size}"
            )

    @property
    def end(self) -> int:
        """One past the last word."""
        return self.start + self.size

    def overlaps(self, other: "Extent") -> bool:
        """True if the two ranges share at least one word."""
        return self.start < other.end and other.start < self.end

    def __str__(self) -> str:
        return f"[{self.start}..{self.end})"


class FrameBufferSet:
    """One frame-buffer set's named-region directory.

    Regions are identified by ``(name, instance)`` where *instance*
    distinguishes iteration copies of the same logical object under
    loop fission.
    """

    def __init__(self, capacity_words: int, *, set_index: int = 0):
        if capacity_words <= 0:
            raise CapacityError(
                f"frame-buffer set capacity must be positive, "
                f"got {capacity_words}"
            )
        self.capacity_words = capacity_words
        self.set_index = set_index
        self._regions: Dict[Tuple[str, int], Tuple[Extent, ...]] = {}
        # Starts and ends of every bound extent, in address order (the
        # O(log n) overlap check; bound extents are pairwise disjoint).
        self._starts: List[int] = []
        self._ends: List[int] = []

    # -- region directory -----------------------------------------------

    def bind(self, name: str, instance: int, extents: Sequence[Extent]) -> None:
        """Register a region occupying *extents*.

        Raises:
            AllocationError: on overlap with a live region or between
                the region's own extents, duplicate binding, or
                out-of-range extents.
        """
        key = (name, instance)
        if key in self._regions:
            raise AllocationError(
                f"set{self.set_index}: region {name}#{instance} already bound"
            )
        extents = tuple(extents)
        if len(extents) == 1:
            # Every unsplit placement.  Bound extents are disjoint, so
            # when none of those starting before this one's end reaches
            # past its start, none starts inside it either, and the
            # clash test's bisection is also the insertion point.
            extent = extents[0]
            start = extent.start
            end = start + extent.size
            if end > self.capacity_words:
                raise AllocationError(
                    f"set{self.set_index}: extent {extent} of {name}#{instance} "
                    f"exceeds capacity {self.capacity_words}"
                )
            at = bisect_left(self._starts, end)
            if at and self._ends[at - 1] > start:
                self._raise_overlap(name, instance, extents)
            self._regions[key] = extents
            self._starts.insert(at, start)
            self._ends.insert(at, end)
            return
        if not extents:
            raise AllocationError(
                f"set{self.set_index}: region {name}#{instance} has no extents"
            )
        for extent in extents:
            if extent.end > self.capacity_words:
                raise AllocationError(
                    f"set{self.set_index}: extent {extent} of {name}#{instance} "
                    f"exceeds capacity {self.capacity_words}"
                )
        if self._clashes(extents):
            self._raise_overlap(name, instance, extents)
        ordered = sorted(extents, key=lambda extent: extent.start)
        for below, above in zip(ordered, ordered[1:]):
            if below.overlaps(above):
                raise AllocationError(
                    f"set{self.set_index}: {name}#{instance} extents "
                    f"{below} and {above} overlap each other"
                )
        self._regions[key] = extents
        for extent in ordered:
            at = bisect_left(self._starts, extent.start)
            self._starts.insert(at, extent.start)
            self._ends.insert(at, extent.end)

    def _clashes(self, extents: Tuple[Extent, ...]) -> bool:
        """True if any extent overlaps a bound one (via the index)."""
        starts = self._starts
        ends = self._ends
        for extent in extents:
            # Bound extents are disjoint, so of those starting before
            # this one ends, only the last can reach past its start.
            below = bisect_left(starts, extent.end)
            if below and ends[below - 1] > extent.start:
                return True
        return False

    def _raise_overlap(self, name: str, instance: int,
                       extents: Tuple[Extent, ...]) -> None:
        """Name the first clash in binding order (a linear scan)."""
        for other_key, other_extents in self._regions.items():
            for extent in extents:
                for other in other_extents:
                    if extent.overlaps(other):
                        raise AllocationError(
                            f"set{self.set_index}: {name}#{instance} extent "
                            f"{extent} overlaps {other_key[0]}#{other_key[1]} "
                            f"extent {other}"
                        )

    def release(self, name: str, instance: int) -> Tuple[Extent, ...]:
        """Unregister a region, returning its extents."""
        key = (name, instance)
        try:
            extents = self._regions.pop(key)
        except KeyError:
            raise AllocationError(
                f"set{self.set_index}: region {name}#{instance} is not bound"
            ) from None
        for extent in extents:
            at = bisect_left(self._starts, extent.start)
            del self._starts[at]
            del self._ends[at]
        return extents

    def is_bound(self, name: str, instance: int) -> bool:
        """True if the region is currently live."""
        return (name, instance) in self._regions

    def extents_of(self, name: str, instance: int) -> Tuple[Extent, ...]:
        """Extents of a live region."""
        try:
            return self._regions[(name, instance)]
        except KeyError:
            raise AllocationError(
                f"set{self.set_index}: region {name}#{instance} is not bound"
            ) from None

    def live_regions(self) -> Tuple[Tuple[str, int], ...]:
        """All live region keys, in binding order."""
        return tuple(self._regions.keys())

    @property
    def occupied_words(self) -> int:
        """Words currently allocated."""
        return sum(
            extent.size
            for extents in self._regions.values()
            for extent in extents
        )

    @property
    def free_words(self) -> int:
        """Words currently free."""
        return self.capacity_words - self.occupied_words

    def clear(self) -> None:
        """Drop all regions (used between schedules)."""
        self._regions.clear()
        self._starts = []
        self._ends = []

    def __str__(self) -> str:
        return (
            f"FBset{self.set_index}({format_size(self.capacity_words)}, "
            f"{len(self._regions)} regions, "
            f"{self.occupied_words}/{self.capacity_words} words)"
        )

