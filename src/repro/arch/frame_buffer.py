"""Frame buffer: the dual-set on-chip data cache of MorphoSys.

"The frame buffer (FB) serves as a data cache for the RC Array.  This
buffer has two sets to enable overlapping of computation with data
transfers.  Data from one set is used for current computation, while
the other set stores results in the external memory and loads data for
the next round of computation" (paper, section 2).

:class:`Extent` is one contiguous address range of a set.  An object
placed by the allocator occupies one extent, or several when it had to
be split across free blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AllocationError

__all__ = ["Extent"]


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
