"""Allocation quality metrics.

The paper's section 6 claims about the allocator: "It achieves that the
memory size used is the minimum allowed by the architecture.  For all
examples no data or result has to be split into several parts.
Moreover, it simplifies accesses to FB, as well as, promotes regularity
in data allocation."  :func:`compute_stats` quantifies each claim so
the benchmarks can assert them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.alloc.allocator import AllocationMap

__all__ = ["AllocationStats", "compute_stats"]


@dataclass(frozen=True)
class AllocationStats:
    """Aggregated quality numbers for one :class:`AllocationMap`.

    Attributes:
        fb_set: which set the map describes.
        capacity_words: set capacity.
        peak_words: maximum simultaneous occupancy.
        highest_address_used: one past the highest word touched.
        placements: total object instances placed.
        splits: placements needing more than one extent.
        irregular_placements: placements that broke iteration adjacency.
        utilisation: ``peak_words / capacity_words``.
        mean_live_words: average occupancy over logical steps (how well
            the set is used across the round, not just at the peak).
    """

    fb_set: int
    capacity_words: int
    peak_words: int
    highest_address_used: int
    placements: int
    splits: int
    irregular_placements: int
    utilisation: float
    mean_live_words: float

    @property
    def split_free(self) -> bool:
        """The paper's headline allocator claim."""
        return self.splits == 0


def compute_stats(allocation: AllocationMap) -> AllocationStats:
    """Derive :class:`AllocationStats` from a map."""
    records = allocation.records
    placements = len(records)
    peak = allocation.peak_words
    # Mean live words over logical steps, weighted by step span.
    max_step = max((record.free_step for record in records), default=0)
    live_per_step: List[int] = [0] * (max_step + 1)
    for record in records:
        for step in range(record.alloc_step, record.free_step):
            live_per_step[step] += record.size
    mean_live = (
        sum(live_per_step) / len(live_per_step) if live_per_step else 0.0
    )
    return AllocationStats(
        fb_set=allocation.fb_set,
        capacity_words=allocation.capacity_words,
        peak_words=peak,
        highest_address_used=allocation.highest_address_used,
        placements=placements,
        splits=allocation.splits,
        irregular_placements=allocation.irregular_placements,
        utilisation=peak / allocation.capacity_words if allocation.capacity_words else 0.0,
        mean_live_words=mean_live,
    )
