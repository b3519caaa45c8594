"""Per-instance views of an allocation, expanded from its segments.

The ``alloc.*`` decision events and the Figure-5 snapshots of a round
are expanded from the :class:`~repro.alloc.maps.Segment` runs the
allocator booked, in the order a per-instance walk makes them.  Only a
decision trace or snapshots need them, so the allocator imports this
module when one is attached.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, List, Tuple

from repro.arch.frame_buffer import Extent
from repro.alloc.maps import Segment, Snapshot

__all__ = ["build_snapshots", "decision_events"]

_FIRST = itemgetter(0)


def build_snapshots(segments: Iterable[Segment],
                    labels: Iterable[Tuple[str, int]]) -> List[Snapshot]:
    """One :class:`Snapshot` per ``(label, step)`` of *labels* (in step
    order): the regions of the booked *segments* placed by that step
    and not freed by then, in placement order."""
    placed = []
    for segment in segments:
        name = segment.name
        for k in range(segment.count):
            placed.append((
                segment.placed_key(k),
                segment.free_step + k * segment.free_stride,
                (name, segment.first + k, segment.extents_at(k)),
            ))
    placed.sort(key=_FIRST)
    frees = sorted(
        (free_step, index) for index, (_, free_step, _) in enumerate(placed)
    )
    live: Dict[int, Tuple[str, int, Tuple[Extent, ...]]] = {}
    snapshots: List[Snapshot] = []
    added = freed = 0
    for label, step in labels:
        while added < len(placed) and placed[added][0][0] <= step:
            live[added] = placed[added][2]
            added += 1
        while freed < len(frees) and frees[freed][0] <= step:
            live.pop(frees[freed][1], None)
            freed += 1
        snapshots.append(
            Snapshot(label=label, step=step, regions=tuple(live.values()))
        )
    return snapshots


def decision_events(
    segments: Iterable[Segment], fb_set: int
) -> List[Tuple[str, str, Dict[str, object]]]:
    """The ``alloc.*`` events of the placements and frees of
    *segments* (a live segment's closed prefix counts as freed) as
    ``(kind, name, detail)``, in the order the walk makes them: by
    step, placements before frees, then by load, output or release
    order and instance; an instance's ``alloc.fallback`` and
    ``alloc.split`` precede its ``alloc.place``."""
    events = []
    for segment in segments:
        name = segment.name
        size = segment.size
        direction = segment.direction
        for k in range(segment.count):
            instance = segment.first + k
            step, pos, _ = segment.placed_key(k)
            spans = [(e.start, e.end) for e in segment.extents_at(k)]
            split = len(spans) > 1
            if segment.fallback is not None:
                events.append(((step, 0, pos, instance, 0),
                               "alloc.fallback", name, dict(
                    instance=instance, fb_set=fb_set, step=step,
                    expected_start=segment.fallback, size=size,
                    direction=direction,
                )))
            if split:
                events.append(((step, 0, pos, instance, 1),
                               "alloc.split", name, dict(
                    instance=instance, fb_set=fb_set, step=step,
                    size=size, direction=direction,
                    extents=[list(span) for span in spans],
                )))
            events.append(((step, 0, pos, instance, 2),
                           "alloc.place", name, dict(
                instance=instance, fb_set=fb_set, step=step,
                cluster_index=segment.cluster_index, size=size,
                direction=direction, regular=segment.regular,
                split=split, extents=[list(span) for span in spans],
            )))
            if k < segment.closed:
                free_step = segment.free_step + k * segment.free_stride
                events.append(((free_step, 1, segment.free_pos, instance, 0),
                               "alloc.free", name, dict(
                    instance=instance, fb_set=fb_set, step=free_step,
                    extents=[list(span) for span in spans],
                )))
    events.sort(key=_FIRST)
    return [(kind, name, detail) for _, kind, name, detail in events]
