"""Segment booking: the allocator's maps expand to their records.

The Figure-4 allocator books runs of instances (a
:class:`~repro.alloc.maps.Segment`: instance ``first + k`` at
``start + k * stride``, placed at ``alloc_step + k * alloc_stride`` and
freed at ``free_step + k * free_stride``) instead of one record per
instance.  For every entry of the allocation golden table, traced and
untraced, expanding the segments by that definition — ordered by free
step, then release order, then instance — must give exactly
:attr:`AllocationMap.records`, field by field and in order (the golden
digests pin those records), and the counts a profile reports
(``analysis/placements``, ``analysis/irregular``, ``analysis/splits``)
read from the segments must equal the record counts.
"""

from repro.alloc.allocator import AllocationRecord, FrameBufferAllocator
from repro.arch.frame_buffer import Extent
from repro.errors import ReproError
from repro.obs.events import DecisionTrace
from repro.schedule import SCHEDULERS

from tests.alloc.test_alloc_golden import FIT_POLICIES, _workloads


def _expand(alloc_map):
    """The records the segments describe, in records order."""
    keyed = []
    for segment in alloc_map.segments:
        assert segment.count >= 1
        assert segment.closed == segment.count  # booked whole
        if segment.count > 1:
            # Chains, and walked instances each placed right next to
            # the one before.
            assert abs(segment.stride) == segment.size
            assert segment.extents is None and segment.fallback is None
        for k in range(segment.count):
            instance = segment.first + k
            extents = segment.extents or (
                Extent(segment.start + k * segment.stride, segment.size),
            )
            free_step = segment.free_step + k * segment.free_stride
            keyed.append(((free_step, segment.free_pos, instance),
                          AllocationRecord(
                name=segment.name, instance=instance,
                cluster_index=segment.cluster_index, extents=extents,
                direction=segment.direction,
                alloc_step=segment.alloc_step + k * segment.alloc_stride,
                free_step=free_step, regular=segment.regular,
            )))
    keys = [key for key, _ in keyed]
    assert len(set(keys)) == len(keys)  # the order is total
    return [record for _, record in sorted(keyed, key=lambda pair: pair[0])]


def test_segments_expand_to_the_records():
    checked = chained = 0
    for label, application, clustering, architecture, schedulers in (
        _workloads()
    ):
        for name in schedulers:
            try:
                schedule = SCHEDULERS[name](architecture).schedule(
                    application, clustering
                )
            except ReproError:
                continue
            for fit_policy in FIT_POLICIES:
                for traced in (True, False):
                    maps = FrameBufferAllocator(
                        schedule, fit_policy=fit_policy,
                        decisions=DecisionTrace() if traced else None,
                        snapshots=traced,
                    ).allocate()
                    for alloc_map in maps:
                        where = f"{label}/{name}/{fit_policy}/{traced}"
                        counts = (alloc_map.placements,
                                  alloc_map.irregular_placements,
                                  alloc_map.splits)
                        expanded = _expand(alloc_map)
                        assert expanded == alloc_map.records, where
                        records = alloc_map.records
                        assert counts == (
                            len(records),
                            sum(1 for r in records if not r.regular),
                            sum(1 for r in records if r.split),
                        ), where
                        assert len(alloc_map.segments) <= len(records)
                        chained += alloc_map.chained
                    checked += 1
    assert checked >= 2 * 2 * (36 + 120) * 0.9
    assert chained > 0
