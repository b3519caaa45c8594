"""``AllocationMap.overlaps``: the sweep reports exactly what an
all-pairs scan reports, in the same order.

``verify()`` raises on the first pair and lint ALLOC001 emits every
pair, so both stay byte-identical only if the order matches too.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.allocator import AllocationMap, AllocationRecord
from repro.arch.frame_buffer import Extent


def all_pairs(allocation):
    """The all-pairs scan the sweep replaced (the oracle)."""
    records = allocation.records
    found = []
    for i, first in enumerate(records):
        for second in records[i + 1:]:
            if not (first.alloc_step < second.free_step
                    and second.alloc_step < first.free_step):
                continue
            for extent_a in first.extents:
                for extent_b in second.extents:
                    if extent_a.overlaps(extent_b):
                        found.append((first, second, extent_a, extent_b))
    return found


_extent = st.builds(
    Extent,
    start=st.integers(min_value=0, max_value=60),
    size=st.integers(min_value=1, max_value=24),
)

# Short step and address ranges make ties, empty and reversed
# lifetimes, and clashes common.
_record = st.builds(
    AllocationRecord,
    name=st.sampled_from(["a", "b", "c"]),
    instance=st.integers(min_value=0, max_value=3),
    cluster_index=st.just(0),
    extents=st.lists(_extent, min_size=1, max_size=3).map(tuple),
    direction=st.sampled_from(["high", "low"]),
    alloc_step=st.integers(min_value=0, max_value=12),
    free_step=st.integers(min_value=0, max_value=12),
    regular=st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_record, max_size=14))
def test_sweep_matches_all_pairs_in_order(records):
    allocation = AllocationMap(
        fb_set=0, capacity_words=96, rf=1, records=records
    )
    assert list(allocation.overlaps()) == all_pairs(allocation)


def test_clean_map_reports_nothing_and_clash_is_first_pair():
    def record(name, start, size, alloc_step, free_step):
        return AllocationRecord(
            name, 0, 0, (Extent(start, size),), "low",
            alloc_step, free_step, True,
        )

    # Back-to-back in time or in space is no clash.
    records = [
        record("a", 0, 8, 0, 4),
        record("b", 0, 8, 4, 6),
        record("c", 8, 8, 0, 6),
    ]
    allocation = AllocationMap(
        fb_set=0, capacity_words=16, rf=1, records=records
    )
    assert list(allocation.overlaps()) == []
    allocation.verify()
    records.append(record("d", 4, 8, 3, 5))
    pairs = [(first.name, second.name)
             for first, second, _, _ in allocation.overlaps()]
    assert pairs == [("a", "d"), ("b", "d"), ("c", "d")]
