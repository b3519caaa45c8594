"""Tests for the frame-buffer region model."""

import pytest

from repro.arch.frame_buffer import Extent, FrameBufferSet
from repro.errors import AllocationError, CapacityError


class TestExtent:
    def test_end(self):
        assert Extent(10, 5).end == 15

    def test_overlap_detection(self):
        assert Extent(0, 10).overlaps(Extent(9, 5))
        assert not Extent(0, 10).overlaps(Extent(10, 5))
        assert Extent(5, 1).overlaps(Extent(0, 10))

    def test_invalid_rejected(self):
        with pytest.raises(AllocationError):
            Extent(-1, 5)
        with pytest.raises(AllocationError):
            Extent(0, 0)


class TestFrameBufferSet:
    def test_bind_and_release(self):
        fb = FrameBufferSet(1024)
        fb.bind("x", 0, [Extent(0, 100)])
        assert fb.is_bound("x", 0)
        assert fb.occupied_words == 100
        assert fb.free_words == 924
        fb.release("x", 0)
        assert not fb.is_bound("x", 0)
        assert fb.occupied_words == 0

    def test_overlap_rejected(self):
        fb = FrameBufferSet(1024)
        fb.bind("x", 0, [Extent(0, 100)])
        with pytest.raises(AllocationError, match="overlaps"):
            fb.bind("y", 0, [Extent(50, 100)])

    def test_duplicate_bind_rejected(self):
        fb = FrameBufferSet(1024)
        fb.bind("x", 0, [Extent(0, 100)])
        with pytest.raises(AllocationError, match="already bound"):
            fb.bind("x", 0, [Extent(200, 100)])

    def test_instances_are_distinct(self):
        fb = FrameBufferSet(1024)
        fb.bind("x", 0, [Extent(0, 100)])
        fb.bind("x", 1, [Extent(100, 100)])
        assert fb.is_bound("x", 0) and fb.is_bound("x", 1)

    def test_out_of_range_rejected(self):
        fb = FrameBufferSet(128)
        with pytest.raises(AllocationError, match="exceeds capacity"):
            fb.bind("x", 0, [Extent(100, 100)])

    def test_release_unbound_rejected(self):
        with pytest.raises(AllocationError, match="not bound"):
            FrameBufferSet(128).release("ghost", 0)

    def test_empty_extents_rejected(self):
        with pytest.raises(AllocationError):
            FrameBufferSet(128).bind("x", 0, [])

    def test_split_region(self):
        fb = FrameBufferSet(1024)
        fb.bind("x", 0, [Extent(0, 50), Extent(100, 50)])
        assert fb.occupied_words == 100

    def test_zero_capacity_rejected(self):
        with pytest.raises(CapacityError):
            FrameBufferSet(0)

    def test_clear(self):
        fb = FrameBufferSet(1024)
        fb.bind("x", 0, [Extent(0, 100)])
        fb.clear()
        assert fb.live_regions() == ()

