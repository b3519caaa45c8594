"""Tests for the frame-buffer extent model."""

import pytest

from repro.arch.frame_buffer import Extent
from repro.errors import AllocationError


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

