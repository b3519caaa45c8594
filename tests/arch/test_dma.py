"""Tests for the serialising DMA channel."""

import pytest

from repro.arch.dma import DmaChannel, TransferKind
from repro.arch.params import TimingModel
from repro.errors import SimulationError

TIMING = TimingModel(
    data_word_cycles=2, context_word_cycles=3, dma_setup_cycles=10
)


def _block(dma, kind, words, earliest, count=1):
    """Request *count* transfers of *words* each as one block, priced
    by :data:`TIMING` the way the simulator's timing rows price them."""
    if kind is TransferKind.CONTEXT_LOAD:
        cycles = TIMING.context_transfer_cycles(words)
    else:
        cycles = TIMING.data_transfer_cycles(words)
    return dma.request_block(kind, words * count, cycles * count, count,
                             earliest)


class TestDmaChannel:
    def test_single_transfer_timing(self):
        dma = DmaChannel()
        start, finish = _block(dma, TransferKind.DATA_LOAD, 100, 0)
        assert start == 0
        assert finish == 10 + 200

    def test_context_timing_uses_context_cost(self):
        dma = DmaChannel()
        _, finish = _block(dma, TransferKind.CONTEXT_LOAD, 100, 0)
        assert finish == 10 + 300
        assert dma.cycles_busy() == 10 + 300

    def test_serialisation(self):
        dma = DmaChannel()
        _, first_finish = _block(dma, TransferKind.DATA_LOAD, 10, 0)
        second_start, _ = _block(dma, TransferKind.CONTEXT_LOAD, 10, 0)
        assert second_start == first_finish

    def test_earliest_start_respected(self):
        dma = DmaChannel()
        start, _ = _block(dma, TransferKind.DATA_STORE, 10, 500)
        assert start == 500

    def test_idle_gap_when_earliest_late(self):
        dma = DmaChannel()
        _block(dma, TransferKind.DATA_LOAD, 10, 0)
        start, _ = _block(dma, TransferKind.DATA_LOAD, 10, 10_000)
        assert start == 10_000
        # The idle gap is not busy time.
        assert dma.cycles_busy() == 2 * (10 + 20)

    def test_negative_words_rejected(self):
        dma = DmaChannel()
        with pytest.raises(SimulationError):
            dma.request_block(TransferKind.DATA_LOAD, -1, 10, 1, 0)
        # A rejected block leaves the timeline and statistics untouched.
        assert dma.busy_until == 0
        assert dma.count(TransferKind.DATA_LOAD) == 0

    def test_negative_earliest_rejected(self):
        dma = DmaChannel()
        with pytest.raises(SimulationError):
            dma.request_block(TransferKind.DATA_LOAD, 1, 12, 1, -1)
        assert dma.busy_until == 0
        assert dma.words_moved(TransferKind.DATA_LOAD) == 0

    def test_statistics(self):
        dma = DmaChannel()
        _block(dma, TransferKind.DATA_LOAD, 100, 0)
        _block(dma, TransferKind.DATA_LOAD, 25, 0, count=2)
        _block(dma, TransferKind.DATA_STORE, 30, 0)
        _block(dma, TransferKind.CONTEXT_LOAD, 20, 0)
        assert dma.words_moved(TransferKind.DATA_LOAD) == 150
        assert dma.words_moved(TransferKind.DATA_STORE) == 30
        assert dma.words_moved(TransferKind.CONTEXT_LOAD) == 20
        assert dma.count(TransferKind.DATA_LOAD) == 3
        assert dma.count(TransferKind.CONTEXT_LOAD) == 1
        assert dma.cycles_busy() == (
            (10 + 200) + 2 * (10 + 50) + (10 + 60) + (10 + 60)
        )
        # Every block here was ready at 0, so the channel never idled.
        assert dma.busy_until == dma.cycles_busy()


class TestRequestBlock:
    def test_zero_count_or_words_is_free(self):
        dma = DmaChannel()
        for words, count in ((0, 3), (30, 0)):
            start, finish = dma.request_block(
                TransferKind.DATA_LOAD, words, 60, count, 5
            )
            assert start == finish == 5
        assert dma.cycles_busy() == 0

    def test_negative_words_rejected(self):
        with pytest.raises(SimulationError, match="negative transfer size"):
            DmaChannel().request_block(TransferKind.DATA_LOAD, -1, 10, 1, 0)

    def test_negative_earliest_start_rejected(self):
        with pytest.raises(SimulationError, match="negative earliest_start"):
            DmaChannel().request_block(TransferKind.DATA_LOAD, 10, 10, 1, -1)

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError, match="negative block duration"):
            DmaChannel().request_block(TransferKind.DATA_LOAD, 10, -1, 1, 0)

    def test_negative_count_rejected(self):
        with pytest.raises(SimulationError, match="negative transfer count"):
            DmaChannel().request_block(TransferKind.DATA_LOAD, 10, 10, -1, 0)


class TestRepeat:
    def _round(self, dma, at):
        """One periodic round: a context load, a data load and a store,
        all gated on cycle *at*."""
        _block(dma, TransferKind.CONTEXT_LOAD, 8, at)
        _block(dma, TransferKind.DATA_LOAD, 16, at, count=3)
        _block(dma, TransferKind.DATA_STORE, 4, at, count=2)

    def test_repeat_equals_serving_the_rounds(self):
        period = 400
        served = DmaChannel()
        repeated = DmaChannel()
        for dma in (served, repeated):
            self._round(dma, 0)
        mark = repeated.mark()
        self._round(repeated, period)
        repeated.repeat(mark, 3)
        for round_index in range(1, 5):
            self._round(served, round_index * period)
        assert repeated.mark() == served.mark()
        assert repeated.busy_until == served.busy_until
        for kind in TransferKind:
            assert repeated.words_moved(kind) == served.words_moved(kind)
            assert repeated.count(kind) == served.count(kind)
        assert repeated.cycles_busy() == served.cycles_busy()

    def test_repeat_zero_times_changes_nothing(self):
        dma = DmaChannel()
        mark = dma.mark()
        self._round(dma, 0)
        before = dma.mark()
        dma.repeat(mark, 0)
        assert dma.mark() == before
