"""DMA controller: the single bridge to external memory.

"The DMA controller establishes the bridge that connects the external
memory the FB or the CM.  Thus simultaneous transfers of data and
contexts are not possible" (paper, section 2).  This single shared
channel is *the* structural constraint the Complete Data Scheduler
optimises around: every avoided data transfer frees DMA time that
context loads (or the next cluster's data) can use.

:class:`DmaChannel` is a timeline resource: the simulator builds one
per run and requests each visit's context, load or store group as one
block with an earliest-start time, receiving ``(start, finish)`` cycle
stamps; the channel serialises everything and accumulates statistics by
:class:`TransferKind`.  The per-transfer trace is not the channel's:
the simulator stamps :class:`DmaTransfer` records back to back inside
each block from the visit's ops.
"""

from __future__ import annotations

import enum
from typing import Dict, NamedTuple, Tuple

from repro.errors import SimulationError

__all__ = ["TransferKind", "DmaTransfer", "DmaChannel"]


class TransferKind(enum.Enum):
    """What a DMA operation moves."""

    DATA_LOAD = "data_load"        # external memory -> frame buffer
    DATA_STORE = "data_store"      # frame buffer -> external memory
    CONTEXT_LOAD = "context_load"  # external memory -> context memory


class DmaTransfer(NamedTuple):
    """One transfer of a simulated run's per-transfer trace.

    A lightweight NamedTuple rather than a dataclass: simulations mint
    one per transfer (tens of thousands per run), so construction cost
    is on the hot path.
    """

    kind: TransferKind
    label: str
    words: int
    start: int
    finish: int

    @property
    def cycles(self) -> int:
        return self.finish - self.start


class DmaChannel:
    """Serialising DMA timeline of one simulation run.

    The channel is non-preemptive: a block occupies the channel from its
    start to its finish, and blocks are served in call order (the
    context scheduler's issue order decides that order before
    simulation).  Every duration arrives with its block, already priced
    by the :class:`~repro.arch.params.TimingModel`.
    """

    def __init__(self) -> None:
        self.busy_until = 0
        # Statistics are accumulated as blocks are requested so the
        # queries below stay O(1).  Keyed by TransferKind.value: string
        # hashes are cached, enum hashes are recomputed on every dict
        # operation.
        self._words: Dict[str, int] = {k.value: 0 for k in TransferKind}
        self._counts: Dict[str, int] = {k.value: 0 for k in TransferKind}
        self._cycles = 0

    def request_block(
        self,
        kind: TransferKind,
        words: int,
        duration: int,
        count: int,
        earliest_start: int,
    ) -> Tuple[int, int]:
        """Serve a contiguous run of *count* transfers in one step.

        The channel serialises back-to-back transfers with one earliest
        start into one contiguous block, so only the block's start and
        finish matter for the timeline: it starts at *earliest_start* or
        when the channel frees up, whichever is later, and lasts
        *duration* cycles.  Negative sizes, durations, counts or start
        times are rejected rather than silently corrupting the
        statistics.

        Returns:
            ``(start, finish)`` cycle stamps.
        """
        if words < 0:
            raise SimulationError(f"negative transfer size {words}")
        if earliest_start < 0:
            raise SimulationError(
                f"negative earliest_start {earliest_start}"
            )
        if duration < 0:
            raise SimulationError(f"negative block duration {duration}")
        if count < 0:
            raise SimulationError(f"negative transfer count {count}")
        start = max(self.busy_until, earliest_start)
        if count == 0 or words == 0:
            return (start, start)
        finish = start + duration
        self.busy_until = finish
        key = kind._value_  # .value goes through a descriptor; hot path
        self._words[key] += words
        self._counts[key] += count
        self._cycles += duration
        return (start, finish)

    # -- periodic runs ------------------------------------------------------

    def mark(self) -> Tuple[int, ...]:
        """The timeline's end and every total, as one tuple for
        :meth:`repeat`."""
        return (
            self.busy_until, self._cycles,
            *self._words.values(), *self._counts.values(),
        )

    def repeat(self, since: Tuple[int, ...], times: int) -> None:
        """Serve *times* more copies of the blocks served since the
        :meth:`mark` *since*, each copy starting where the last ended.

        This is what the rounds of a periodic run add when every round
        repeats the previous one shifted by the same number of cycles:
        the totals grow by the same amounts and the timeline's end moves
        by the same span, *times* over.
        """
        busy, cycles, *totals = (
            now + times * (now - then)
            for now, then in zip(self.mark(), since)
        )
        self.busy_until = busy
        self._cycles = cycles
        kinds = len(self._words)
        self._words = dict(zip(self._words, totals[:kinds]))
        self._counts = dict(zip(self._counts, totals[kinds:]))

    # -- statistics ---------------------------------------------------------

    def words_moved(self, kind: TransferKind) -> int:
        """Total words moved for one transfer kind."""
        return self._words[kind.value]

    def cycles_busy(self) -> int:
        """Total cycles the channel spent transferring."""
        return self._cycles

    def count(self, kind: TransferKind) -> int:
        """Number of transfers of one kind."""
        return self._counts[kind.value]
