"""DMA controller: the single bridge to external memory.

"The DMA controller establishes the bridge that connects the external
memory the FB or the CM.  Thus simultaneous transfers of data and
contexts are not possible" (paper, section 2).  This single shared
channel is *the* structural constraint the Complete Data Scheduler
optimises around: every avoided data transfer frees DMA time that
context loads (or the next cluster's data) can use.

:class:`DmaChannel` is a timeline resource: callers request transfers
with an earliest-start time and receive ``(start, finish)`` cycle
stamps; the channel serialises everything and accumulates statistics by
:class:`TransferKind`.
"""

from __future__ import annotations

import enum
from typing import Dict, List, NamedTuple, Tuple

from repro.arch.params import TimingModel
from repro.errors import SimulationError

__all__ = ["TransferKind", "DmaTransfer", "DmaChannel"]


class TransferKind(enum.Enum):
    """What a DMA operation moves."""

    DATA_LOAD = "data_load"        # external memory -> frame buffer
    DATA_STORE = "data_store"      # frame buffer -> external memory
    CONTEXT_LOAD = "context_load"  # external memory -> context memory


class DmaTransfer(NamedTuple):
    """A completed DMA operation (for traces and statistics).

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
    """Serialising DMA timeline.

    The channel is non-preemptive: a transfer occupies the channel from
    its start to its finish, and requests are served in call order (the
    context scheduler decides that order before simulation).
    """

    def __init__(self, timing: TimingModel, *, record_trace: bool = True):
        self.timing = timing
        self.busy_until = 0
        #: When False, the per-transfer trace is not recorded (the
        #: statistics below are still exact).  Bulk analysis drivers
        #: that only consume aggregates opt out of the trace.
        self.record_trace = record_trace
        self.transfers: List[DmaTransfer] = []
        # Statistics are accumulated as transfers are requested so the
        # queries below stay O(1) instead of rescanning the trace.
        # Keyed by TransferKind.value: string hashes are cached, enum
        # hashes are recomputed on every dict operation.
        self._words: Dict[str, int] = {k.value: 0 for k in TransferKind}
        self._counts: Dict[str, int] = {k.value: 0 for k in TransferKind}
        self._cycles = 0

    def request(
        self,
        kind: TransferKind,
        words: int,
        earliest_start: int,
        label: str = "",
    ) -> Tuple[int, int]:
        """Schedule a transfer at or after *earliest_start*.

        Returns:
            ``(start, finish)`` cycle stamps.
        """
        if words < 0:
            raise SimulationError(f"negative transfer size {words} ({label})")
        if earliest_start < 0:
            raise SimulationError(
                f"negative earliest_start {earliest_start} ({label})"
            )
        if words == 0:
            start = max(self.busy_until, earliest_start)
            return (start, start)
        if kind is TransferKind.CONTEXT_LOAD:
            duration = self.timing.context_transfer_cycles(words)
        else:
            duration = self.timing.data_transfer_cycles(words)
        start = max(self.busy_until, earliest_start)
        finish = start + duration
        self.busy_until = finish
        if self.record_trace:
            # tuple.__new__ skips the generated keyword-checking
            # __new__; this is the hottest allocation in a simulation.
            self.transfers.append(
                tuple.__new__(DmaTransfer,
                              (kind, label, words, start, finish))
            )
        key = kind._value_  # .value goes through a descriptor; hot path
        self._words[key] += words
        self._counts[key] += 1
        self._cycles += duration
        return (start, finish)

    def request_block(
        self,
        kind: TransferKind,
        words: int,
        duration: int,
        count: int,
        earliest_start: int,
    ) -> Tuple[int, int]:
        """Account a contiguous run of *count* transfers in one step.

        Equivalent to *count* consecutive :meth:`request` calls with the
        same ``earliest_start`` and the given total ``words``/
        ``duration``: the channel serialises back-to-back requests into
        one contiguous block, so only the block's start and finish
        matter for the timeline.  Used by the simulator's fast path when
        the per-transfer trace is off; the statistics stay exact.

        The fast path enforces the same accounting guards as the traced
        path: negative sizes, durations, counts, or start times are
        rejected rather than silently corrupting the statistics.
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
        if count == 0 or words == 0:
            start = max(self.busy_until, earliest_start)
            return (start, start)
        start = max(self.busy_until, earliest_start)
        finish = start + duration
        self.busy_until = finish
        key = kind._value_
        self._words[key] += words
        self._counts[key] += count
        self._cycles += duration
        return (start, finish)

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

    def by_kind(self) -> Dict[TransferKind, int]:
        """Words moved, keyed by kind."""
        return {kind: self._words[kind.value] for kind in TransferKind}

    def reset(self) -> None:
        """Clear the timeline and statistics."""
        self.busy_until = 0
        self.transfers.clear()
        self._words = {k.value: 0 for k in TransferKind}
        self._counts = {k.value: 0 for k in TransferKind}
        self._cycles = 0
