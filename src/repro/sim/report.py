"""Simulation results: timing, traffic and the per-visit Gantt trace."""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.arch.dma import DmaTransfer

__all__ = ["PeriodicVisits", "VisitTiming", "SimulationReport"]


@dataclass(frozen=True)
class VisitTiming:
    """When one visit's computation ran.

    Attributes:
        index: visit index (round-major).
        round_index / cluster_index / fb_set: identification.
        prep_finish: cycle when the visit's loads and contexts were all
            in place.
        compute_start / compute_end: the RC-array busy window.
    """

    index: int
    round_index: int
    cluster_index: int
    fb_set: int
    prep_finish: int
    compute_start: int
    compute_end: int

    @property
    def compute_cycles(self) -> int:
        return self.compute_end - self.compute_start


class PeriodicVisits(Sequence):
    """A run's per-visit timings, its shifted rounds kept in periodic
    form.

    Holds the walked timings in program order and one ``(template,
    first, count, delta)`` per stretch of rounds the simulator stamped
    by shift: program rounds ``first`` to ``first + count - 1`` repeat
    the walked round ``template``, each one *delta* cycles later than
    the one before.  A shifted visit becomes a :class:`VisitTiming`
    only when it is read, the way
    :class:`~repro.codegen.templated.TemplateVisits` stamps ops.

    Behaves exactly like the tuple of every visit's timing: ``len``,
    indexing (negative too), slicing (to a plain tuple), iteration,
    equality with the tuple in both directions and ``hash`` all match
    it.  Indexing stamps one visit, found from its round, and it
    pickles in the periodic form.
    """

    __slots__ = ("_walked", "_width", "_stretches", "_idents", "_count")

    def __init__(
        self,
        walked: Tuple[VisitTiming, ...],
        width: int,
        stretches: Tuple[Tuple[int, int, int, int], ...],
        idents: Optional[Sequence],
    ) -> None:
        """*width* is the visits per round.  *idents* gives every
        visit's ``(index, round_index)`` when its position does not."""
        self._walked = walked
        self._width = width
        self._stretches = stretches
        self._idents = idents
        self._count = len(walked) + width * sum(
            count for _, _, count, _ in stretches
        )

    def _at(self, position: int) -> VisitTiming:
        """The timing of visit *position*, ``0 <= position < len``."""
        width = self._width
        round_index = position // width
        skipped = 0
        for template, first, count, delta in self._stretches:
            if round_index < first:
                break
            if round_index < first + count:
                visit = self._walked[
                    (template - skipped) * width + position % width
                ]
                shift = (round_index - template) * delta
                index, visit_round = (
                    self._idents[position] if self._idents
                    else (position, round_index)
                )
                # The frozen dataclass's generated __init__ is bypassed
                # as in TemplateVisits._stamp.
                stamped = object.__new__(VisitTiming)
                stamped.__dict__.update(
                    index=index,
                    round_index=visit_round,
                    cluster_index=visit.cluster_index,
                    fb_set=visit.fb_set,
                    prep_finish=visit.prep_finish + shift,
                    compute_start=visit.compute_start + shift,
                    compute_end=visit.compute_end + shift,
                )
                return stamped
            skipped += count
        return self._walked[position - skipped * width]

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(
                self._at(position)
                for position in range(*index.indices(self._count))
            )
        position = operator.index(index)
        if position < 0:
            position += self._count
        if not 0 <= position < self._count:
            raise IndexError("visit index out of range")
        return self._at(position)

    def __iter__(self):
        if not self._stretches:
            return iter(self._walked)
        return map(self._at, range(self._count))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (PeriodicVisits, tuple)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return (
            PeriodicVisits,
            (self._walked, self._width, self._stretches, self._idents),
        )


@dataclass(frozen=True)
class SimulationReport:
    """Everything a simulation run measured.

    Attributes:
        scheduler: scheduler name from the schedule.
        application: application name.
        total_cycles: the makespan (DMA drain included).
        compute_cycles: total RC-array busy cycles.
        rc_stall_cycles: cycles the RC array sat idle between visits
            waiting for transfers.
        dma_busy_cycles: cycles the DMA channel was transferring.
        data_load_words / data_store_words / context_words: traffic.
        data_load_count / data_store_count / context_load_count:
            transfer operation counts.
        visits: per-visit timing (the Gantt trace rows), a sequence
            equal to the tuple of every visit's :class:`VisitTiming`.
            A run's own report holds a :class:`PeriodicVisits`, which
            keeps shifted rounds in periodic form.
        transfers: the raw DMA transfer trace.
        functional_verified: True when functional mode ran and every
            final output matched the reference execution.
    """

    scheduler: str
    application: str
    total_cycles: int
    compute_cycles: int
    rc_stall_cycles: int
    dma_busy_cycles: int
    data_load_words: int
    data_store_words: int
    context_words: int
    data_load_count: int
    data_store_count: int
    context_load_count: int
    visits: Sequence[VisitTiming]
    transfers: Tuple[DmaTransfer, ...]
    functional_verified: Optional[bool] = None

    def __getstate__(self):
        state = dict(self.__dict__)
        visits = self.visits
        if isinstance(visits, PeriodicVisits) and not visits._stretches:
            # Stored as the walked tuple itself, so the report pickles to
            # the bytes it had before visits were kept periodic.
            state["visits"] = visits._walked
        return state

    @property
    def data_words(self) -> int:
        """Total data traffic (loads + stores)."""
        return self.data_load_words + self.data_store_words

    @property
    def dma_utilisation(self) -> float:
        """Fraction of the makespan the DMA channel was busy."""
        return self.dma_busy_cycles / self.total_cycles if self.total_cycles else 0.0

    @property
    def rc_utilisation(self) -> float:
        """Fraction of the makespan the RC array was busy."""
        return self.compute_cycles / self.total_cycles if self.total_cycles else 0.0

    def improvement_over(self, baseline: "SimulationReport") -> float:
        """Relative execution improvement (the paper's Figure 6 metric):
        ``(T_baseline - T_this) / T_baseline``, in [0, 1] when faster."""
        if baseline.total_cycles <= 0:
            raise ValueError("baseline has non-positive makespan")
        return (baseline.total_cycles - self.total_cycles) / baseline.total_cycles

    def gantt(self, *, width: int = 72) -> str:
        """ASCII Gantt chart of compute windows and DMA activity."""
        if not self.visits:
            return "(empty run)"
        scale = max(self.total_cycles, 1)
        lines: List[str] = [
            f"{'visit':>6} {'cluster':>8} {'set':>3}  timeline "
            f"(total {self.total_cycles} cycles)"
        ]
        for timing in self.visits:
            start = int(timing.compute_start / scale * width)
            # A window ending at the makespan lands exactly on `width`;
            # clamp like the DMA row so the right frame edge survives.
            end = min(
                max(int(timing.compute_end / scale * width), start + 1),
                width,
            )
            bar = " " * start + "#" * (end - start)
            lines.append(
                f"{timing.index:>6} {('Cl' + str(timing.cluster_index + 1)):>8} "
                f"{timing.fb_set:>3}  |{bar:<{width}}|"
            )
        if not self.transfers:
            # The run recorded no per-transfer trace (trace=False) —
            # an empty bar would be indistinguishable from an idle DMA.
            lines.append(f"{'DMA':>19}  (trace disabled)")
            return "\n".join(lines)
        dma_bar = [" "] * width
        for transfer in self.transfers:
            start = int(transfer.start / scale * width)
            end = max(int(transfer.finish / scale * width), start + 1)
            mark = {"data_load": "L", "data_store": "S", "context_load": "C"}[
                transfer.kind.value
            ]
            for position in range(start, min(end, width)):
                dma_bar[position] = mark
        lines.append(f"{'DMA':>19}  |{''.join(dma_bar)}|")
        return "\n".join(lines)
