"""The program container produced by the code generator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.codegen.ops import VisitOps
from repro.schedule.plan import Schedule

__all__ = ["Program"]


@dataclass(frozen=True)
class Program:
    """An executable lowering of one schedule.

    Attributes:
        schedule: the schedule the program implements.
        visits: the visit sequence, round-major.
    """

    schedule: Schedule
    visits: Tuple[VisitOps, ...]

    def __iter__(self) -> Iterator[VisitOps]:
        return iter(self.visits)

    def __len__(self) -> int:
        return len(self.visits)

    # -- aggregate accounting ------------------------------------------------

    @property
    def total_load_words(self) -> int:
        """All data words loaded over the program."""
        return sum(visit.load_words for visit in self.visits)

    @property
    def total_store_words(self) -> int:
        """All data words stored over the program."""
        return sum(visit.store_words for visit in self.visits)

    @property
    def total_context_words(self) -> int:
        """All context words loaded over the program."""
        return sum(visit.context_words for visit in self.visits)

    @property
    def cm_block_capacity(self) -> int:
        """Words in one CM block: the schedule's recorded capacity, or,
        when it has none, the largest context volume any visit loads
        (context words per visit were checked against the block size at
        scheduling time, so that is the strictest consistent bound)."""
        return self.schedule.context_block_words or max(
            (ops.context_words for ops in self.visits), default=0
        ) or 1

    @property
    def total_compute_cycles(self) -> int:
        """All RC-array cycles (a lower bound on the makespan)."""
        return sum(visit.compute_cycles for visit in self.visits)

    def listing(self, *, max_visits: int = 0) -> str:
        """Human-readable program listing (for examples and debugging)."""
        lines = [
            f"program[{self.schedule.scheduler}] of "
            f"{self.schedule.application.name!r}: {len(self.visits)} visits, "
            f"RF={self.schedule.rf}"
        ]
        shown = self.visits if max_visits <= 0 else self.visits[:max_visits]
        for ops in shown:
            visit = ops.visit
            iter_range = (
                f"{visit.iterations[0]}..{visit.iterations[-1]}"
                if len(visit.iterations) > 1 else str(visit.iterations[0])
            )
            lines.append(
                f"visit {visit.index}: round {visit.round_index}, "
                f"Cl{visit.cluster_index + 1}, set{visit.fb_set}, "
                f"iterations {iter_range}"
            )
            for load in ops.context_loads:
                lines.append(
                    f"  ldctx  {load.kernel} -> CM block {load.cm_block} "
                    f"({load.words}w)"
                )
            for load in ops.data_loads:
                lines.append(
                    f"  ld     {load.name}#{load.iteration} -> set{load.fb_set} "
                    f"({load.words}w)"
                )
            for run in ops.compute:
                lines.append(
                    f"  run    {run.kernel}#{run.iteration} ({run.cycles}cyc)"
                )
            for store in ops.stores:
                lines.append(
                    f"  st     {store.name}#{store.iteration} <- "
                    f"set{store.fb_set} ({store.words}w)"
                )
        if max_visits > 0 and len(self.visits) > max_visits:
            lines.append(f"... {len(self.visits) - max_visits} more visits")
        return "\n".join(lines)
