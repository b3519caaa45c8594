"""Kernel scheduler [7]: design-space exploration of cluster partitions.

"The kernel scheduler explores the design space to find a sequence of
kernels that minimizes the execution time.  It decides which is the
best sequence of kernels and performs clusters" (paper, section 2).

Given an application (whose kernel order is fixed by data dependences
at this abstraction level), the open decision is the *partition* of the
kernel sequence into contiguous clusters, which alternate between the
two FB sets.  For ``K`` kernels there are ``2^(K-1)`` contiguous
partitions; the explorer enumerates them exhaustively up to a
configurable kernel count and falls back to a beam search above it.
Each candidate partition is scheduled with a supplied data scheduler
and scored by its simulated makespan
(:func:`repro.sim.engine.simulated_cycles`) — the paper's "tentative
context and data schedules", timed by the same model every reported
number comes from; infeasible partitions are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.arch.params import Architecture
from repro.core.application import Application
from repro.core.cluster import Clustering
from repro.errors import InfeasibleScheduleError
from repro.schedule.base import DataSchedulerBase
from repro.schedule.plan import Schedule

__all__ = ["KernelScheduleResult", "KernelScheduler", "enumerate_partitions"]

#: One :meth:`KernelScheduler.explore` call's scored partitions: group
#: sizes -> ``(clustering, schedule, simulated cycles)``, ``None`` when
#: infeasible.
_Scored = Dict[Tuple[int, ...], Optional[Tuple[Clustering, Schedule, int]]]


def enumerate_partitions(count: int) -> Iterator[Tuple[int, ...]]:
    """Yield every composition of *count* (contiguous group sizes).

    ``enumerate_partitions(3)`` yields ``(3,)``, ``(1, 2)``, ``(2, 1)``,
    ``(1, 1, 1)`` — ordered by number of groups, then lexicographically.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")

    def compositions(remaining: int, groups: int) -> Iterator[Tuple[int, ...]]:
        if groups == 1:
            yield (remaining,)
            return
        for head in range(1, remaining - groups + 2):
            for tail in compositions(remaining - head, groups - 1):
                yield (head,) + tail

    for groups in range(1, count + 1):
        yield from compositions(count, groups)


@dataclass(frozen=True)
class KernelScheduleResult:
    """Outcome of the exploration.

    Attributes:
        clustering: the winning partition.
        schedule: the data schedule produced for it.
        cycles: the simulated makespan used for ranking.
        candidates_evaluated: partitions that produced a feasible
            schedule.
        candidates_infeasible: partitions rejected as infeasible.
    """

    clustering: Clustering
    schedule: Schedule
    cycles: int
    candidates_evaluated: int
    candidates_infeasible: int


class KernelScheduler:
    """Explores cluster partitions, minimising simulated execution time.

    Args:
        architecture: the target machine.
        data_scheduler: the scheduler used to evaluate each partition
            (the paper evaluates kernel schedules "through a tentative
            context and data schedules").
        exhaustive_limit: maximum kernel count for exhaustive search
            (``2^(K-1)`` candidates); beyond it a beam search over
            group-size decisions is used.
        beam_width: beam width for the fallback search.
    """

    def __init__(
        self,
        architecture: Architecture,
        data_scheduler: DataSchedulerBase,
        *,
        exhaustive_limit: int = 12,
        beam_width: int = 12,
    ):
        if exhaustive_limit < 1:
            raise ValueError(f"exhaustive_limit must be >= 1, got {exhaustive_limit}")
        if beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {beam_width}")
        self.architecture = architecture
        self.data_scheduler = data_scheduler
        self.exhaustive_limit = exhaustive_limit
        self.beam_width = beam_width

    # -- public API ----------------------------------------------------------

    def explore(self, application: Application) -> KernelScheduleResult:
        """Find the best contiguous partition for *application*.

        Each distinct group-size vector is scheduled and simulated at
        most once per call: the beam search's scores, the final beam's
        among them, are reused here.

        Raises:
            InfeasibleScheduleError: if no partition is feasible.
        """
        scored: _Scored = {}
        count = len(application.kernels)
        if count <= self.exhaustive_limit:
            partitions: Sequence[Tuple[int, ...]] = list(
                enumerate_partitions(count)
            )
        else:
            partitions = self._beam_partitions(application, scored)

        best: Optional[KernelScheduleResult] = None
        evaluated = 0
        infeasible = 0
        for sizes in partitions:
            candidate = self._score(application, sizes, scored)
            if candidate is None:
                infeasible += 1
                continue
            evaluated += 1
            clustering, schedule, cycles = candidate
            if best is None or cycles < best.cycles:
                best = KernelScheduleResult(
                    clustering=clustering,
                    schedule=schedule,
                    cycles=cycles,
                    candidates_evaluated=evaluated,
                    candidates_infeasible=infeasible,
                )
        if best is None:
            raise InfeasibleScheduleError(
                f"no feasible cluster partition of {application.name!r} on "
                f"{self.architecture.name} "
                f"({infeasible} partitions rejected)"
            )
        return KernelScheduleResult(
            clustering=best.clustering,
            schedule=best.schedule,
            cycles=best.cycles,
            candidates_evaluated=evaluated,
            candidates_infeasible=infeasible,
        )

    def _score(
        self,
        application: Application,
        sizes: Tuple[int, ...],
        scored: _Scored,
    ) -> Optional[Tuple[Clustering, Schedule, int]]:
        """``(clustering, schedule, simulated cycles)`` of one partition,
        ``None`` when it is infeasible; looked up in, or added to,
        *scored* (one :meth:`explore` call's table)."""
        if sizes in scored:
            return scored[sizes]
        from repro.sim.engine import simulated_cycles

        clustering = Clustering.from_sizes(application, sizes)
        try:
            schedule = self.data_scheduler.schedule(application, clustering)
        except InfeasibleScheduleError:
            result = None
        else:
            result = (
                clustering, schedule,
                simulated_cycles(schedule, self.architecture),
            )
        scored[sizes] = result
        return result

    # -- beam search fallback -------------------------------------------------

    def _beam_partitions(
        self,
        application: Application,
        scored: _Scored,
    ) -> List[Tuple[int, ...]]:
        """Candidate group-size vectors from a left-to-right beam search.

        States are partial partitions of the kernel prefix, scored by
        the simulated cycles of the partial application (suffix kernels
        appended as one trailing cluster to keep candidates comparable)
        through :meth:`_score`, so a vector met again (a finished state
        carried to the next level, or a prefix whose trailing cluster
        makes a finished one) is not scheduled twice.
        """
        count = len(application.kernels)
        max_group = min(count, self.exhaustive_limit)
        beam: List[Tuple[int, ...]] = [()]
        for _ in range(count):
            extended: List[Tuple[int, ...]] = []
            for state in beam:
                used = sum(state)
                if used == count:
                    extended.append(state)
                    continue
                for group in range(1, min(max_group, count - used) + 1):
                    extended.append(state + (group,))
            ranked = []
            for state in extended:
                used = sum(state)
                sizes = state if used == count else state + (count - used,)
                candidate = self._score(application, sizes, scored)
                if candidate is not None:
                    ranked.append((candidate[2], state))
            ranked.sort(key=lambda pair: (pair[0], pair[1]))
            beam = [state for _, state in ranked[: self.beam_width]]
            if not beam:
                return []
            if all(sum(state) == count for state in beam):
                break
        return [state for state in beam if sum(state) == count]
