"""The exact scheduler: a drop-in ``DataSchedulerBase`` around the
branch-and-bound solver.

Running the solver behind the shared scheduler template buys exact
parity with the greedy schedulers on everything *around* the decision:
static capacity checks, the ``RF = 1 does not fit`` diagnostic (worst
cluster named, word counts through ``format_words_pair``), plan
derivation and capacity validation all come from
:class:`~repro.schedule.base.DataSchedulerBase` — so an infeasible case
renders the same payload from ``exact`` as from ``cds`` up to the
scheduler-name prefix, which is what the ``exactgap`` oracle asserts.
"""

from __future__ import annotations

from typing import Optional

from repro.arch.params import Architecture
from repro.core.dataflow import DataflowInfo
from repro.errors import InfeasibleScheduleError
from repro.schedule.base import DataSchedulerBase, ScheduleOptions
from repro.schedule.exact.solver import (
    DEFAULT_MAX_NODES,
    ExactRetentionSolver,
    ExactSolution,
)
from repro.schedule.plan import Schedule

__all__ = ["ExactDataScheduler"]


class ExactDataScheduler(DataSchedulerBase):
    """Optimal ``(RF, keeps)`` via branch-and-bound; anytime budgeted.

    With the default (unlimited-enough) budgets the returned schedule
    moves the fewest total words any schedule of the CDS decision space
    can; under a budget it is still never worse than the greedy CDS
    choice, because the search incumbent is seeded with it.  The last
    :class:`~repro.schedule.exact.solver.ExactSolution` (including the
    greedy mirror and the node count) stays readable on
    ``last_solution`` for the gap table and the fuzz oracle.
    """

    name = "exact"

    def __init__(
        self,
        architecture: Architecture,
        options: Optional[ScheduleOptions] = None,
        *,
        max_nodes: int = DEFAULT_MAX_NODES,
        budget_ms: Optional[float] = None,
    ):
        super().__init__(architecture, options)
        self.max_nodes = max_nodes
        self.budget_ms = budget_ms
        #: The solver verdict behind the most recent schedule() call.
        self.last_solution: Optional[ExactSolution] = None

    def _schedule(self, dataflow: DataflowInfo) -> Schedule:
        cross_set = self.options.cross_set_retention
        if cross_set and not self.architecture.fb_cross_set_access:
            raise InfeasibleScheduleError(
                f"{self.name}: cross_set_retention requires an "
                f"architecture with fb_cross_set_access "
                f"({self.architecture.name} lacks it)"
            )
        solver = ExactRetentionSolver(
            dataflow,
            engine=self._engine,
            rf_cap=self.options.rf_cap,
            keep_policy=self.options.keep_policy,
            cross_set=cross_set,
            max_nodes=self.max_nodes,
            budget_ms=self.budget_ms,
        )
        solution = solver.solve()
        if solution is None:
            self._raise_rf1_infeasible(dataflow)
        self.last_solution = solution
        self._record(
            "rf.result", rf=solution.rf, rf_cap=self.options.rf_cap,
            total_iterations=dataflow.application.total_iterations,
        )
        self._record(
            "exact.solution",
            rf=solution.rf,
            n_keeps=len(solution.keeps),
            traffic_words=solution.traffic_words,
            greedy_traffic_words=solution.greedy_traffic_words,
            gap_words=solution.gap_words,
            nodes=solution.nodes,
            complete=solution.complete,
        )
        return self._build_schedule(
            dataflow,
            rf=solution.rf,
            keeps=solution.keeps,
            contexts_per_iteration=False,
        )
