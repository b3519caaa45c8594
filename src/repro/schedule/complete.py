"""The Complete Data Scheduler — the paper's contribution (section 4).

On top of the Data Scheduler's within-cluster replacement and loop
fission, the Complete Data Scheduler (CDS):

1. achieves the highest common reuse factor ``RF`` allowed by the
   frame-buffer set size, so contexts are loaded ``n / RF`` times;
2. finds the data (``D_i..j``) and results (``R_i,j..k``) shared among
   clusters of the same FB set;
3. ranks them by the time factor ``TF`` and keeps as many as fit:
   "It starts checking that ``DS(C_c) <= FBS`` for all clusters assigned
   to that FB set for shared data or results with the highest TF.
   Scheduling continues with shared data or results with less TF.  If
   ``DS(C_c) > FBS`` for some shared data or results, these are not
   kept."

The greedy acceptance is exactly the paper's: candidates are considered
in decreasing ``TF`` order; a candidate is accepted iff, together with
the already-accepted keeps, every cluster of its FB set still fits.
Rejected candidates do not stop the scan — smaller candidates later in
the order may still fit.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.dataflow import DataflowInfo
from repro.core.metrics import KeepDecision, total_data_size
from repro.errors import InfeasibleScheduleError
from repro.schedule.base import DataSchedulerBase
from repro.schedule.plan import Schedule
from repro.schedule.tf import rank_by_time_factor, retention_candidates

__all__ = ["CompleteDataScheduler"]


class CompleteDataScheduler(DataSchedulerBase):
    """The paper's scheduler: RF maximisation + TF-ranked retention."""

    name = "cds"

    def _schedule(self, dataflow: DataflowInfo) -> Schedule:
        if self.options.rf_policy == "joint":
            rf, keeps = self._choose_jointly(dataflow)
        else:
            rf = self._max_rf(dataflow)
            keeps = self._choose_keeps(dataflow, rf)
        return self._build_schedule(
            dataflow,
            rf=rf,
            keeps=keeps,
            contexts_per_iteration=False,
        )

    # -- RF ------------------------------------------------------------------

    def _max_rf(self, dataflow: DataflowInfo) -> int:
        rf = self._engine.max_common_rf(keeps=(), max_rf=self.options.rf_cap)
        self._record(
            "rf.result", rf=rf, rf_cap=self.options.rf_cap,
            total_iterations=dataflow.application.total_iterations,
        )
        if rf == 0:
            self._raise_rf1_infeasible(dataflow)
        return rf

    # -- keep selection ---------------------------------------------------

    def _ranked_candidates(self, dataflow: DataflowInfo) -> List[KeepDecision]:
        cross_set = self.options.cross_set_retention
        if cross_set and not self.architecture.fb_cross_set_access:
            raise InfeasibleScheduleError(
                f"{self.name}: cross_set_retention requires an "
                f"architecture with fb_cross_set_access "
                f"({self.architecture.name} lacks it)"
            )
        candidates = retention_candidates(
            dataflow, include_cross_set=cross_set
        )
        if not candidates:
            return []
        policy = self.options.keep_policy
        tds = total_data_size(dataflow)
        if policy == "tf":
            ranked = rank_by_time_factor(candidates, tds)
        elif policy == "size":
            ranked = sorted(candidates, key=lambda c: (-c.size, c.name))
        else:
            ranked = list(candidates)  # "fifo": discovery order
        if self._decisions is not None:
            for rank, candidate in enumerate(ranked):
                self._record(
                    "tf.rank",
                    candidate.name,
                    rank=rank,
                    keep=candidate.label,
                    policy=policy,
                    tf=candidate.words_avoided / tds,
                    words_avoided=candidate.words_avoided,
                    size=candidate.size,
                    fb_set=candidate.fb_set,
                )
        return ranked

    def _choose_keeps(
        self, dataflow: DataflowInfo, rf: int
    ) -> Tuple[KeepDecision, ...]:
        """Greedy TF-ordered acceptance at a fixed RF.

        The occupancy engine keeps per-cluster running ``DS(C_c)``
        totals so each trial touches only the candidate's affected
        clusters.
        """
        engine = self._engine
        engine.begin_keep_selection(rf)
        for candidate in self._ranked_candidates(dataflow):
            engine.try_keep(candidate)
        return engine.accepted

    # -- joint RF/keep exploration (ablation) --------------------------------

    def _choose_jointly(
        self, dataflow: DataflowInfo
    ) -> Tuple[int, Tuple[KeepDecision, ...]]:
        """Sweep RF from its maximum down to 1, choose keeps at each
        level, and pick the (RF, keeps) pair with the fewest simulated
        cycles; a tie keeps the higher RF, so the pick is never slower
        than the RF-first schedule the sweep starts with.  Exposes the
        trade-off the paper's default (RF first) resolves by fiat.

        The decision trace describes the chosen schedule: the RF bound,
        one ``rf.joint`` point per swept RF, one ``rf.result`` and the
        chosen RF's ranking and keep verdicts.  Each level's ranking
        and verdicts go to a scratch trace while it is swept, and only
        the chosen level's are copied over."""
        from repro.obs.events import DecisionTrace
        from repro.sim.engine import simulated_cycles

        trace = self._decisions
        engine = self._engine
        rf_max = engine.max_common_rf(keeps=(), max_rf=self.options.rf_cap)
        if rf_max == 0:
            self._raise_rf1_infeasible(dataflow)
        best: Tuple[int, Tuple[KeepDecision, ...]] = (rf_max, ())
        best_cycles = None
        best_verdicts = None
        for rf in range(rf_max, 0, -1):
            verdicts = None if trace is None else DecisionTrace()
            self._decisions = engine.recorder = verdicts
            try:
                keeps = self._choose_keeps(dataflow, rf)
            finally:
                self._decisions = engine.recorder = trace
            schedule = self._build_schedule(
                dataflow, rf=rf, keeps=keeps, contexts_per_iteration=False
            )
            cycles = simulated_cycles(schedule, self.architecture)
            self._record(
                "rf.joint", rf=rf, cycles=cycles,
                n_keeps=len(keeps),
            )
            if best_cycles is None or cycles < best_cycles:
                best_cycles = cycles
                best = (rf, keeps)
                best_verdicts = verdicts
        self._record("rf.result", rf=best[0], rf_cap=self.options.rf_cap,
                     policy="joint")
        for event in best_verdicts or ():
            trace.record(event.kind, event.subject, **event.detail)
        return best
