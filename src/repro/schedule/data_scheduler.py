"""The Data Scheduler — baseline [5].

Section 3 of the paper: within-cluster data scheduling that *replaces*
external data and intermediate results that are dead (not used by any
later kernel of the cluster) with new results, minimising the cluster's
peak occupancy ``DS(C_c)``.  The freed space is used to store data for
``RF`` consecutive iterations of the cluster's kernels (loop fission),
so contexts are loaded ``n / RF`` times instead of ``n`` times.

What it does **not** do — and what the Complete Data Scheduler adds —
is keep data or results shared among clusters in the frame buffer:
every cluster still loads all of its inputs and stores all of its
outbound results.
"""

from __future__ import annotations

from repro.core.dataflow import DataflowInfo
from repro.schedule.base import DataSchedulerBase
from repro.schedule.plan import Schedule

__all__ = ["DataScheduler"]


class DataScheduler(DataSchedulerBase):
    """Baseline scheduler [5]: within-cluster replacement + loop fission."""

    name = "ds"

    def _schedule(self, dataflow: DataflowInfo) -> Schedule:
        rf = self._engine.max_common_rf(keeps=(), max_rf=self.options.rf_cap)
        self._record(
            "rf.result", rf=rf, rf_cap=self.options.rf_cap,
            total_iterations=dataflow.application.total_iterations,
        )
        if rf == 0:
            self._raise_rf1_infeasible(dataflow)
        return self._build_schedule(
            dataflow,
            rf=rf,
            keeps=(),
            contexts_per_iteration=False,
        )
