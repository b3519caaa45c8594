"""Batch compile driver: many scheduling problems, one call.

:func:`compile_many` takes a list of :class:`CompileRequest`
(scheduler name + workload + architecture + options) and produces one
:class:`CompileResult` per request, in order, by running each request
through its per-case scheduler.  Requests over the same application
and clustering share one dataflow analysis.

Infeasible cases never poison their batch neighbors: each
:class:`~repro.errors.InfeasibleScheduleError` is captured in that
request's :class:`CompileResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.params import Architecture
from repro.core.application import Application
from repro.core.cluster import Clustering
from repro.core.dataflow import DataflowInfo, analyze_dataflow
from repro.errors import InfeasibleScheduleError
from repro.obs.metrics import time_stage
from repro.schedule.base import ScheduleOptions
from repro.schedule.basic import BasicScheduler
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.schedule.plan import Schedule

__all__ = [
    "CompileRequest",
    "CompileResult",
    "compile_many",
]

_SCHEDULERS = {
    "basic": BasicScheduler,
    "ds": DataScheduler,
    "cds": CompleteDataScheduler,
}


@dataclass
class CompileRequest:
    """One scheduling problem: which scheduler, on what, under which
    options.  ``clustering`` and ``dataflow`` default exactly as in
    :meth:`~repro.schedule.base.DataSchedulerBase.schedule`."""

    scheduler: str
    application: Application
    architecture: Architecture
    clustering: Optional[Clustering] = None
    options: Optional[ScheduleOptions] = None
    dataflow: Optional[DataflowInfo] = None

    def __post_init__(self) -> None:
        if self.scheduler not in _SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"expected one of {sorted(_SCHEDULERS)}"
            )
        if self.options is None:
            self.options = ScheduleOptions()


@dataclass
class CompileResult:
    """Outcome of one request: a schedule or the infeasibility error."""

    schedule: Optional[Schedule]
    error: Optional[InfeasibleScheduleError]


def compile_many(requests: Sequence[CompileRequest]) -> List[CompileResult]:
    """One :class:`CompileResult` per request, in request order.

    Scheduling time lands in metrics scope ``pipeline.<scheduler>``
    (stage ``schedule``), as in
    :func:`~repro.analysis.compare.run_scheduler`.
    """
    # Requests for several schedulers over one workload pass the same
    # application and clustering objects and share one analysis.
    dataflows: Dict[Tuple[int, int], DataflowInfo] = {}
    results: List[CompileResult] = []
    for request in requests:
        dataflow = request.dataflow
        if dataflow is None and request.clustering is not None:
            key = (id(request.application), id(request.clustering))
            dataflow = dataflows.get(key)
            if dataflow is None:
                dataflow = analyze_dataflow(
                    request.application, request.clustering
                )
                dataflows[key] = dataflow
        scheduler = _SCHEDULERS[request.scheduler](
            request.architecture, request.options
        )
        try:
            with time_stage("schedule", scope=f"pipeline.{scheduler.name}"):
                schedule = scheduler.schedule(
                    request.application, request.clustering,
                    dataflow=dataflow,
                )
        except InfeasibleScheduleError as exc:
            results.append(CompileResult(None, exc))
        else:
            results.append(CompileResult(schedule, None))
    return results
