"""Schedulers: Basic [3], Data Scheduler [5] and the Complete Data Scheduler.

The subpackage also contains the supporting analyses the paper's
framework provides around the data scheduler: reuse-factor computation
(loop fission depth), time-factor ranking of retention candidates, the
context scheduler [4] (DMA ordering) and the kernel scheduler [7]
(cluster-partition exploration).
"""

from typing import Dict, Type

from repro.schedule.base import DataSchedulerBase, ScheduleOptions
from repro.schedule.basic import BasicScheduler
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.context_scheduler import ContextScheduler, DmaPolicy
from repro.schedule.data_scheduler import DataScheduler
from repro.schedule.kernel_scheduler import KernelScheduler
from repro.schedule.plan import ClusterPlan, Schedule, TransferSummary
from repro.schedule.rf import max_common_rf
from repro.schedule.tf import rank_by_time_factor, time_factor

__all__ = [
    "SCHEDULERS",
    "BasicScheduler",
    "ClusterPlan",
    "CompleteDataScheduler",
    "ContextScheduler",
    "DataScheduler",
    "DataSchedulerBase",
    "DmaPolicy",
    "KernelScheduler",
    "Schedule",
    "ScheduleOptions",
    "TransferSummary",
    "max_common_rf",
    "rank_by_time_factor",
    "time_factor",
]

#: The three schedulers by the short names the CLI, the service and the
#: analysis drivers accept, in the order the paper compares them.
SCHEDULERS: Dict[str, Type[DataSchedulerBase]] = {
    "basic": BasicScheduler,
    "ds": DataScheduler,
    "cds": CompleteDataScheduler,
}
