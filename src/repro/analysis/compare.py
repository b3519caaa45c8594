"""Head-to-head comparison of the three schedulers on one workload."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.core.application import Application
from repro.core.cluster import Clustering
from repro.core.dataflow import analyze_dataflow
from repro.core.metrics import total_data_size
from repro.errors import InfeasibleScheduleError
from repro.obs.metrics import time_stage
from repro.schedule.base import DataSchedulerBase, ScheduleOptions
from repro.schedule.plan import Schedule
from repro.sim.engine import Simulator
from repro.sim.report import SimulationReport
from repro.workloads.spec import ExperimentSpec

__all__ = [
    "SchedulerOutcome",
    "ComparisonRow",
    "run_pipeline_batch",
    "compare_workload",
    "compare_workloads",
    "compare_experiment",
]

_SCHEDULER_NAMES = ("basic", "ds", "cds")


@dataclass(frozen=True)
class SchedulerOutcome:
    """One scheduler's result on one workload.

    ``schedule``/``report`` are ``None`` when infeasible;
    ``error`` then carries the structured
    :class:`~repro.errors.InfeasibleScheduleError` (cluster name,
    required/available word counts) behind the rendered
    ``infeasible_reason`` — the service layer serves those numbers to
    clients, and the exception pickles with its fields intact so
    cached and worker-shipped outcomes keep them.
    """

    scheduler: str
    feasible: bool
    schedule: Optional[Schedule] = None
    report: Optional[SimulationReport] = None
    infeasible_reason: str = ""
    # compare=False: exceptions compare by identity, which would break
    # outcome equality (serial vs parallel, cached vs fresh); the
    # rendered reason string participates instead.
    error: Optional[InfeasibleScheduleError] = field(
        default=None, compare=False
    )

    @property
    def rf(self) -> Optional[int]:
        return self.schedule.rf if self.schedule else None

    @property
    def total_cycles(self) -> Optional[int]:
        return self.report.total_cycles if self.report else None

    @property
    def data_words(self) -> Optional[int]:
        return self.report.data_words if self.report else None

    def improvement_over(self, baseline: "SchedulerOutcome") -> Optional[float]:
        """Relative execution improvement (%) over *baseline*; ``None``
        if either run was infeasible."""
        if self.report is None or baseline.report is None:
            return None
        return 100.0 * self.report.improvement_over(baseline.report)

    def for_transport(self) -> "SchedulerOutcome":
        """A copy stripped for pickling across process/cache boundaries.

        The decision trace is process-local observability data
        (``compare=False``, often megabytes on traced runs); shipping
        it through worker pools or the persistent cache buys nothing —
        the receiving side compares equal either way.  Untraced
        outcomes (every driver default) return ``self`` unchanged.
        """
        schedule = self.schedule
        if schedule is None or schedule.decisions is None:
            return self
        return SchedulerOutcome(
            scheduler=self.scheduler,
            feasible=self.feasible,
            schedule=schedule.without_decisions(),
            report=self.report,
            infeasible_reason=self.infeasible_reason,
            error=self.error,
        )


@dataclass(frozen=True)
class ComparisonRow:
    """All three schedulers on one workload at one architecture."""

    workload: str
    architecture: str
    fb_words: int
    n_clusters: int
    max_kernels_per_cluster: int
    total_data_words: int
    basic: SchedulerOutcome
    ds: SchedulerOutcome
    cds: SchedulerOutcome

    @property
    def ds_improvement_pct(self) -> Optional[float]:
        """The paper's ``DS`` column (vs the Basic Scheduler)."""
        return self.ds.improvement_over(self.basic)

    @property
    def cds_improvement_pct(self) -> Optional[float]:
        """The paper's ``CDS`` column (vs the Basic Scheduler)."""
        return self.cds.improvement_over(self.basic)

    @property
    def dt_words(self) -> Optional[int]:
        """The paper's ``DT`` column: data transfers avoided per
        iteration by the Complete Data Scheduler relative to the Data
        Scheduler's (and Basic's) traffic."""
        if self.cds.report is None or self.ds.report is None:
            return None
        iterations = None
        if self.cds.schedule is not None:
            iterations = self.cds.schedule.application.total_iterations
        if not iterations:
            return None
        avoided = self.ds.report.data_words - self.cds.report.data_words
        return avoided // iterations

    @property
    def rf(self) -> Optional[int]:
        """The reuse factor achieved (DS and CDS agree by construction;
        reported from CDS)."""
        return self.cds.rf if self.cds.feasible else self.ds.rf


def run_scheduler(
    scheduler: DataSchedulerBase,
    application: Application,
    clustering: Clustering,
    architecture: Architecture,
    *,
    trace: bool = True,
    dataflow=None,
    cache=None,
) -> SchedulerOutcome:
    """Schedule, lower, simulate; package the outcome.

    ``trace=False`` skips recording the per-transfer DMA trace; the
    report's aggregate statistics are identical.

    *cache* (a :class:`~repro.cache.CacheStore`) memoizes the whole
    outcome — including infeasible verdicts — across processes and
    runs, keyed by :func:`~repro.cache.keys.outcome_key`.  Cached and
    freshly computed outcomes are byte-identical (equivalence-tested):
    every pipeline input is digested into the key, so a hit can only
    replay the exact same computation.

    Each pipeline stage reports into the observability metrics registry
    (scope ``pipeline.<scheduler>``) when collection is on — a no-op
    flag check otherwise.
    """
    key = None
    if cache is not None:
        from repro.cache import outcome_key

        key = outcome_key(
            scheduler.name, application, clustering, architecture,
            options=scheduler.options, trace=trace,
        )
        cached = cache.get(key)
        if cached is not None:
            return cached
    scope = f"pipeline.{scheduler.name}"
    try:
        with time_stage("schedule", scope=scope):
            schedule = scheduler.schedule(
                application, clustering, dataflow=dataflow
            )
    except InfeasibleScheduleError as exc:
        outcome = SchedulerOutcome(
            scheduler=scheduler.name,
            feasible=False,
            infeasible_reason=str(exc),
            error=exc,
        )
        if cache is not None:
            cache.put(key, outcome)
        return outcome
    with time_stage("codegen", scope=scope):
        program = generate_program(schedule)
    machine = MorphoSysM1(architecture)
    with time_stage("simulate", scope=scope):
        report = Simulator(machine, trace=trace).run(program)
    outcome = SchedulerOutcome(
        scheduler=scheduler.name,
        feasible=True,
        schedule=schedule,
        report=report,
    )
    if cache is not None:
        cache.put(key, outcome.for_transport())
    return outcome


def run_pipeline_batch(
    items,
    *,
    trace: bool = True,
    cache=None,
) -> list:
    """The batch front-end shared by the corpus/sweep/fuzz drivers.

    *items* is a sequence of ``(scheduler_name, application, clustering,
    architecture, options, dataflow)`` pipeline problems.  Cache hits
    (same :func:`~repro.cache.keys.outcome_key` as
    :func:`run_scheduler`) skip everything; the misses are scheduled
    in **one** :func:`repro.schedule.batch.compile_many` call, then
    lowered and simulated per case.  Outcomes — cached or fresh — are
    byte-identical to :func:`run_scheduler`'s, so drivers can batch
    freely without changing any result (equivalence-tested in
    ``tests/schedule/test_batch_equivalence.py``).

    Every stage (schedule, codegen, simulate) reports into the
    per-scheduler ``pipeline.<name>`` metrics scope, as in the per-case
    path.
    """
    from repro.schedule.batch import CompileRequest, compile_many

    outcomes: list = [None] * len(items)
    keys: list = [None] * len(items)
    misses: list = []
    if cache is not None:
        from repro.cache import outcome_key

        for index, (name, application, clustering, architecture,
                    options, dataflow) in enumerate(items):
            keys[index] = outcome_key(
                name, application, clustering, architecture,
                options=options or ScheduleOptions(), trace=trace,
            )
            cached = cache.get(keys[index])
            if cached is not None:
                outcomes[index] = cached
            else:
                misses.append(index)
    else:
        misses = list(range(len(items)))

    requests = [
        CompileRequest(
            scheduler=items[index][0],
            application=items[index][1],
            architecture=items[index][3],
            clustering=items[index][2],
            options=items[index][4],
            dataflow=items[index][5],
        )
        for index in misses
    ]
    results = compile_many(requests)
    for index, result in zip(misses, results):
        name, _, _, architecture, _, _ = items[index]
        if result.error is not None:
            outcome = SchedulerOutcome(
                scheduler=name,
                feasible=False,
                infeasible_reason=str(result.error),
                error=result.error,
            )
        else:
            scope = f"pipeline.{name}"
            with time_stage("codegen", scope=scope):
                program = generate_program(result.schedule)
            machine = MorphoSysM1(architecture)
            with time_stage("simulate", scope=scope):
                report = Simulator(machine, trace=trace).run(program)
            outcome = SchedulerOutcome(
                scheduler=name,
                feasible=True,
                schedule=result.schedule,
                report=report,
            )
        if cache is not None:
            cache.put(keys[index], outcome.for_transport())
        outcomes[index] = outcome
    return outcomes


def _assemble_row(workload_name, architecture, clustering, dataflow,
                  basic, ds, cds) -> ComparisonRow:
    return ComparisonRow(
        workload=workload_name,
        architecture=architecture.name,
        fb_words=architecture.fb_set_words,
        n_clusters=len(clustering),
        max_kernels_per_cluster=max(clustering.sizes()),
        total_data_words=total_data_size(dataflow),
        basic=basic,
        ds=ds,
        cds=cds,
    )


def compare_workloads(
    workloads,
    *,
    options: Optional[ScheduleOptions] = None,
    trace: bool = True,
    cache=None,
) -> list:
    """Batched :func:`compare_workload`: one row per ``(application,
    clustering, architecture, name)`` entry, all scheduling problems
    compiled in one batch."""
    prepared = [
        (application, clustering, architecture, name,
         analyze_dataflow(application, clustering))
        for application, clustering, architecture, name in workloads
    ]
    items = [
        (scheduler, application, clustering, architecture, options, dataflow)
        for application, clustering, architecture, _, dataflow in prepared
        for scheduler in _SCHEDULER_NAMES
    ]
    outcomes = run_pipeline_batch(items, trace=trace, cache=cache)
    rows = []
    for index, (application, clustering, architecture, name,
                dataflow) in enumerate(prepared):
        basic, ds, cds = outcomes[3 * index: 3 * index + 3]
        rows.append(_assemble_row(
            name or application.name, architecture, clustering, dataflow,
            basic, ds, cds,
        ))
    return rows


def compare_workload(
    application: Application,
    clustering: Clustering,
    architecture: Architecture,
    *,
    options: Optional[ScheduleOptions] = None,
    workload_name: Optional[str] = None,
    trace: bool = True,
    cache=None,
) -> ComparisonRow:
    """Run Basic, DS and CDS on one workload and collect the row."""
    return compare_workloads(
        [(application, clustering, architecture, workload_name)],
        options=options, trace=trace, cache=cache,
    )[0]


def compare_experiment(
    spec: ExperimentSpec,
    *,
    options: Optional[ScheduleOptions] = None,
) -> ComparisonRow:
    """Run one Table-1 experiment at its paper frame-buffer size."""
    application, clustering = spec.build()
    architecture = Architecture.m1(spec.fb)
    return compare_workload(
        application, clustering, architecture,
        options=options, workload_name=spec.id,
    )
