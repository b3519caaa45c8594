"""Head-to-head comparison of the three schedulers on one workload."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.codegen.program import Program
from repro.core.application import Application
from repro.core.cluster import Clustering
from repro.core.dataflow import analyze_dataflow
from repro.core.metrics import total_data_size
from repro.errors import InfeasibleScheduleError
from repro.obs.metrics import inc, time_stage
from repro.schedule import SCHEDULERS
from repro.schedule.base import DataSchedulerBase, ScheduleOptions
from repro.schedule.plan import Schedule
from repro.sim.engine import Simulator
from repro.sim.report import SimulationReport
from repro.workloads.spec import ExperimentSpec

__all__ = [
    "SchedulerOutcome",
    "ComparisonRow",
    "run_scheduler",
    "compare_workload",
    "compare_experiment",
]


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

    ``program`` is the generated program the report simulated, kept
    for in-process readers (the corpus study's hazard analysis) so
    they need not generate it again.  It is left out of equality and
    of every pickle, so cached and worker-shipped outcomes hold
    ``None`` there and pickle as they would without it.
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
    program: Optional[Program] = field(default=None, compare=False)

    def __getstate__(self):
        state = dict(self.__dict__)
        # An unpickled outcome reads the class default, None.
        state.pop("program", None)
        return state

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
    flag check otherwise — and so do the simulator's
    ``rounds_walked`` and ``rounds_shifted`` counters.
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
    simulator = Simulator(machine, trace=trace)
    with time_stage("simulate", scope=scope):
        report = simulator.run(program)
    inc("rounds_walked", simulator.rounds_walked, scope=scope)
    inc("rounds_shifted", simulator.rounds_shifted, scope=scope)
    outcome = SchedulerOutcome(
        scheduler=scheduler.name,
        feasible=True,
        schedule=schedule,
        report=report,
        program=program,
    )
    if cache is not None:
        cache.put(key, outcome.for_transport())
    return outcome


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
    """Run Basic, DS and CDS on one workload and collect the row.

    The three schedulers share one dataflow analysis; each runs through
    :func:`run_scheduler` (cache, schedule, codegen, simulate).
    """
    dataflow = analyze_dataflow(application, clustering)
    basic, ds, cds = (
        run_scheduler(
            scheduler_cls(architecture, options), application, clustering,
            architecture, trace=trace, dataflow=dataflow, cache=cache,
        )
        for scheduler_cls in SCHEDULERS.values()
    )
    return ComparisonRow(
        workload=workload_name or application.name,
        architecture=architecture.name,
        fb_words=architecture.fb_set_words,
        n_clusters=len(clustering),
        max_kernels_per_cluster=max(clustering.sizes()),
        total_data_words=total_data_size(dataflow),
        basic=basic,
        ds=ds,
        cds=cds,
    )


def compare_experiment(
    spec: ExperimentSpec,
    *,
    options: Optional[ScheduleOptions] = None,
    trace: bool = False,
) -> ComparisonRow:
    """Run one Table-1 experiment at its paper frame-buffer size.

    The per-transfer DMA trace is off unless *trace* is set: only the
    Gantt chart of ``repro run --gantt`` reads it, while cycles, words
    and RF are exact either way.
    """
    application, clustering = spec.build()
    architecture = Architecture.m1(spec.fb)
    return compare_workload(
        application, clustering, architecture,
        options=options, workload_name=spec.id, trace=trace,
    )
