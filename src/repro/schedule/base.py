"""Common machinery for the three data schedulers.

All schedulers share the same output contract (:class:`Schedule`) and
most of the plan-building logic: given a reuse factor and a set of keep
decisions, derive per-cluster load/store/keep lists and validate
capacities.  Subclasses differ only in how they choose ``RF`` and the
keeps — which is exactly how the paper frames the progression Basic
[3] -> Data Scheduler [5] -> Complete Data Scheduler.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.params import Architecture
from repro.core.application import Application
from repro.core.cluster import Clustering
from repro.core.dataflow import DataflowInfo, analyze_dataflow
from repro.core.metrics import KeepDecision, cluster_footprint
from repro.core.reuse import SharedData, SharedResult
from repro.errors import InfeasibleScheduleError
from repro.schedule.occupancy import OccupancyEngine
from repro.schedule.plan import ClusterPlan, Schedule
from repro.units import format_words_pair

__all__ = [
    "ScheduleOptions",
    "DataSchedulerBase",
    "derive_cluster_plans",
    "derive_plan_skeleton",
    "assemble_schedule",
]


@dataclass(frozen=True)
class ScheduleOptions:
    """Tunables common to all schedulers.

    Attributes:
        rf_cap: upper bound on the reuse factor (0 = only bounded by the
            application's iteration count).  Useful for ablations.
        keep_policy: how the Complete Data Scheduler ranks retention
            candidates — ``"tf"`` (the paper's time factor), ``"size"``
            (largest first; ablation) or ``"fifo"`` (discovery order;
            ablation).
        rf_policy: ``"max_then_keep"`` (the paper: maximise the common
            RF first, then keep what still fits) or ``"joint"`` (sweep
            RF values and pick the combination with the best estimated
            execution time; ablation).
        cross_set_retention: offer retention candidates whose consumers
            sit on the *other* frame-buffer set — the paper's future
            work.  Requires an architecture with
            ``fb_cross_set_access=True``; the Complete Data Scheduler
            rejects the combination otherwise.
        strict_lint: after building the schedule, run the
            application- and schedule-layer lint passes over it and
            raise :class:`~repro.errors.LintError` if any
            error-severity diagnostic is found.  A self-check: the
            scheduler refuses to hand out a schedule its own static
            analysis rejects.
        strict_hazards: after building the schedule, lower it all the
            way to a program, run the timing-aware hazard analysis of
            :mod:`repro.dataflow` under the default DMA policy, and
            raise :class:`~repro.errors.LintError` if any
            error-severity ``HAZ`` finding survives.  Stronger (and
            costlier) than ``strict_lint``: it proves the generated
            program free of DMA/compute races, live-range interference
            and capacity violations, not just the schedule well-formed.
        decision_trace: record a structured
            :class:`~repro.obs.events.DecisionTrace` of every TF
            ranking, keep accept/reject (with the occupancy numbers
            behind it), and RF search step, attached to the returned
            schedule as ``schedule.decisions``.  Off by default; the
            trace never changes a decision, so traced and untraced
            schedules of one problem are identical.
    """

    rf_cap: int = 0
    keep_policy: str = "tf"
    rf_policy: str = "max_then_keep"
    cross_set_retention: bool = False
    strict_lint: bool = False
    strict_hazards: bool = False
    decision_trace: bool = False

    def __post_init__(self) -> None:
        # JSON requests reach this constructor directly, so types are
        # checked here, not trusted: bool is an int subclass, and a
        # truthy string must not silently switch a check on.
        if not isinstance(self.rf_cap, int) or isinstance(self.rf_cap, bool):
            raise ValueError(
                f"rf_cap must be an integer, got {self.rf_cap!r}"
            )
        for flag in ("cross_set_retention", "strict_lint",
                     "strict_hazards", "decision_trace"):
            value = getattr(self, flag)
            if not isinstance(value, bool):
                raise ValueError(f"{flag} must be a boolean, got {value!r}")
        if self.rf_cap < 0:
            raise ValueError(f"rf_cap must be >= 0, got {self.rf_cap}")
        if self.keep_policy not in ("tf", "size", "fifo"):
            raise ValueError(f"unknown keep_policy {self.keep_policy!r}")
        if self.rf_policy not in ("max_then_keep", "joint"):
            raise ValueError(f"unknown rf_policy {self.rf_policy!r}")


class DataSchedulerBase(abc.ABC):
    """Template for the Basic / Data / Complete schedulers."""

    #: Short identifier used in schedules and reports.
    name: str = "base"
    #: Occupancy engine built per :meth:`schedule` call.  Equivalence
    #: tests and the ``engine`` fuzz oracle subclass a scheduler with
    #: :class:`~repro.schedule.occupancy.ReferenceOccupancy` here.
    occupancy_cls = OccupancyEngine

    def __init__(self, architecture: Architecture,
                 options: Optional[ScheduleOptions] = None):
        self.architecture = architecture
        self.options = options or ScheduleOptions()
        #: Per-call occupancy engine (None outside :meth:`schedule`).
        self._engine: Optional[OccupancyEngine] = None
        #: Per-call decision recorder (None unless
        #: ``options.decision_trace`` and inside :meth:`schedule`).
        self._decisions = None

    # -- public API ---------------------------------------------------------

    def schedule(
        self,
        application: Application,
        clustering: Optional[Clustering] = None,
        *,
        dataflow: Optional[DataflowInfo] = None,
    ) -> Schedule:
        """Produce a validated :class:`Schedule`.

        Args:
            application: the application to schedule.
            clustering: cluster partition; defaults to one cluster per
                kernel (callers normally obtain a good partition from
                :class:`~repro.schedule.kernel_scheduler.KernelScheduler`).
            dataflow: optional pre-computed dataflow analysis of this
                exact (application, clustering) pair; callers running
                several schedulers over one workload pass it to avoid
                re-analysing.

        Raises:
            InfeasibleScheduleError: if no legal schedule exists on this
                architecture (e.g. a cluster cannot fit a frame-buffer
                set — the paper's "Basic Scheduler cannot execute MPEG
                if memory size is 1K" case).
        """
        if clustering is None:
            clustering = Clustering.per_kernel(application)
        if dataflow is None:
            dataflow = analyze_dataflow(application, clustering)
        elif (dataflow.application is not application
                or dataflow.clustering is not clustering):
            raise ValueError(
                "dataflow was analysed for a different application or "
                "clustering"
            )
        self._check_static_capacities(dataflow)
        if self.options.decision_trace:
            from repro.obs.events import DecisionTrace

            self._decisions = DecisionTrace()
        else:
            self._decisions = None
        self._engine = self.occupancy_cls(
            dataflow, self.architecture.fb_set_words
        )
        self._engine.recorder = self._decisions
        try:
            schedule = self._schedule(dataflow)
            if self._decisions is not None:
                # Schedule is frozen; the trace is metadata attached
                # after construction (compare=False, so equality with
                # untraced schedules is unaffected).
                object.__setattr__(schedule, "decisions", self._decisions)
        finally:
            self._engine = None
            self._decisions = None
        if self.options.strict_lint:
            self._self_lint(schedule)
        if self.options.strict_hazards:
            self._self_analyze(schedule)
        return schedule

    def _record(self, kind: str, subject: str = "", **detail) -> None:
        """Record one decision when tracing is on (one check when off)."""
        if self._decisions is not None:
            self._decisions.record(kind, subject, **detail)

    def _self_lint(self, schedule: Schedule) -> None:
        """Run the schedule-layer lint passes; raise on any error."""
        from repro.errors import LintError
        from repro.lint.runner import lint_schedule

        collector = lint_schedule(schedule)
        if collector.has_errors:
            first = collector.errors[0]
            raise LintError(
                f"strict lint: {len(collector.errors)} error(s) in the "
                f"{self.name} schedule; first: {first}",
                diagnostics=collector.errors,
            )

    def _self_analyze(self, schedule: Schedule) -> None:
        """Run the hazard analyzer over the lowered program; raise on
        any error-severity HAZ finding."""
        from repro.dataflow.analyzer import analyze_schedule, hazard_errors
        from repro.errors import LintError

        _, collector = analyze_schedule(schedule)
        findings = hazard_errors(collector)
        if findings:
            first = findings[0]
            raise LintError(
                f"strict hazards: {len(findings)} HAZ finding(s) in the "
                f"{self.name} schedule's program; first: {first}",
                diagnostics=findings,
            )

    # -- subclass hook --------------------------------------------------------

    @abc.abstractmethod
    def _schedule(self, dataflow: DataflowInfo) -> Schedule:
        """Choose RF and keeps; build and return the schedule."""

    # -- shared machinery -------------------------------------------------

    def _check_static_capacities(self, dataflow: DataflowInfo) -> None:
        """Checks independent of any scheduling decision."""
        arch = self.architecture
        for info in dataflow:
            if info.size > arch.fb_set_words:
                need, capacity = format_words_pair(
                    info.size, arch.fb_set_words
                )
                raise InfeasibleScheduleError(
                    f"object {info.name!r} ({need}) exceeds "
                    f"one frame-buffer set ({capacity})",
                    required=info.size,
                    available=arch.fb_set_words,
                )
        for cluster in dataflow.clustering:
            words = dataflow.clustering.context_words_of(cluster)
            if words > arch.context_block_words:
                raise InfeasibleScheduleError(
                    f"cluster {cluster.name} needs {words} context words; a "
                    f"context-memory block holds {arch.context_block_words}",
                    cluster=cluster.name,
                    required=words,
                    available=arch.context_block_words,
                )

    def _require_cluster_fit(
        self,
        dataflow: DataflowInfo,
        rf: int,
        keeps: Sequence[KeepDecision],
        occupancy_fn,
    ) -> Dict[int, int]:
        """Compute per-cluster occupancy and verify it fits one FB set."""
        fbs = self.architecture.fb_set_words
        occupancy: Dict[int, int] = {}
        for cluster in dataflow.clustering:
            peak = occupancy_fn(cluster.index)
            occupancy[cluster.index] = peak
            if peak > fbs:
                need, capacity = format_words_pair(peak, fbs)
                raise InfeasibleScheduleError(
                    f"{self.name}: cluster {cluster.name} needs "
                    f"{need} (RF={rf}) but one frame-buffer set "
                    f"holds {capacity}",
                    cluster=cluster.name,
                    required=peak,
                    available=fbs,
                )
        return occupancy

    def _raise_rf1_infeasible(self, dataflow: DataflowInfo) -> None:
        """Raise the ``RF = 1 does not fit`` diagnostic with the worst
        cluster named and exact word counts.

        Shared by the Data and Complete Data Schedulers for the
        ``max_common_rf == 0`` case.  The occupancy numbers come from
        the scheduler's own occupancy engine, so the message always
        matches the verdict that produced it.
        """
        fbs = self.architecture.fb_set_words
        engine = self._engine
        worst = max(
            dataflow.clustering, key=lambda c: engine.occupancy(c.index, 1, ())
        )
        peak = engine.occupancy(worst.index, 1, ())
        need, capacity = format_words_pair(peak, fbs)
        raise InfeasibleScheduleError(
            f"{self.name}: cluster {worst.name} needs {need} even at RF=1 "
            f"but one frame-buffer set holds {capacity}",
            cluster=worst.name,
            required=peak,
            available=fbs,
        )

    def _build_schedule(
        self,
        dataflow: DataflowInfo,
        rf: int,
        keeps: Sequence[KeepDecision],
        *,
        contexts_per_iteration: bool,
        basic_occupancy: bool = False,
        overlap_transfers: bool = True,
    ) -> Schedule:
        """Derive cluster plans from (RF, keeps) and assemble a Schedule."""
        if basic_occupancy:
            occupancy = self._require_cluster_fit(
                dataflow, rf, keeps,
                lambda index: cluster_footprint(dataflow, index),
            )
        else:
            engine = self._engine
            occupancy = self._require_cluster_fit(
                dataflow, rf, keeps,
                lambda index: engine.occupancy(index, rf, keeps),
            )
        return assemble_schedule(
            self.name,
            dataflow,
            rf=rf,
            keeps=keeps,
            occupancy=occupancy,
            contexts_per_iteration=contexts_per_iteration,
            fb_set_words=self.architecture.fb_set_words,
            context_block_words=self.architecture.context_block_words,
            overlap_transfers=overlap_transfers,
        )


def derive_cluster_plans(
    dataflow: DataflowInfo,
    keeps: Sequence[KeepDecision],
    occupancy: Dict[int, int],
) -> Tuple[ClusterPlan, ...]:
    """Derive per-cluster load/keep/store/retain lists from a decision.

    Called by every scheduler via :meth:`DataSchedulerBase.
    _build_schedule`: the occupancy-independent rows come from
    :func:`derive_plan_skeleton`, and *occupancy* fills in each plan's
    ``peak_occupancy``.
    """
    return tuple(
        ClusterPlan(
            cluster_index=index,
            fb_set=fb_set,
            loads=loads,
            kept_inputs=kept_inputs,
            stores=stores,
            retained_outputs=retained,
            peak_occupancy=occupancy[index],
        )
        for index, fb_set, loads, kept_inputs, stores, retained
        in derive_plan_skeleton(dataflow, keeps)
    )


def derive_plan_skeleton(
    dataflow: DataflowInfo,
    keeps: Sequence[KeepDecision],
) -> Tuple[Tuple, ...]:
    """The occupancy-independent part of every cluster plan.

    Returns one ``(index, fb_set, loads, kept_inputs, stores,
    retained_outputs)`` tuple per cluster — everything
    :class:`ClusterPlan` holds except ``peak_occupancy``, which is the
    only field that differs between schedulers sharing a ``(dataflow,
    keeps)`` decision.
    """
    kept_data: List[SharedData] = [
        keep for keep in keeps if isinstance(keep, SharedData)
    ]
    kept_results: List[SharedResult] = [
        keep for keep in keeps if isinstance(keep, SharedResult)
    ]
    no_keeps = not keeps
    kept_result_of = {
        (keep.name, keep.producer_cluster): keep for keep in kept_results
    }
    get = dataflow.__getitem__

    rows: List[Tuple] = []
    for cluster in dataflow.clustering:
        index = cluster.index
        loads: List[str] = []
        kept_inputs: List[str] = []
        if no_keeps:
            # Basic/DS common case: every input is loaded.
            loads.extend(dataflow.inputs_of_cluster(index))
        else:
            for obj_name in dataflow.inputs_of_cluster(index):
                keep = _keep_serving(obj_name, cluster, kept_data, kept_results)
                if keep is None:
                    loads.append(obj_name)
                elif isinstance(keep, SharedData) and index == keep.clusters[0]:
                    # The first consuming cluster performs the one load.
                    loads.append(obj_name)
                else:
                    kept_inputs.append(obj_name)

        stores: List[str] = []
        retained: List[str] = []
        for obj_name in dataflow.produced_by_cluster(index):
            info = get(obj_name)
            consumer_clusters = info.consumer_clusters
            keep = None if no_keeps else kept_result_of.get((obj_name, index))
            if keep is not None:
                retained.append(obj_name)
                served = set(keep.consumer_clusters)
                unserved = any(
                    c > index and c not in served
                    for c in consumer_clusters
                )
            else:
                # consumer_clusters is sorted ascending, so "consumed
                # by a later cluster" is a last-element check.
                unserved = (
                    bool(consumer_clusters) and consumer_clusters[-1] > index
                )
            if info.is_final or unserved:
                stores.append(obj_name)

        rows.append((
            index,
            cluster.fb_set,
            tuple(loads),
            tuple(kept_inputs),
            tuple(stores),
            tuple(retained),
        ))
    return tuple(rows)


def assemble_schedule(
    scheduler_name: str,
    dataflow: DataflowInfo,
    *,
    rf: int,
    keeps: Sequence[KeepDecision],
    occupancy: Dict[int, int],
    contexts_per_iteration: bool,
    fb_set_words: int,
    context_block_words: int,
    overlap_transfers: bool = True,
) -> Schedule:
    """Assemble the final :class:`Schedule` from a validated decision."""
    return Schedule(
        scheduler=scheduler_name,
        application=dataflow.application,
        clustering=dataflow.clustering,
        dataflow=dataflow,
        rf=rf,
        keeps=tuple(keeps),
        cluster_plans=derive_cluster_plans(dataflow, keeps, occupancy),
        contexts_per_iteration=contexts_per_iteration,
        fb_set_words=fb_set_words,
        context_block_words=context_block_words,
        overlap_transfers=overlap_transfers,
    )


def _keep_serving(
    obj_name: str,
    cluster,
    kept_data: Sequence[SharedData],
    kept_results: Sequence[SharedResult],
) -> Optional[KeepDecision]:
    """The keep decision (if any) covering *obj_name* as an input of
    *cluster*.  Candidate construction guarantees consumers are
    reachable (same set on M1, any set on cross-set architectures),
    so membership in the consumer list is the whole check."""
    for keep in kept_data:
        if keep.name == obj_name and cluster.index in keep.clusters:
            return keep
    for keep in kept_results:
        if keep.name == obj_name and cluster.index in keep.consumer_clusters:
            return keep
    return None
