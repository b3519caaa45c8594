"""Schedule data structures: the output contract of every scheduler.

A :class:`Schedule` says, for each cluster, which objects are loaded
from external memory, which results are stored back, which inputs are
satisfied from the frame buffer (kept items), how deep the loop fission
is (``RF``), and how often contexts are reloaded.  The code generator
lowers a schedule to an op-level program; :class:`TransferSummary`
derives the traffic numbers reported in the paper's Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.core.application import Application
from repro.core.cluster import Clustering
from repro.core.dataflow import DataflowInfo
from repro.core.metrics import KeepDecision
from repro.core.reuse import SharedData
from repro.errors import ReproError
from repro.units import ceil_div, format_size

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.events import DecisionTrace

__all__ = ["ClusterPlan", "Schedule", "TransferSummary"]


@dataclass(frozen=True)
class ClusterPlan:
    """The per-cluster part of a schedule.

    All object lists name **one iteration instance**; a visit moves
    ``RF`` instances of each listed object (except context loads, which
    are per visit).

    Attributes:
        cluster_index: which cluster this plan is for.
        fb_set: the frame-buffer set the cluster executes from.
        loads: objects loaded from external memory before the cluster
            computes (external data plus imported, non-kept results,
            plus kept shared data for which this is the first consuming
            cluster).
        kept_inputs: inputs satisfied from the frame buffer — no load.
        stores: results stored to external memory after the cluster
            computes (final outputs plus non-kept shared results).
        retained_outputs: results produced here and left in the frame
            buffer for later clusters (kept shared results).
        peak_occupancy: ``DS(C_c)`` under this plan, in words.
    """

    cluster_index: int
    fb_set: int
    loads: Tuple[str, ...]
    kept_inputs: Tuple[str, ...]
    stores: Tuple[str, ...]
    retained_outputs: Tuple[str, ...]
    peak_occupancy: int

    def load_words(self, dataflow: DataflowInfo, iterations: int = 1) -> int:
        """Words loaded for one visit spanning *iterations* iterations
        (iteration-invariant objects are loaded once per visit)."""
        return sum(
            dataflow[name].words_for(iterations) for name in self.loads
        )

    def store_words(self, dataflow: DataflowInfo, iterations: int = 1) -> int:
        """Words stored for one visit spanning *iterations* iterations."""
        return sum(
            dataflow[name].words_for(iterations) for name in self.stores
        )


@dataclass(frozen=True)
class Schedule:
    """A complete data schedule for one application on one architecture.

    Attributes:
        scheduler: human-readable scheduler name (``"basic"``, ``"ds"``,
            ``"cds"``).
        application: the scheduled application.
        clustering: the cluster partition used.
        dataflow: the dataflow analysis the plan was derived from.
        rf: reuse (loop fission) factor common to all clusters.
        keeps: accepted inter-cluster retention decisions.
        cluster_plans: one :class:`ClusterPlan` per cluster, in order.
        contexts_per_iteration: True if kernel contexts are reloaded for
            every iteration (Basic Scheduler); False if once per round
            of ``RF`` iterations (loop fission applied).
        fb_set_words: capacity of one frame-buffer set the schedule was
            validated against.
        context_block_words: capacity of one context-memory block the
            schedule was validated against (0 when unknown).
        overlap_transfers: True when the schedule exploits the dual-set
            frame buffer to overlap a visit's transfers with the
            previous visit's computation (the Data and Complete Data
            Schedulers).  The Basic Scheduler's tentative per-kernel
            data schedule does not prefetch across visits, so its
            transfers serialise with computation — which is why the
            paper's DS column shows gains even at ``RF = 1`` for some
            kernel schedules and exactly 0% for single-kernel clusters.
        decisions: the scheduler's decision trace
            (:class:`~repro.obs.events.DecisionTrace`) when the
            schedule was built with
            ``ScheduleOptions(decision_trace=True)``; ``None``
            otherwise.  Excluded from equality/repr so traced and
            untraced schedules of one problem compare equal.
    """

    scheduler: str
    application: Application
    clustering: Clustering
    dataflow: DataflowInfo
    rf: int
    keeps: Tuple[KeepDecision, ...]
    cluster_plans: Tuple[ClusterPlan, ...]
    contexts_per_iteration: bool
    fb_set_words: int
    context_block_words: int = 0
    overlap_transfers: bool = True
    decisions: Optional["DecisionTrace"] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.rf < 1:
            raise ReproError(f"schedule rf must be >= 1, got {self.rf}")
        if len(self.cluster_plans) != len(self.clustering):
            raise ReproError(
                f"{len(self.cluster_plans)} cluster plans for "
                f"{len(self.clustering)} clusters"
            )

    # -- derived quantities ------------------------------------------------

    @property
    def rounds(self) -> int:
        """Number of rounds: ``ceil(total_iterations / RF)``."""
        return ceil_div(self.application.total_iterations, self.rf)

    def iterations_in_round(self, round_index: int) -> int:
        """Iterations processed in a round (the last may be partial)."""
        total = self.application.total_iterations
        if round_index < 0 or round_index >= self.rounds:
            raise IndexError(f"round {round_index} out of range")
        if round_index < self.rounds - 1:
            return self.rf
        return total - self.rf * (self.rounds - 1)

    def round_stretches(self) -> Tuple[Tuple[int, int, int], ...]:
        """``(first_round, count, iterations)`` per run of alike rounds.

        Loop fission at the common ``RF`` makes a schedule
        round-periodic: the ``N // RF`` full rounds differ only in
        their iteration window (and the CM-block parity), and a
        partial last round of ``N % RF`` iterations is a stretch of its
        own.  The one statement of the round structure: the simulator,
        the fast verifier and :class:`TransferSummary` read it.
        """
        full, partial = divmod(self.application.total_iterations, self.rf)
        stretches = ((0, full, self.rf),) if full else ()
        if partial:
            stretches += ((full, 1, partial),)
        return stretches

    def plan_for(self, cluster_index: int) -> ClusterPlan:
        """The plan of one cluster."""
        return self.cluster_plans[cluster_index]

    def load_order(self, cluster_index: int) -> Tuple[str, ...]:
        """The cluster's plan loads in placement order (paper Figure 4),
        which the allocator places and the code generator loads in.

        Kept shared data whose first consumer is this cluster comes
        first, most distant last consumer first; then every other load,
        grouped by its last consuming kernel in the cluster (the
        paper's ``d_j``), last kernel first.  A load with no local use
        goes last.  Duplicates are dropped.
        """
        plan = self.plan_for(cluster_index)
        kept = {
            keep.name: keep for keep in self.keeps
            if keep.fb_set == plan.fb_set and isinstance(keep, SharedData)
            and keep.clusters[0] == cluster_index
        }
        loads = dict.fromkeys(plan.loads)
        order = sorted(
            (name for name in loads if name in kept),
            key=lambda name: (-kept[name].span[1], name),
        )
        by_last_use: Dict[Optional[str], List[str]] = {}
        for name in loads:
            if name not in kept:
                last = self.dataflow.last_use_in_cluster(name, cluster_index)
                by_last_use.setdefault(last, []).append(name)
        for kernel_name in reversed(self.clustering[cluster_index].kernel_names):
            order.extend(by_last_use.pop(kernel_name, ()))
        order.extend(by_last_use.pop(None, ()))
        return tuple(order)

    def keep_names(self) -> Tuple[str, ...]:
        """Names of all kept objects."""
        return tuple(keep.name for keep in self.keeps)

    def survivors(self, cluster_index: int, fb_set: int) -> FrozenSet[str]:
        """Kept object names still resident in *fb_set* after a visit of
        cluster *cluster_index* ends: the keeps homed on that set whose
        span ``(first, last)`` has ``first <= cluster_index < last``.
        Everything else in the set is released at visit end."""
        names = set()
        for keep in self.keeps:
            first, last = keep.span
            if keep.fb_set == fb_set and first <= cluster_index < last:
                names.add(keep.name)
        return frozenset(names)

    def without_decisions(self) -> "Schedule":
        """A copy with the decision trace dropped (``self`` when there
        is none).

        The trace is process-local observability data excluded from
        equality (``compare=False``); callers shipping schedules across
        pickling boundaries — worker pools, the persistent cache — use
        this to avoid serializing megabytes that the receiving side
        never reads.
        """
        if self.decisions is None:
            return self
        return replace(self, decisions=None)

    def summary(self) -> "TransferSummary":
        """Aggregate traffic/feasibility numbers for reporting."""
        return TransferSummary.from_schedule(self)

    def context_words_per_visit(self, cluster_index: int) -> int:
        """Context words loaded ahead of one visit of a cluster."""
        cluster = self.clustering[cluster_index]
        return self.clustering.context_words_of(cluster)

    def describe(self) -> str:
        """Multi-line human-readable description."""
        lines = [
            f"schedule[{self.scheduler}] of {self.application.name!r}: "
            f"RF={self.rf}, rounds={self.rounds}, "
            f"FBS={format_size(self.fb_set_words)}"
        ]
        if self.keeps:
            kept = ", ".join(
                f"{keep.label}({keep.name}, {format_size(keep.size)})"
                for keep in self.keeps
            )
            lines.append(f"  keeps: {kept}")
        for plan in self.cluster_plans:
            cluster = self.clustering[plan.cluster_index]
            lines.append(
                f"  {cluster.name} set{plan.fb_set} "
                f"DS={format_size(plan.peak_occupancy)} "
                f"loads={list(plan.loads)} kept={list(plan.kept_inputs)} "
                f"stores={list(plan.stores)} "
                f"retains={list(plan.retained_outputs)}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class TransferSummary:
    """Traffic accounting for a schedule (the paper's Table 1 inputs).

    Totals cover the whole application run; the ``*_per_iteration``
    properties divide by the iteration count so schedules with
    different ``RF`` can be compared.
    """

    scheduler: str
    rf: int
    rounds: int
    total_iterations: int
    total_data_loaded_words: int
    total_data_stored_words: int
    total_context_words: int
    max_peak_occupancy: int

    @property
    def total_data_words(self) -> int:
        """All data traffic, loads plus stores."""
        return self.total_data_loaded_words + self.total_data_stored_words

    @property
    def data_words_per_iteration(self) -> float:
        """Data traffic per application iteration."""
        return self.total_data_words / self.total_iterations

    @classmethod
    def from_schedule(cls, schedule: Schedule) -> "TransferSummary":
        dataflow = schedule.dataflow
        loaded = 0
        stored = 0
        for _, count, iterations in schedule.round_stretches():
            for plan in schedule.cluster_plans:
                loaded += count * plan.load_words(dataflow, iterations)
                stored += count * plan.store_words(dataflow, iterations)
        context_per_round = sum(
            schedule.context_words_per_visit(plan.cluster_index)
            for plan in schedule.cluster_plans
        )
        total_iterations = schedule.application.total_iterations
        if schedule.contexts_per_iteration:
            total_context = context_per_round * total_iterations
        else:
            total_context = context_per_round * schedule.rounds
        return cls(
            scheduler=schedule.scheduler,
            rf=schedule.rf,
            rounds=schedule.rounds,
            total_iterations=total_iterations,
            total_data_loaded_words=loaded,
            total_data_stored_words=stored,
            total_context_words=total_context,
            max_peak_occupancy=max(
                plan.peak_occupancy for plan in schedule.cluster_plans
            ),
        )

    def data_transfers_avoided_per_iteration(
        self, baseline: "TransferSummary"
    ) -> float:
        """Words of data traffic avoided per iteration relative to a
        baseline summary (the paper's ``DT`` column)."""
        return (
            baseline.data_words_per_iteration - self.data_words_per_iteration
        )
