"""The oracle stack: independent cross-checks over one fuzz case.

Every generated case runs through all oracles (no early exit), each of
which compares two independent computations of the same fact:

``rfbound``
    The common RF of the Data and Complete Data Schedulers is the
    highest one: under :class:`~repro.schedule.occupancy.ReferenceOccupancy`
    every cluster fits at ``rf`` and some cluster overflows at
    ``rf + 1``, unless ``rf`` is the cap.
``diagnostics``
    Every :class:`~repro.errors.InfeasibleScheduleError` carries
    ``required > available`` and renders the two numbers distinctly
    (the "needs 1K but holds 1K" rounding-collision bug class).
``feasibility``
    Feasibility is monotone across the scheduler hierarchy: Basic
    feasible implies DS feasible, and DS and CDS agree.
``traffic``
    Words moved (data + context) obey CDS <= DS <= Basic, and data
    words alone obey the same ordering.
``engine``
    The incremental occupancy engine and the naive
    :class:`~repro.schedule.occupancy.ReferenceOccupancy`, swapped in
    by subclassing each scheduler, produce byte-identical schedules
    (and agree on infeasibility).
``trace``
    Decision tracing never changes a schedule: trace-on and trace-off
    runs are equal.
``exactgap``
    The branch-and-bound exact retention/RF solver
    (:mod:`repro.schedule.exact`) agrees with the greedy CDS on
    feasibility — identical :class:`InfeasibleScheduleError` payloads
    up to the scheduler-name prefix — and, on feasible cases, never
    moves more words than greedy; the solver's closed-form traffic
    model must reproduce the materialised ``TransferSummary`` totals
    of both solutions and its internal greedy mirror must replay the
    CDS decision byte for byte.  Any case where greedy "beats" exact
    is by construction a bug in one of them.
``progequiv``
    The template-compiled codegen backend
    (:mod:`repro.codegen.templated`) produces byte-identical
    :class:`~repro.codegen.program.Program` objects to the reference
    generator, and the template-level fast verifier
    (:mod:`repro.codegen.fastverify`) returns the identical ordered
    violation list the reference replay does.
``freelist``
    Every free-list operation of the Figure-4 allocator produces
    identical results and identical free-block state on the production
    bisect list and the linear reference list; the resulting allocation
    passes offline overlap verification and fits the set.
``verifier``
    The lowered program passes static verification.
``hazards``
    The lowered program analyzes clean on the timing-aware hazard
    passes (:mod:`repro.dataflow`) under the sound ``contexts_first``
    DMA serialization policy — no DMA/compute races, no live-range
    interference, no capacity-over-time violations — and, under every
    policy, the traced simulator's transfers follow the happens-before
    graph's channel order and gates.
``simengine``
    Re-simulating with the per-transfer DMA trace on completes — every
    visit group's transfers, stamped from its ops, end exactly at the
    channel block its template row timed — and reproduces the untraced
    pipeline report field for field (per-visit timings included, the
    trace itself excepted).  Simulating the program with its visits
    materialised into a plain tuple, from rows summed over its ops,
    reproduces the template-driven pipeline report exactly.
``functional``
    Functional simulation reproduces the application's reference
    outputs.

With a :class:`~repro.cache.CacheStore`, the full verdict of one case
is memoised under its content key (:func:`~repro.cache.keys.case_key`):
warm fuzz-campaign reruns skip compile and simulation entirely for
unchanged cases, and cached verdicts are byte-identical to fresh ones.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.alloc.allocator import FrameBufferAllocator
from repro.alloc.free_list import FreeBlockList
from repro.alloc.reference import ReferenceFreeBlockList
from repro.arch.machine import MorphoSysM1
from repro.codegen.generator import generate_program
from repro.codegen.verifier import verify_program
from repro.core.dataflow import analyze_dataflow
from repro.errors import InfeasibleScheduleError, ReproError, SimulationError
from repro.fuzz.case import FuzzCase
from repro.schedule.base import ScheduleOptions
from repro.schedule.basic import BasicScheduler
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.schedule.occupancy import ReferenceOccupancy
from repro.sim.engine import Simulator
from repro.units import format_words_pair

__all__ = [
    "ORACLE_NAMES",
    "OracleFailure",
    "FreeListMismatch",
    "MirroredFreeList",
    "run_oracles",
]

ORACLE_NAMES: Tuple[str, ...] = (
    "rfbound",
    "diagnostics",
    "feasibility",
    "traffic",
    "engine",
    "trace",
    "exactgap",
    "progequiv",
    "freelist",
    "verifier",
    "hazards",
    "simengine",
    "functional",
)

_SCHEDULERS = (BasicScheduler, DataScheduler, CompleteDataScheduler)

# The ``engine`` oracle's side: each scheduler on the naive occupancy
# reference, substituted through the ``occupancy_cls`` seam.
_REFERENCE_SCHEDULERS = {
    cls: type(
        f"Reference{cls.__name__}", (cls,),
        {"occupancy_cls": ReferenceOccupancy},
    )
    for cls in _SCHEDULERS
}


@dataclass(frozen=True)
class OracleFailure:
    """One oracle violation on one case."""

    oracle: str
    case: str
    message: str
    scheduler: str = ""

    def to_dict(self) -> Dict:
        return {
            "oracle": self.oracle,
            "case": self.case,
            "message": self.message,
            "scheduler": self.scheduler,
        }


class FreeListMismatch(ReproError):
    """Production and reference free lists diverged."""


class MirroredFreeList:
    """A free list that mirrors every operation onto the linear oracle.

    Injected into the allocator via ``free_list_factory``; each call is
    applied to both the production :class:`FreeBlockList` and the
    :class:`ReferenceFreeBlockList`, and must yield the same result (or
    the same exception type) and leave both lists with identical free
    blocks.  Any divergence raises :class:`FreeListMismatch`.
    """

    def __init__(self, capacity_words: int):
        self.primary = FreeBlockList(capacity_words)
        self.oracle = ReferenceFreeBlockList(capacity_words)
        self.operations = 0

    # -- mirroring core ---------------------------------------------------

    def _both(self, method: str, *args, **kwargs):
        self.operations += 1
        outcomes = []
        for target in (self.primary, self.oracle):
            try:
                outcomes.append(("ok", getattr(target, method)(*args, **kwargs)))
            except ReproError as exc:
                outcomes.append(("err", exc))
        (kind_a, value_a), (kind_b, value_b) = outcomes
        if kind_a != kind_b:
            raise FreeListMismatch(
                f"{method}{args}: production "
                f"{'raised ' + type(value_a).__name__ if kind_a == 'err' else 'returned ' + repr(value_a)}"
                f" but reference "
                f"{'raised ' + type(value_b).__name__ if kind_b == 'err' else 'returned ' + repr(value_b)}"
            )
        if kind_a == "err":
            if type(value_a) is not type(value_b):
                raise FreeListMismatch(
                    f"{method}{args}: exception types diverged: "
                    f"{type(value_a).__name__} vs {type(value_b).__name__}"
                )
            self._check_state(method, args)
            raise value_a
        if value_a != value_b:
            raise FreeListMismatch(
                f"{method}{args}: results diverged: "
                f"{value_a!r} vs {value_b!r}"
            )
        self._check_state(method, args)
        return value_a

    def _check_state(self, method: str, args) -> None:
        if self.primary.blocks() != self.oracle.blocks():
            raise FreeListMismatch(
                f"after {method}{args}: free blocks diverged: "
                f"{self.primary} vs {self.oracle}"
            )
        if self.primary.free_words != self.oracle.free_words:
            raise FreeListMismatch(
                f"after {method}{args}: free words diverged: "
                f"{self.primary.free_words} vs {self.oracle.free_words}"
            )

    # -- FreeBlockList interface ------------------------------------------

    @property
    def free_words(self) -> int:
        self._check_state("free_words", ())
        return self.primary.free_words

    @property
    def largest_block(self) -> int:
        return self.primary.largest_block

    def blocks(self):
        self._check_state("blocks", ())
        return self.primary.blocks()

    def is_free(self, start: int, size: int) -> bool:
        return self._both("is_free", start, size)

    def allocate_high(self, size: int, *, best_fit: bool = False):
        return self._both("allocate_high", size, best_fit=best_fit)

    def allocate_low(self, size: int, *, best_fit: bool = False):
        return self._both("allocate_low", size, best_fit=best_fit)

    def allocate_at(self, start: int, size: int):
        return self._both("allocate_at", start, size)

    def allocate_split(self, size: int, *, from_high: bool):
        return self._both("allocate_split", size, from_high=from_high)

    def free(self, start: int, size: int) -> None:
        return self._both("free", start, size)

    def free_extents(self, extents) -> None:
        for extent in extents:
            self.free(extent.start, extent.size)

    def check_invariants(self) -> None:
        self.primary.check_invariants()
        self.oracle.check_invariants()
        self._check_state("check_invariants", ())


@dataclass
class _Run:
    """One scheduler's pipeline products on the case."""

    scheduler: str
    schedule: Optional[object] = None
    report: Optional[object] = None
    program: Optional[object] = None
    error: Optional[InfeasibleScheduleError] = None
    failures: List[OracleFailure] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.schedule is not None


def _schedule_only(scheduler_cls, architecture, options, application,
                   clustering, dataflow):
    """Schedule; return ``(schedule, infeasible_error)``."""
    scheduler = scheduler_cls(architecture, options)
    try:
        return (
            scheduler.schedule(application, clustering, dataflow=dataflow),
            None,
        )
    except InfeasibleScheduleError as exc:
        return None, exc


def run_oracles(
    case: FuzzCase,
    *,
    oracles: Optional[Sequence[str]] = None,
    functional: bool = True,
    cache=None,
) -> List[OracleFailure]:
    """All oracle verdicts on one case (never stops at the first).

    Args:
        case: the case to check.
        oracles: restrict to a subset of :data:`ORACLE_NAMES`.
        functional: include the (slower) functional-simulation oracle.
        cache: optional :class:`~repro.cache.CacheStore`; memoises the
            full verdict under the case's content key, so reruns of an
            unchanged case (under unchanged code) skip every pipeline
            stage.  Verdicts are stored without the case *name* — a
            renamed reproducer of the same workload hits the same
            entry and the failures are rebuilt with the current name.

    Returns:
        One :class:`OracleFailure` per violation; empty when clean.
    """
    enabled = set(ORACLE_NAMES if oracles is None else oracles)
    unknown = enabled - set(ORACLE_NAMES)
    if unknown:
        raise ValueError(f"unknown oracles: {sorted(unknown)}")
    if not functional:
        enabled.discard("functional")
    key = None
    if cache is not None:
        from repro.cache import case_key, digest

        key = digest(("oracles", case_key(case), tuple(sorted(enabled))))
        cached = cache.get(key)
        if cached is not None:
            return [
                OracleFailure(oracle, case.name, message, scheduler)
                for oracle, message, scheduler in cached
            ]
    failures = _run_oracles_uncached(case, enabled)
    if cache is not None:
        cache.put(key, tuple(
            (failure.oracle, failure.message, failure.scheduler)
            for failure in failures
        ))
    return failures


def _run_oracles_uncached(
    case: FuzzCase, enabled: set
) -> List[OracleFailure]:
    failures: List[OracleFailure] = []

    try:
        application, clustering = case.build()
    except Exception as exc:
        return [OracleFailure("build", case.name, f"case does not build: {exc}")]
    architecture = case.architecture()
    dataflow = analyze_dataflow(application, clustering)
    traced = ScheduleOptions(decision_trace=True)

    runs: Dict[str, _Run] = {}
    for scheduler_cls in _SCHEDULERS:
        run = _Run(scheduler=scheduler_cls.name)
        run.schedule, run.error = _schedule_only(
            scheduler_cls, architecture, traced, application, clustering,
            dataflow,
        )
        if run.schedule is not None:
            try:
                run.program = generate_program(run.schedule)
                run.report = Simulator(
                    MorphoSysM1(architecture), trace=False, verify=True,
                ).run(run.program)
            except ReproError as exc:
                failures.append(OracleFailure(
                    "verifier", case.name,
                    f"pipeline failed after scheduling: {exc}",
                    scheduler=run.scheduler,
                ))
        runs[scheduler_cls.name] = run

    if "rfbound" in enabled:
        failures.extend(_check_rfbound(case, runs, dataflow, traced))
    if "diagnostics" in enabled:
        failures.extend(_check_diagnostics(case, runs))
    if "feasibility" in enabled:
        failures.extend(_check_feasibility(case, runs))
    if "traffic" in enabled:
        failures.extend(_check_traffic(case, runs))
    if "trace" in enabled or "engine" in enabled:
        failures.extend(_check_equivalences(
            case, runs, architecture, application, clustering, dataflow,
            enabled,
        ))
    if "exactgap" in enabled:
        failures.extend(_check_exactgap(
            case, runs, architecture, application, clustering, dataflow,
        ))
    if "progequiv" in enabled:
        failures.extend(_check_progequiv(case, runs))
    if "freelist" in enabled:
        failures.extend(_check_freelist(case, runs, architecture))
    if "verifier" in enabled:
        failures.extend(_check_verifier(case, runs))
    if "hazards" in enabled:
        failures.extend(_check_hazards(case, runs, architecture))
    if "simengine" in enabled:
        failures.extend(_check_simengine(case, runs, architecture))
    if "functional" in enabled:
        failures.extend(_check_functional(case, runs, architecture))
    return failures


# -- individual oracles ---------------------------------------------------


def _check_rfbound(case, runs, dataflow, options) -> List[OracleFailure]:
    failures = []
    cap = options.rf_cap or dataflow.application.total_iterations
    for name in ("ds", "cds"):
        run = runs.get(name)
        if run is None or run.schedule is None:
            continue
        rf, fbs = run.schedule.rf, run.schedule.fb_set_words
        reference = ReferenceOccupancy(dataflow, fbs)

        def peaks(at: int) -> Dict[str, int]:
            return {
                cluster.name: reference.occupancy(cluster.index, at)
                for cluster in dataflow.clustering
            }

        over = {
            cluster: words for cluster, words in peaks(rf).items()
            if words > fbs
        }
        if over:
            failures.append(OracleFailure(
                "rfbound", case.name,
                f"RF={rf} overflows the {fbs}-word set on {over}",
                scheduler=name,
            ))
        elif rf < cap and max(peaks(rf + 1).values()) <= fbs:
            failures.append(OracleFailure(
                "rfbound", case.name,
                f"RF={rf} is below the cap {cap} but RF={rf + 1} fits "
                f"every cluster of the {fbs}-word set",
                scheduler=name,
            ))
    return failures


def _check_diagnostics(case, runs) -> List[OracleFailure]:
    failures = []
    for run in runs.values():
        exc = run.error
        if exc is None:
            continue
        if exc.required is None or exc.available is None:
            failures.append(OracleFailure(
                "diagnostics", case.name,
                f"infeasibility lacks required/available numbers: {exc}",
                scheduler=run.scheduler,
            ))
            continue
        if exc.required <= exc.available:
            failures.append(OracleFailure(
                "diagnostics", case.name,
                f"infeasibility claims required {exc.required} <= "
                f"available {exc.available}: {exc}",
                scheduler=run.scheduler,
            ))
            continue
        need, capacity = format_words_pair(exc.required, exc.available)
        message = str(exc)
        if need == capacity:
            failures.append(OracleFailure(
                "diagnostics", case.name,
                f"need and capacity render identically ({need}): {exc}",
                scheduler=run.scheduler,
            ))
        elif need not in message or capacity not in message:
            failures.append(OracleFailure(
                "diagnostics", case.name,
                f"message does not show exact numbers "
                f"({need} vs {capacity}): {exc}",
                scheduler=run.scheduler,
            ))
    return failures


def _check_feasibility(case, runs) -> List[OracleFailure]:
    failures = []
    basic, ds, cds = runs["basic"], runs["ds"], runs["cds"]
    if basic.feasible and not ds.feasible:
        failures.append(OracleFailure(
            "feasibility", case.name,
            f"Basic feasible but DS infeasible: {ds.error}",
            scheduler="ds",
        ))
    if ds.feasible != cds.feasible:
        failures.append(OracleFailure(
            "feasibility", case.name,
            f"DS {'feasible' if ds.feasible else 'infeasible'} but CDS "
            f"{'feasible' if cds.feasible else 'infeasible'} "
            f"({ds.error or cds.error})",
            scheduler="cds",
        ))
    return failures


def _check_traffic(case, runs) -> List[OracleFailure]:
    failures = []
    reports = {
        name: run.report for name, run in runs.items()
        if run.report is not None
    }

    def total(name: str) -> int:
        return reports[name].data_words + reports[name].context_words

    ordering = [name for name in ("cds", "ds", "basic") if name in reports]
    for better, worse in zip(ordering, ordering[1:]):
        if total(better) > total(worse):
            failures.append(OracleFailure(
                "traffic", case.name,
                f"{better} moves {total(better)} words but {worse} only "
                f"{total(worse)} (data+context)",
                scheduler=better,
            ))
        if reports[better].data_words > reports[worse].data_words:
            failures.append(OracleFailure(
                "traffic", case.name,
                f"{better} moves {reports[better].data_words} data words "
                f"but {worse} only {reports[worse].data_words}",
                scheduler=better,
            ))
    return failures


def _check_equivalences(case, runs, architecture, application, clustering,
                        dataflow, enabled) -> List[OracleFailure]:
    """Trace on/off and the reference occupancy engine must not change
    schedules."""
    failures = []
    variants = []
    if "trace" in enabled:
        variants.append(("trace", "decision_trace off", False))
    if "engine" in enabled:
        variants.append(("engine", "naive occupancy engine", True))
    for scheduler_cls in _SCHEDULERS:
        reference = runs[scheduler_cls.name]
        for oracle, label, naive in variants:
            schedule, error = _schedule_only(
                _REFERENCE_SCHEDULERS[scheduler_cls] if naive
                else scheduler_cls,
                architecture, ScheduleOptions(), application,
                clustering, dataflow,
            )
            if (schedule is None) != (reference.schedule is None):
                failures.append(OracleFailure(
                    oracle, case.name,
                    f"feasibility flips with {label}: "
                    f"{error or reference.error}",
                    scheduler=scheduler_cls.name,
                ))
            elif schedule is not None and schedule != reference.schedule:
                failures.append(OracleFailure(
                    oracle, case.name,
                    f"schedule changes with {label} "
                    f"(rf {schedule.rf} vs {reference.schedule.rf}, "
                    f"keeps {len(schedule.keeps)} vs "
                    f"{len(reference.schedule.keeps)})",
                    scheduler=scheduler_cls.name,
                ))
    return failures


def _strip_scheduler_prefix(message: str, scheduler: str) -> str:
    """Drop the ``"<scheduler>: "`` prefix the base scheduler puts on
    its capacity diagnostics, so payloads of different schedulers on
    the same infeasible case compare on substance."""
    prefix = f"{scheduler}: "
    if message.startswith(prefix):
        return message[len(prefix):]
    return message


def _check_exactgap(case, runs, architecture, application, clustering,
                    dataflow) -> List[OracleFailure]:
    """Greedy must never beat the exact solver, and both sides of the
    comparison must be telling the truth.

    Four assertions on top of the shared CDS run:

    * feasibility verdicts agree, with identical error payloads
      (message up to the scheduler-name prefix, cluster, word counts);
    * exact total traffic (data + context) <= greedy total traffic;
    * the solver's closed-form model equals the materialised
      ``TransferSummary`` totals of **both** solutions — a model error
      would otherwise let a wrong "optimum" hide behind a wrong bound;
    * the solver's internal greedy seed replays the CDS decision
      (same RF, same keeps in the same order) byte for byte.
    """
    from repro.schedule.exact import ExactDataScheduler

    failures = []
    cds = runs["cds"]
    scheduler = ExactDataScheduler(architecture)
    try:
        schedule = scheduler.schedule(
            application, clustering, dataflow=dataflow
        )
        error = None
    except InfeasibleScheduleError as exc:
        schedule, error = None, exc

    if (schedule is None) != (cds.schedule is None):
        failures.append(OracleFailure(
            "exactgap", case.name,
            f"feasibility verdict flips under the exact solver: "
            f"cds {'feasible' if cds.feasible else 'infeasible'} but "
            f"exact {'feasible' if schedule is not None else 'infeasible'} "
            f"({error or cds.error})",
            scheduler="exact",
        ))
        return failures
    if schedule is None:
        got, want = error, cds.error
        if (
            _strip_scheduler_prefix(str(got), "exact"),
            got.cluster, got.required, got.available,
        ) != (
            _strip_scheduler_prefix(str(want), "cds"),
            want.cluster, want.required, want.available,
        ):
            failures.append(OracleFailure(
                "exactgap", case.name,
                f"infeasibility payload diverges from the reference "
                f"scheduler: {got!r} vs {want!r}",
                scheduler="exact",
            ))
        return failures

    solution = scheduler.last_solution
    exact_summary = schedule.summary()
    greedy_summary = cds.schedule.summary()
    exact_total = (
        exact_summary.total_data_words + exact_summary.total_context_words
    )
    greedy_total = (
        greedy_summary.total_data_words + greedy_summary.total_context_words
    )
    if exact_total > greedy_total:
        failures.append(OracleFailure(
            "exactgap", case.name,
            f"greedy beats the exact solver: cds moves {greedy_total} "
            f"words but exact moves {exact_total} "
            f"(rf {cds.schedule.rf} vs {schedule.rf}, keeps "
            f"{len(cds.schedule.keeps)} vs {len(schedule.keeps)}) — "
            f"a bug in one of them",
            scheduler="exact",
        ))
    if solution.traffic_words != exact_total:
        failures.append(OracleFailure(
            "exactgap", case.name,
            f"traffic model diverges from the materialised exact "
            f"schedule: model {solution.traffic_words} vs summary "
            f"{exact_total}",
            scheduler="exact",
        ))
    if solution.greedy_traffic_words != greedy_total:
        failures.append(OracleFailure(
            "exactgap", case.name,
            f"traffic model diverges from the materialised cds "
            f"schedule: model {solution.greedy_traffic_words} vs "
            f"summary {greedy_total}",
            scheduler="exact",
        ))
    if (
        solution.greedy_rf != cds.schedule.rf
        or solution.greedy_keeps != cds.schedule.keeps
    ):
        failures.append(OracleFailure(
            "exactgap", case.name,
            f"the solver's greedy mirror diverges from the CDS "
            f"decision: rf {solution.greedy_rf} vs {cds.schedule.rf}, "
            f"keeps {len(solution.greedy_keeps)} vs "
            f"{len(cds.schedule.keeps)}",
            scheduler="exact",
        ))
    return failures


def _check_progequiv(case, runs) -> List[OracleFailure]:
    """Templated codegen and fast verification must be byte-identical
    to the reference backend on every feasible schedule: same
    :class:`Program` (visits included), the same ordered violation
    list, and the same generation errors."""
    from repro.codegen.reference import reference_generate_program
    from repro.codegen.verifier import (
        collect_program_violations,
        iter_program_violations,
    )
    from repro.errors import CodegenError

    failures = []
    for run in runs.values():
        if run.schedule is None:
            continue
        reference = templated = None
        ref_error = tpl_error = None
        try:
            reference = reference_generate_program(run.schedule)
        except CodegenError as exc:
            ref_error = str(exc)
        try:
            templated = generate_program(run.schedule)
        except CodegenError as exc:
            tpl_error = str(exc)
        if ref_error != tpl_error:
            failures.append(OracleFailure(
                "progequiv", case.name,
                f"codegen errors diverge: "
                f"reference={ref_error!r} templated={tpl_error!r}",
                scheduler=run.scheduler,
            ))
            continue
        if reference is None:
            continue
        if templated != reference or reference != templated:
            failures.append(OracleFailure(
                "progequiv", case.name,
                "templated program differs from reference",
                scheduler=run.scheduler,
            ))
            continue
        ref_violations = list(iter_program_violations(reference))
        fast_violations = collect_program_violations(templated)
        if fast_violations != ref_violations:
            failures.append(OracleFailure(
                "progequiv", case.name,
                f"fast verifier returned "
                f"{len(fast_violations)} violation(s), reference replay "
                f"{len(ref_violations)}",
                scheduler=run.scheduler,
            ))
    return failures


def _check_freelist(case, runs, architecture) -> List[OracleFailure]:
    failures = []
    for run in runs.values():
        if run.schedule is None:
            continue
        allocator = FrameBufferAllocator(
            run.schedule, free_list_factory=MirroredFreeList
        )
        for fb_set in (0, 1):
            try:
                allocation = allocator.allocate_set(fb_set)
                allocation.verify()
            except ReproError as exc:
                failures.append(OracleFailure(
                    "freelist", case.name,
                    f"set {fb_set}: {exc}",
                    scheduler=run.scheduler,
                ))
                continue
            if allocation.peak_words > architecture.fb_set_words:
                failures.append(OracleFailure(
                    "freelist", case.name,
                    f"set {fb_set} peak {allocation.peak_words} exceeds "
                    f"capacity {architecture.fb_set_words}",
                    scheduler=run.scheduler,
                ))
    return failures


def _check_verifier(case, runs) -> List[OracleFailure]:
    failures = []
    for run in runs.values():
        if run.program is None:
            continue
        try:
            verify_program(run.program)
        except ReproError as exc:
            failures.append(OracleFailure(
                "verifier", case.name, str(exc), scheduler=run.scheduler,
            ))
    return failures


def _check_hazards(case, runs, architecture) -> List[OracleFailure]:
    """Feasible programs must analyze clean under the sound DMA policy.

    ``contexts_first`` is the one placement-sound policy: ``loads_first``
    is the documented-unsound ablation and ``adaptive`` respects the
    space budget but not placement, so only ``contexts_first`` is
    asserted clean here; the others remain reachable through
    ``repro analyze --policy``.

    Each lowered program is also run through the reference passes of
    :mod:`repro.dataflow.reference`: HAZ002 once and HAZ001 under every
    policy, each with emits equal to the production pass's.  A
    templated program's block-by-block lowering must equal the op walk
    of its materialised ops, column by column.  Under every policy, the
    traced simulator must also walk the happens-before graph's issue
    order (:func:`_issue_order_mismatch`).
    """
    from repro.codegen.templated import TemplateVisits
    from repro.dataflow.analyzer import analyze_ir, build_ir
    from repro.dataflow.hazards import HappensBefore
    from repro.dataflow.reference import (
        interference_mismatch,
        lowering_mismatch,
        race_mismatch,
    )
    from repro.schedule.context_scheduler import DmaPolicy

    failures = []
    for run in runs.values():
        if run.program is None:
            continue
        ir = collector = None
        try:
            allocations = FrameBufferAllocator(run.program.schedule).allocate()
            ir = build_ir(run.program, allocations=allocations)
            if isinstance(run.program.visits, TemplateVisits):
                mismatch = lowering_mismatch(run.program, allocations)
                if mismatch is not None:
                    failures.append(OracleFailure(
                        "hazards", case.name,
                        f"templated lowering diverges from the op walk: "
                        f"{mismatch}",
                        scheduler=run.scheduler,
                    ))
            mismatch = interference_mismatch(ir)
            if mismatch is not None:
                failures.append(_pass_mismatch(case, run, mismatch))
            collector = analyze_ir(ir)
        except ReproError as exc:
            failures.append(OracleFailure(
                "hazards", case.name,
                f"analysis crashed under contexts_first: {exc}",
                scheduler=run.scheduler,
            ))
        if collector is not None and collector.has_errors:
            first = collector.errors[0]
            failures.append(OracleFailure(
                "hazards", case.name,
                f"{len(collector.errors)} error finding(s) under "
                f"contexts_first; first: {first}",
                scheduler=run.scheduler,
            ))
        if ir is None:
            continue
        for policy in DmaPolicy:
            hb = HappensBefore.build(ir, policy)
            mismatch = race_mismatch(ir, hb)
            if mismatch is not None:
                failures.append(_pass_mismatch(case, run, mismatch))
            mismatch = _issue_order_mismatch(run.program, ir, architecture,
                                             hb)
            if mismatch is not None:
                failures.append(OracleFailure(
                    "hazards", case.name,
                    f"simulator leaves the happens-before issue order "
                    f"under {policy.name.lower()}: {mismatch}",
                    scheduler=run.scheduler,
                ))
    return failures


def _pass_mismatch(case, run, mismatch: str) -> OracleFailure:
    return OracleFailure(
        "hazards", case.name,
        f"pass diverges from its reference: {mismatch}",
        scheduler=run.scheduler,
    )


def _issue_order_mismatch(program, ir, architecture, hb) -> Optional[str]:
    """Where the traced simulator departs from the happens-before graph
    *hb* (a :class:`~repro.dataflow.hazards.HappensBefore`), or ``None``.

    Its transfers, ordered by start, must map one-to-one and in order
    onto the graph's channel positions (trace label <-> IR node), and
    each must start at or after the compute end of its gating visit.
    """
    from repro.dataflow.ir import CONTEXT_LOAD, DATA_LOAD

    report = Simulator(
        MorphoSysM1(architecture), dma_policy=hb.policy, verify=False,
    ).run(program)
    transfers = sorted(report.transfers, key=lambda t: t.start)
    nodes = sorted(hb.channel_pos, key=hb.channel_pos.__getitem__)
    if len(transfers) != len(nodes):
        return (f"{len(transfers)} simulated transfers, {len(nodes)} in "
                f"the graph")
    compute_end = [timing.compute_end for timing in report.visits]
    for pos, (transfer, node_id) in enumerate(zip(transfers, nodes)):
        node = ir.node(node_id)
        op = node.op
        if node.kind == CONTEXT_LOAD:
            label = f"ctx:{op.kernel}@v{node.visit_index}"
        else:
            prefix = "ld" if node.kind == DATA_LOAD else "st"
            label = f"{prefix}:{op.name}#{op.iteration}@v{node.visit_index}"
        if transfer.label != label:
            return (f"channel position {pos}: simulated {transfer.label}, "
                    f"graph {label}")
        gate = hb.rel[pos]
        if gate >= 0 and transfer.start < compute_end[gate]:
            return (f"{label} starts at {transfer.start}, before visit "
                    f"{gate}'s compute end {compute_end[gate]}")
    return None


def _check_simengine(case, runs, architecture) -> List[OracleFailure]:
    """The traced and untraced simulation paths must agree exactly.

    The pipeline reports above ran with the per-transfer trace off, so
    the engine timed the template-compiled program from its
    per-cluster template rows, and a program of five rounds or more
    had the rounds past its steady state stamped by shift.
    Re-simulating with the trace on walks every visit, times the same
    channel blocks and stamps each group's transfers from the visit's
    ops; a group whose ops do not fill its block exactly raises
    :class:`~repro.errors.SimulationError`, reported here as a failure.
    The traced run must also reproduce every
    :class:`~repro.sim.report.SimulationReport` field except the trace
    itself, per-visit timings included, so it checks every shifted
    round.  The same program with its visits materialised into a plain
    tuple is timed from rows summed from its ops, shifted where those
    rows repeat, and must reproduce the report exactly.
    """
    failures = []
    for run in runs.values():
        if run.program is None or run.report is None:
            continue
        materialised = dataclasses.replace(
            run.program, visits=tuple(run.program.visits)
        )
        from_ops = Simulator(
            MorphoSysM1(architecture), trace=False, verify=False,
        ).run(materialised)
        if from_ops != run.report:
            diverging = [
                field.name
                for field in dataclasses.fields(from_ops)
                if getattr(from_ops, field.name)
                != getattr(run.report, field.name)
            ]
            failures.append(OracleFailure(
                "simengine", case.name,
                f"template-driven and materialised-op simulations "
                f"diverge on {diverging}",
                scheduler=run.scheduler,
            ))
        try:
            traced = Simulator(
                MorphoSysM1(architecture), trace=True, verify=False,
            ).run(run.program)
        except SimulationError as exc:
            failures.append(OracleFailure(
                "simengine", case.name, f"traced simulation failed: {exc}",
                scheduler=run.scheduler,
            ))
            continue
        diverging = [
            field.name
            for field in dataclasses.fields(traced)
            if field.name != "transfers"
            and getattr(traced, field.name) != getattr(run.report, field.name)
        ]
        if diverging:
            failures.append(OracleFailure(
                "simengine", case.name,
                f"traced and untraced simulations diverge on {diverging}",
                scheduler=run.scheduler,
            ))
    return failures


def _check_functional(case, runs, architecture) -> List[OracleFailure]:
    failures = []
    for run in runs.values():
        if run.program is None:
            continue
        try:
            machine = MorphoSysM1(architecture)
            report = Simulator(machine).run(run.program, functional=True)
        except ReproError as exc:
            failures.append(OracleFailure(
                "functional", case.name, str(exc), scheduler=run.scheduler,
            ))
            continue
        if report.functional_verified is not True:
            failures.append(OracleFailure(
                "functional", case.name,
                f"functional verification outcome: "
                f"{report.functional_verified}",
                scheduler=run.scheduler,
            ))
    return failures
