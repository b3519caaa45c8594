"""Driving the lint passes over whole pipelines and experiments.

Three entry points, by how much of the pipeline the caller has:

* :func:`lint_schedule` — application + schedule layers only, from a
  finished :class:`~repro.schedule.plan.Schedule` (used by the
  schedulers' ``strict_lint`` self-check);
* :func:`build_lint_context` — run the full pipeline (schedule,
  allocation, codegen) for an application and return every artifact in
  one :class:`~repro.lint.registry.LintContext`;
* :func:`lint_experiment` — resolve a named bundled experiment (the
  Table-1 rows plus the functional wavelet codec), build its context
  and run all four layers.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Mapping, Optional, Tuple

from repro.arch.params import Architecture
from repro.core.application import Application
from repro.core.cluster import Clustering
from repro.errors import ReproError
from repro.lint.diagnostics import DiagnosticCollector, Severity
from repro.lint.registry import LintContext, run_passes
from repro.schedule.plan import Schedule

__all__ = [
    "LintTarget",
    "lint_targets",
    "resolve_target",
    "build_lint_context",
    "lint_context",
    "lint_schedule",
    "lint_experiment",
    "corrupt_schedule",
]


@dataclasses.dataclass(frozen=True)
class LintTarget:
    """One named, lintable workload: a builder plus an FB size."""

    id: str
    fb: str
    description: str

    def build(self) -> Tuple[Application, Clustering]:
        from repro.workloads.spec import paper_experiments
        from repro.workloads.wavelet import wavelet_functional

        if self.id == "WAVELET":
            application, clustering, _ = wavelet_functional()
            return application, clustering
        for spec in paper_experiments():
            if spec.id == self.id:
                return spec.build()
        raise ReproError(f"unknown lint target {self.id!r}")


def lint_targets() -> Tuple[LintTarget, ...]:
    """Every bundled lintable workload: Table 1 plus the wavelet codec."""
    from repro.workloads.spec import paper_experiments

    targets = [
        LintTarget(id=spec.id, fb=spec.fb, description=spec.notes or "")
        for spec in paper_experiments()
    ]
    targets.append(
        LintTarget(
            id="WAVELET", fb="1K",
            description="functional wavelet codec (library kernels)",
        )
    )
    return tuple(targets)


def resolve_target(name: str) -> LintTarget:
    """Find a target by id (case-insensitive)."""
    for target in lint_targets():
        if target.id.lower() == name.lower():
            return target
    known = ", ".join(target.id for target in lint_targets())
    raise ReproError(f"unknown lint target {name!r}; known: {known}")


def _scheduler_for(name: str, architecture: Architecture):
    from repro.schedule import SCHEDULERS

    if name not in SCHEDULERS:
        raise ReproError(
            f"unknown scheduler {name!r}; known: {', '.join(SCHEDULERS)}"
        )
    return SCHEDULERS[name](architecture)


def build_lint_context(
    application: Application,
    clustering: Optional[Clustering] = None,
    *,
    architecture: Optional[Architecture] = None,
    scheduler: str = "cds",
    with_alloc: bool = True,
    with_program: bool = True,
) -> LintContext:
    """Run the pipeline and bundle every artifact for linting.

    Args:
        application: the application to push through the pipeline.
        clustering: cluster partition (per-kernel when omitted).
        architecture: target architecture (M1 with 2K sets when omitted).
        scheduler: ``"basic"``, ``"ds"`` or ``"cds"``.
        with_alloc: also run the Figure-4 allocator on both FB sets.
        with_program: also lower the schedule to a program.
    """
    architecture = architecture or Architecture.m1("2K")
    if clustering is None:
        clustering = Clustering.per_kernel(application)
    schedule = _scheduler_for(scheduler, architecture).schedule(
        application, clustering
    )
    return lint_context(
        schedule, with_alloc=with_alloc, with_program=with_program
    )


def lint_context(
    schedule: Schedule,
    *,
    with_alloc: bool = True,
    with_program: bool = True,
) -> LintContext:
    """Bundle a finished schedule (plus derived artifacts) for linting."""
    allocations: Tuple = ()
    if with_alloc:
        from repro.alloc.allocator import FrameBufferAllocator

        allocations = FrameBufferAllocator(schedule).allocate()
    program = None
    if with_program:
        from repro.codegen.generator import generate_program

        program = generate_program(schedule)
    return LintContext(
        application=schedule.application,
        clustering=schedule.clustering,
        dataflow=schedule.dataflow,
        schedule=schedule,
        allocations=allocations,
        program=program,
    )


def lint_schedule(
    schedule: Schedule,
    *,
    collector: Optional[DiagnosticCollector] = None,
) -> DiagnosticCollector:
    """Lint the application and schedule layers of one schedule.

    This is the cheap self-check the schedulers run under
    ``ScheduleOptions.strict_lint`` — no allocation or codegen happens.
    """
    context = LintContext(
        application=schedule.application,
        clustering=schedule.clustering,
        dataflow=schedule.dataflow,
        schedule=schedule,
    )
    return run_passes(
        context,
        collector=collector,
        layers=("application", "schedule"),
    )


def lint_experiment(
    name: str,
    *,
    scheduler: str = "cds",
    layers: Optional[Iterable[str]] = None,
    severity_overrides: Optional[Mapping[str, Severity]] = None,
    suppress: Iterable[str] = (),
    corrupt: bool = False,
) -> Tuple[LintContext, DiagnosticCollector]:
    """Build and lint one bundled experiment end to end.

    Args:
        name: target id (``"MPEG"``, ``"ATR-SLD"``, ``"WAVELET"``, ...).
        scheduler: which scheduler produces the schedule under lint.
        layers: restrict the pass registry to these layers.
        severity_overrides: per-rule severity replacement.
        suppress: rule codes to drop.
        corrupt: deliberately corrupt the schedule before linting
            (drops a load from the first plan that has one) — a
            self-test hook demonstrating the framework catches a broken
            schedule at both the plan and the program layer.
    """
    target = resolve_target(name)
    application, clustering = target.build()
    architecture = Architecture.m1(target.fb)
    schedule = _scheduler_for(scheduler, architecture).schedule(
        application, clustering
    )
    if corrupt:
        schedule = corrupt_schedule(schedule)
    context = lint_context(schedule)
    collector = DiagnosticCollector(
        severity_overrides=severity_overrides, suppress=suppress
    )
    run_passes(context, collector=collector, layers=layers)
    return context, collector


def corrupt_schedule(schedule: Schedule) -> Schedule:
    """Return a copy of *schedule* with one load dropped.

    The damaged plan claims an input that is neither loaded nor kept —
    the use-before-load class of bug the lint framework exists to
    catch (SCHED003 at the plan layer, PROG001 once lowered).
    """
    plans: List = list(schedule.cluster_plans)
    for index, plan in enumerate(plans):
        if plan.loads:
            plans[index] = dataclasses.replace(plan, loads=plan.loads[1:])
            break
    else:
        raise ReproError("cannot corrupt: no plan performs any load")
    return dataclasses.replace(schedule, cluster_plans=tuple(plans))
