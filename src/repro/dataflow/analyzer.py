"""Driving the hazard passes over programs and schedules.

:func:`analyze_program` is the one-stop entry point: lower the program
to the def-use IR, build the happens-before graph for the requested DMA
policy, run all five hazard passes, and return the findings in a
standard :class:`~repro.lint.diagnostics.DiagnosticCollector` so the
lint reporters (text and JSON) render them unchanged.

The lint imports happen lazily inside the functions: the lint package
itself imports :mod:`repro.lint.hazard_passes`, which imports this
package, and module-level imports in the other direction would cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.codegen.program import Program
from repro.dataflow.hazards import HappensBefore
from repro.dataflow.ir import ProgramIR, lower_program
from repro.dataflow.passes import HAZARD_RULES, Emit, run_hazard_passes
from repro.obs.metrics import inc, metrics_active, time_stage
from repro.schedule.context_scheduler import DmaPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.diagnostics import DiagnosticCollector
    from repro.schedule.plan import Schedule

__all__ = [
    "analyze_ir",
    "analyze_program",
    "analyze_schedule",
    "build_ir",
    "emit_hazards",
    "hazard_errors",
    "parse_policy",
]

_POLICY_NAMES = {policy.name.lower(): policy for policy in DmaPolicy}


def parse_policy(text: str) -> DmaPolicy:
    """Parse a DMA policy name (case-insensitive)."""
    try:
        return _POLICY_NAMES[text.strip().lower()]
    except KeyError:
        known = ", ".join(sorted(_POLICY_NAMES))
        raise ValueError(
            f"unknown DMA policy {text!r}; expected one of: {known}"
        ) from None


def analyze_program(
    program: Program,
    *,
    allocations: Optional[Sequence[object]] = None,
    policy: DmaPolicy = DmaPolicy.CONTEXTS_FIRST,
    collector: Optional["DiagnosticCollector"] = None,
) -> "DiagnosticCollector":
    """Run the hazard passes over one compiled program.

    Args:
        program: the program to analyze.
        allocations: ``(set0, set1)`` allocation maps; computed with the
            default :class:`~repro.alloc.allocator.FrameBufferAllocator`
            when omitted.
        policy: the DMA serialization policy to build the happens-before
            graph for.
        collector: collector to accumulate into (fresh when omitted);
            carries severity overrides and suppressions.

    Callers analyzing one program under several policies lower it once
    with :func:`build_ir` and call :func:`analyze_ir` per policy.
    """
    return analyze_ir(
        build_ir(program, allocations=allocations),
        policy=policy, collector=collector,
    )


def analyze_ir(
    ir: ProgramIR,
    *,
    policy: DmaPolicy = DmaPolicy.CONTEXTS_FIRST,
    collector: Optional["DiagnosticCollector"] = None,
) -> "DiagnosticCollector":
    """Run the hazard passes over an already-lowered program under one
    DMA *policy*; arguments as for :func:`analyze_program`."""
    import repro.lint  # noqa: F401  (registers the HAZ/DFA rules)
    from repro.lint.diagnostics import DiagnosticCollector
    from repro.lint.registry import make_emitter

    if collector is None:
        collector = DiagnosticCollector()
    for code in HAZARD_RULES:
        collector.mark_checked(code)
    emit_hazards(ir, make_emitter(collector), policy=policy)
    return collector


def emit_hazards(
    ir: ProgramIR,
    emit: Emit,
    *,
    policy: DmaPolicy = DmaPolicy.CONTEXTS_FIRST,
) -> None:
    """Build the happens-before graph of *ir* under *policy* and report
    every hazard-pass finding through *emit* (a lint emitter)."""
    with time_stage("happens_before", scope="analysis"):
        hb = HappensBefore.build(ir, policy=policy)
    run_hazard_passes(ir, hb, emit)


def analyze_schedule(
    schedule: "Schedule",
    *,
    policy: DmaPolicy = DmaPolicy.CONTEXTS_FIRST,
    collector: Optional["DiagnosticCollector"] = None,
) -> Tuple[Program, "DiagnosticCollector"]:
    """Lower *schedule* and analyze the generated program."""
    from repro.codegen.generator import generate_program

    program = generate_program(schedule)
    return program, analyze_program(
        program, policy=policy, collector=collector
    )


def hazard_errors(collector: "DiagnosticCollector") -> Tuple[object, ...]:
    """The error-severity HAZ findings in *collector* (the CI gate)."""
    return tuple(
        diagnostic for diagnostic in collector.errors
        if diagnostic.code.startswith("HAZ")
    )


def build_ir(
    program: Program,
    *,
    allocations: Optional[Sequence[object]] = None,
) -> ProgramIR:
    """Convenience wrapper: allocations + lowering in one call.

    When it runs the allocator itself it times it as
    ``analysis/allocate`` and, while metrics are collecting, counts the
    finished maps' records, irregular placements and splits as
    ``analysis/placements``, ``analysis/irregular`` and
    ``analysis/splits`` (so a profile reads as time per placement).
    """
    if allocations is None:
        from repro.alloc.allocator import FrameBufferAllocator

        with time_stage("allocate", scope="analysis"):
            allocations = FrameBufferAllocator(program.schedule).allocate()
        if metrics_active():
            inc("placements", sum(len(m.records) for m in allocations),
                scope="analysis")
            inc("irregular", sum(m.irregular_placements for m in allocations),
                scope="analysis")
            inc("splits", sum(m.splits for m in allocations),
                scope="analysis")
    with time_stage("lower", scope="analysis"):
        return lower_program(program, allocations=allocations)
