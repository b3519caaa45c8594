"""One-call schedule validation: every checker in the repository.

``validate_schedule`` takes a schedule and runs the full gauntlet:

1. static program verification (use-before-load, context residency,
   store completeness);
2. the Figure-4 allocator on both frame-buffer sets, with offline
   overlap re-verification and capacity checks;
3. a timing simulation, cross-checked against the schedule's static
   traffic accounting;
4. a functional simulation, cross-checked against a direct reference
   execution of the application.

Returns a :class:`ValidationReport`; raises the first underlying error
when ``raise_on_error`` is set.  This is the harness downstream users
should run after modifying any scheduler component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.alloc.allocator import FrameBufferAllocator
from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.codegen.verifier import verify_program
from repro.errors import ReproError
from repro.schedule.plan import Schedule, TransferSummary
from repro.sim.engine import Simulator
from repro.sim.report import SimulationReport

__all__ = ["ValidationReport", "validate_schedule"]


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_schedule`."""

    schedule: Schedule
    ok: bool = True
    checks_passed: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    timing_report: Optional[SimulationReport] = None
    functional_report: Optional[SimulationReport] = None

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [
            f"validation of schedule[{self.schedule.scheduler}] on "
            f"{self.schedule.application.name!r}: {status}"
        ]
        for check in self.checks_passed:
            lines.append(f"  [pass] {check}")
        for failure in self.failures:
            lines.append(f"  [FAIL] {failure}")
        return "\n".join(lines)


def validate_schedule(
    schedule: Schedule,
    architecture: Optional[Architecture] = None,
    *,
    functional: bool = True,
    raise_on_error: bool = False,
) -> ValidationReport:
    """Run every checker against *schedule*.

    Args:
        schedule: the schedule to validate.
        architecture: target; defaults to an M1 with the schedule's
            frame-buffer set size (cross-set schedules need the real
            architecture passed in).
        functional: also run the value-level simulation (slower).
        raise_on_error: re-raise the first failure instead of recording.
    """
    if architecture is None:
        architecture = Architecture.m1(
            schedule.fb_set_words,
            fb_cross_set_access=any(
                True for keep in schedule.keeps
                for consumers in [getattr(keep, "clusters", None)
                                  or keep.consumer_clusters]
                if any(
                    schedule.clustering[c].fb_set != keep.fb_set
                    for c in consumers
                )
            ),
        )
    report = ValidationReport(schedule=schedule)

    def run_check(name: str, action) -> bool:
        try:
            action()
        except ReproError as exc:
            report.ok = False
            report.failures.append(f"{name}: {exc}")
            if raise_on_error:
                raise
            return False
        report.checks_passed.append(name)
        return True

    program_holder = {}

    def lower_and_verify():
        program_holder["program"] = generate_program(schedule)
        verify_program(program_holder["program"])

    run_check("static program verification", lower_and_verify)
    program = program_holder.get("program")

    def allocate():
        for fb_set in (0, 1):
            allocation = FrameBufferAllocator(schedule).allocate_set(fb_set)
            allocation.verify()
            if allocation.peak_words > architecture.fb_set_words:
                raise ReproError(
                    f"set {fb_set} peak {allocation.peak_words} exceeds "
                    f"{architecture.fb_set_words}"
                )

    run_check("frame-buffer allocation (both sets)", allocate)

    if program is not None:
        def timing():
            simulation = Simulator(MorphoSysM1(architecture)).run(program)
            report.timing_report = simulation
            summary = TransferSummary.from_schedule(schedule)
            if simulation.data_load_words != summary.total_data_loaded_words:
                raise ReproError(
                    f"load words: simulated {simulation.data_load_words}, "
                    f"accounted {summary.total_data_loaded_words}"
                )
            if simulation.data_store_words != summary.total_data_stored_words:
                raise ReproError(
                    f"store words: simulated {simulation.data_store_words}, "
                    f"accounted {summary.total_data_stored_words}"
                )

        run_check("timing simulation vs static accounting", timing)

        if functional:
            def run_functional():
                machine = MorphoSysM1(architecture)
                simulation = Simulator(machine).run(
                    program, functional=True
                )
                report.functional_report = simulation
                if simulation.functional_verified is not True:
                    raise ReproError("functional verification did not run")

            run_check("functional simulation vs reference", run_functional)
    return report
