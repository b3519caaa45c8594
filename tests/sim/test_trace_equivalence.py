"""Trace-off block accounting vs. traced simulation: identical reports.

``Simulator(machine, trace=False)`` skips recording the per-transfer
DMA trace (the corpus study and the service run this way) and accounts
each visit's context/load/store group as one contiguous channel block.
The timing model must be unaffected: every report field — makespan,
stalls, DMA busy time, traffic words and operation counts, and every
per-visit :class:`~repro.sim.report.VisitTiming` — must match the
traced run exactly; only the trace itself may differ.
``tests/sim/test_vectorized_equivalence.py`` runs the same comparison
over the fuzz generator matrix, all three schedulers and every DMA
policy.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.errors import InfeasibleScheduleError
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.context_scheduler import DmaPolicy
from repro.sim.engine import Simulator
from repro.workloads.random_gen import random_application
from repro.workloads.spec import paper_experiments


def simulate(architecture, program, trace, policy=DmaPolicy.CONTEXTS_FIRST):
    return Simulator(
        MorphoSysM1(architecture), dma_policy=policy, trace=trace,
        verify=False,
    ).run(program)


def assert_trace_invariant(
    architecture, program, label="", policy=DmaPolicy.CONTEXTS_FIRST
):
    """Trace on and off yield the same report (per-visit timings
    included); only the trace itself differs."""
    traced = simulate(architecture, program, True, policy)
    untraced = simulate(architecture, program, False, policy)
    for field in dataclasses.fields(traced):
        if field.name != "transfers":
            assert getattr(traced, field.name) == getattr(
                untraced, field.name
            ), f"{label}: {field.name} diverges"
    assert traced.transfers
    assert not untraced.transfers


def test_paper_experiments_trace_off_aggregates_match():
    for spec in paper_experiments():
        application, clustering = spec.build()
        architecture = Architecture.m1(spec.fb)
        program = generate_program(
            CompleteDataScheduler(architecture).schedule(
                application, clustering
            )
        )
        assert_trace_invariant(architecture, program, spec.id)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=5000),
    st.sampled_from(["2K", "4K"]),
)
def test_random_workloads_trace_off_aggregates_match(seed, fb):
    application, clustering = random_application(seed, iterations=4)
    architecture = Architecture.m1(fb)
    try:
        schedule = CompleteDataScheduler(architecture).schedule(
            application, clustering
        )
    except InfeasibleScheduleError:
        return
    assert_trace_invariant(architecture, generate_program(schedule))
