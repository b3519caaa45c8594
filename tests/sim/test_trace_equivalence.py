"""Trace-off block accounting vs. traced simulation: identical reports.

``Simulator(machine, trace=False)`` skips recording the per-transfer
DMA trace (the corpus study and the service run this way) and accounts
each visit's context/load/store group as one contiguous channel block.
The timing model must be unaffected: every report field — makespan,
stalls, DMA busy time, traffic words and operation counts, and every
per-visit :class:`~repro.sim.report.VisitTiming` — must match the
traced run exactly; only the trace itself may differ.
``tests/sim/test_trace_equivalence_matrix.py`` runs the same comparison
over the fuzz generator matrix, all three schedulers and every DMA
policy.

The simulator times a template-compiled program from its per-cluster
codegen templates and any other program from its materialised ops.
The two must give equal reports, and the untraced accounting path must
never stamp the templated visits at all.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.codegen.templated import TemplateVisits
from repro.core.cluster import Clustering
from repro.errors import InfeasibleScheduleError
from repro.schedule import BasicScheduler, DataScheduler
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


def assert_template_rows_match_ops(architecture, schedule, label=""):
    """A templated program and the same program with its visits
    materialised into a plain tuple simulate to equal reports, under
    every DMA policy, both context-reuse modes and trace on and off."""
    for reuse in (False, True):
        templated = generate_program(
            schedule, reuse_resident_contexts=reuse
        )
        assert isinstance(templated.visits, TemplateVisits)
        materialised = dataclasses.replace(
            templated, visits=tuple(templated.visits)
        )
        for policy in DmaPolicy:
            for trace in (False, True):
                from_templates = simulate(
                    architecture, templated, trace, policy
                )
                from_ops = simulate(
                    architecture, materialised, trace, policy
                )
                assert from_templates == from_ops, (
                    f"{label}: reuse={reuse} {policy.name} trace={trace}"
                )


def test_paper_experiments_templates_match_materialised_ops():
    for spec in paper_experiments():
        application, clustering = spec.build()
        architecture = Architecture.m1(spec.fb)
        schedule = CompleteDataScheduler(architecture).schedule(
            application, clustering
        )
        assert_template_rows_match_ops(architecture, schedule, spec.id)


@pytest.mark.parametrize(
    "groups", [[["k1", "k2", "k3"]], [["k1", "k2"], ["k3"]]],
    ids=["one-cluster", "two-clusters"],
)
def test_resident_context_reuse_templates_match_materialised_ops(
    sharing_app, groups
):
    """With one or two clusters the CM blocks are never displaced, so
    ``reuse_resident_contexts`` zeroes the context group of later
    visits; the template rows must zero exactly those."""
    architecture = Architecture.m1("2K")
    schedule = CompleteDataScheduler(architecture).schedule(
        sharing_app, Clustering(sharing_app, groups)
    )
    flags = generate_program(
        schedule, reuse_resident_contexts=True
    ).visits.context_flags
    assert not all(flags)
    assert_template_rows_match_ops(architecture, schedule, str(groups))


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=5000),
    st.sampled_from(["2K", "4K"]),
    st.sampled_from([BasicScheduler, DataScheduler, CompleteDataScheduler]),
)
def test_random_workloads_templates_match_materialised_ops(
    seed, fb, scheduler_cls
):
    application, clustering = random_application(seed, iterations=5)
    architecture = Architecture.m1(fb)
    try:
        schedule = scheduler_cls(architecture).schedule(
            application, clustering
        )
    except InfeasibleScheduleError:
        return
    assert_template_rows_match_ops(architecture, schedule, f"seed {seed}")


def test_untraced_accounting_never_materialises_visits(monkeypatch):
    """The untraced, non-functional path times every paper experiment
    under every policy straight from the templates."""

    def refuse(self):
        raise AssertionError("the untraced simulation stamped visit ops")

    monkeypatch.setattr(TemplateVisits, "_stamp", refuse)
    for spec in paper_experiments():
        application, clustering = spec.build()
        architecture = Architecture.m1(spec.fb)
        for scheduler_cls in (
            BasicScheduler, DataScheduler, CompleteDataScheduler
        ):
            schedule = scheduler_cls(architecture).schedule(
                application, clustering
            )
            for reuse in (False, True):
                program = generate_program(
                    schedule, reuse_resident_contexts=reuse
                )
                for policy in DmaPolicy:
                    report = simulate(architecture, program, False, policy)
                    assert len(report.visits) == len(program.visits)
                    assert report.transfers == ()
    # The seam is live: anything that does materialise trips it.
    with pytest.raises(AssertionError, match="stamped"):
        simulate(architecture, program, True)
