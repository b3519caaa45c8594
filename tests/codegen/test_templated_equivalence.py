"""Template-compiled codegen vs. the reference generator: byte-identical.

The template backend (:mod:`repro.codegen.templated`) promises the same
contract the batch compiler does for schedules: ``generate_program``
produces **exactly** the program the eager reference generator
(:func:`repro.codegen.reference.reference_generate_program`) emits —
same visits, same ops in the same order — and the vectorized fast
verifier returns exactly the violation list (and first-violation
error) the reference replay does, clean programs and broken ones
alike.  These tests enforce the contract over the fuzz generator
matrix (500+ programs), the paper experiments, hand-built edge cases,
and deliberately broken schedules that force the fast verifier's
reference fallback.
"""

import pickle

import pytest

from repro.arch.params import Architecture
from repro.codegen.fastverify import fast_violation_free
from repro.codegen.generator import generate_program
from repro.codegen.reference import reference_generate_program
from repro.codegen.templated import TemplateVisits
from repro.codegen.verifier import (
    collect_program_violations,
    iter_program_violations,
    verify_program,
)
from repro.core.application import Application
from repro.core.cluster import Clustering
from repro.errors import InfeasibleScheduleError, ProgramVerificationError
from repro.fuzz.generator import generate_case, regime_names
from repro.schedule import BasicScheduler, CompleteDataScheduler, DataScheduler
from repro.workloads.spec import paper_experiments

_SCHEDULERS = {
    "basic": BasicScheduler,
    "ds": DataScheduler,
    "cds": CompleteDataScheduler,
}


def _schedules_of(application, clustering, architecture):
    """Every feasible (scheduler name, schedule) for one workload."""
    for name, cls in _SCHEDULERS.items():
        try:
            yield name, cls(architecture).schedule(application, clustering)
        except InfeasibleScheduleError:
            continue


def _assert_equivalent(schedule, *, label=""):
    """Reference and templated programs agree in every observable way."""
    reference = reference_generate_program(schedule)
    templated = generate_program(schedule)
    assert isinstance(templated.visits, TemplateVisits), label
    assert isinstance(reference.visits, tuple), label
    # Equality in both directions: Program's dataclass __eq__ compares
    # tuple-vs-TemplateVisits one way and the reflected way back.
    assert templated == reference, f"{label}: templated != reference"
    assert reference == templated, f"{label}: reference != templated"
    assert collect_program_violations(templated) == list(
        iter_program_violations(reference)
    ), f"{label}: violation lists diverge"
    return reference, templated


def test_fuzz_matrix_byte_identical():
    """The acceptance matrix: every regime x 50 seeds x 3 schedulers —
    500+ generated programs compared op by op."""
    compared = 0
    for regime in regime_names():
        for seed in range(50):
            case = generate_case(regime, seed)
            application, clustering = case.build()
            architecture = case.architecture()
            for name, schedule in _schedules_of(
                application, clustering, architecture
            ):
                _assert_equivalent(schedule, label=f"{case.name}/{name}")
                compared += 1
    assert compared >= 500


def test_paper_experiments_byte_identical():
    """All bundled experiments, clean and verification-error-free."""
    for spec in paper_experiments():
        application, clustering = spec.build()
        architecture = Architecture.m1(spec.fb)
        for name, schedule in _schedules_of(
            application, clustering, architecture
        ):
            reference, templated = _assert_equivalent(
                schedule, label=f"{spec.id}/{name}"
            )
            # Clean programs take the vectorized early exit.
            assert fast_violation_free(templated)
            verify_program(templated)
            verify_program(reference)


def _single_visit_schedule():
    builder = Application.build("single_visit", total_iterations=1)
    builder.data("a", 8)
    builder.data("y", 8)
    builder.kernel("k", context_words=16, cycles=4,
                   inputs=["a"], outputs=["y"])
    builder.final("y")
    application = builder.finish()
    clustering = Clustering(application, [["k"]])
    return CompleteDataScheduler(Architecture.m1("2K")).schedule(
        application, clustering
    )


def _compute_only_schedule():
    """A kernel with no inputs: the visit has no data loads at all."""
    builder = Application.build("compute_only", total_iterations=3)
    builder.data("z", 8)
    builder.kernel("g", context_words=16, cycles=4, inputs=[],
                   outputs=["z"])
    builder.final("z")
    application = builder.finish()
    clustering = Clustering(application, [["g"]])
    return CompleteDataScheduler(Architecture.m1("2K")).schedule(
        application, clustering
    )


def test_single_visit_program():
    schedule = _single_visit_schedule()
    _, templated = _assert_equivalent(schedule, label="single")
    assert len(templated.visits) == 1
    assert fast_violation_free(templated)


def test_compute_only_program():
    schedule = _compute_only_schedule()
    _, templated = _assert_equivalent(schedule, label="compute_only")
    assert all(not visit.data_loads for visit in templated.visits)


def test_broken_schedule_identical_violations():
    """Dirty programs must fall back to the reference replay: same
    ordered violation list and the same first-violation error."""
    import dataclasses

    for spec in paper_experiments()[:3]:
        application, clustering = spec.build()
        schedule = CompleteDataScheduler(Architecture.m1(spec.fb)).schedule(
            application, clustering
        )
        # Drop the last cluster's stores: final outputs go missing and
        # later loads of shared results dangle.
        plans = list(schedule.cluster_plans)
        broken_plan = dataclasses.replace(plans[-1], stores=())
        broken = dataclasses.replace(
            schedule, cluster_plans=tuple(plans[:-1]) + (broken_plan,)
        )
        reference, templated = _assert_equivalent(
            broken, label=f"{spec.id}/broken"
        )
        violations = list(iter_program_violations(reference))
        assert violations, f"{spec.id}: broken schedule verified clean"
        assert not fast_violation_free(templated)
        with pytest.raises(ProgramVerificationError) as via_templated:
            verify_program(templated)
        with pytest.raises(ProgramVerificationError) as via_reference:
            verify_program(reference)
        assert str(via_templated.value) == str(via_reference.value)
        assert str(via_templated.value) == violations[0].message


def test_template_visits_sequence_protocol():
    big = paper_experiments()[0]
    application, clustering = big.build()
    schedule = CompleteDataScheduler(Architecture.m1(big.fb)).schedule(
        application, clustering
    )
    templated = generate_program(schedule)
    reference = reference_generate_program(schedule)
    visits = templated.visits
    assert len(visits) == len(reference.visits)
    # Slices are plain tuples so callers can splice mutated visits.
    assert isinstance(visits[1:3], tuple)
    assert visits[1:3] == reference.visits[1:3]
    assert visits[0] == reference.visits[0]
    assert visits[-1] == reference.visits[-1]
    spliced = visits[:1] + (visits[1],) + visits[2:]
    assert spliced == tuple(reference.visits)
    # Value semantics match the tuple the reference produces.
    assert visits == tuple(reference.visits)
    assert tuple(reference.visits) == visits
    assert hash(visits) == hash(tuple(reference.visits))
    assert list(iter(visits)) == list(reference.visits)


def test_template_visits_pickle_round_trip():
    schedule = _single_visit_schedule()
    templated = generate_program(schedule)
    reference = reference_generate_program(schedule)
    restored = pickle.loads(pickle.dumps(templated))
    # Transported programs are indistinguishable from reference ones.
    assert isinstance(restored.visits, tuple)
    assert restored == reference
    assert pickle.dumps(restored) == pickle.dumps(reference)


def test_fast_verify_does_not_materialize():
    """The fast verifier reads templates directly: a clean program is
    verified without ever stamping its visit ops."""
    big = paper_experiments()[0]
    application, clustering = big.build()
    schedule = CompleteDataScheduler(Architecture.m1(big.fb)).schedule(
        application, clustering
    )
    templated = generate_program(schedule)
    assert len(templated.visits) > 0          # count needs no stamping
    assert fast_violation_free(templated)
    verify_program(templated)
    assert templated.visits._ops is None, "fast verify materialized ops"


def test_generate_program_is_templated_and_takes_no_engine():
    """One product generator: always templated, no backend switch."""
    schedule = _single_visit_schedule()
    with pytest.raises(TypeError):
        generate_program(schedule, engine="reference")
    program = generate_program(schedule)
    assert isinstance(program.visits, TemplateVisits)
    assert isinstance(reference_generate_program(schedule).visits, tuple)
