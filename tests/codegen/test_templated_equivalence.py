"""Template-compiled codegen vs. the reference generator: byte-identical.

The template backend (:mod:`repro.codegen.templated`) promises the same
contract the batch compiler does for schedules: ``generate_program``
produces **exactly** the program the eager reference generator
(:func:`repro.codegen.reference.reference_generate_program`) emits —
same visits, same ops in the same order — and the template-level fast
verifier returns exactly the violation list (and first-violation
error) the reference replay does, clean programs and broken ones
alike.  These tests enforce the contract over the fuzz generator
matrix (500+ programs), the paper experiments, hand-built edge cases,
and deliberately broken schedules that force the fast verifier's
reference fallback.
"""

import dataclasses
import pickle

import pytest

from repro.arch.params import Architecture
from repro.codegen.fastverify import fast_violation_free
from repro.codegen.generator import generate_program
from repro.codegen.reference import reference_generate_program
from repro.codegen.templated import ClusterTemplate, TemplateVisits
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
from repro.schedule.base import ScheduleOptions
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
            # Clean programs take the fast verifier's early exit.
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


# -- bitmask edges -----------------------------------------------------------
#
# The fast verifier holds each timeline as one ``int``, bit ``i`` for
# iteration ``i``.  These cases cross machine-word widths (bit 63/64),
# end in a partial round, read invariant operands through the
# instance-0 mask and cross-set keeps through the other set's bits;
# each compares the verdict with the reference replay's.

_BITMASK_ITERATIONS = (1, 63, 64, 65, 4_800)


def _bitmask_schedule(iterations, cross_set):
    """Two clusters on different sets sharing an invariant table and a
    result; with *cross_set* both are kept in set 0 and read from set 1
    in place."""
    application = (
        Application.build("bitmask", total_iterations=iterations)
        .data("d1", 16).data("d2", 16).data("table", 64, invariant=True)
        .kernel("k1", context_words=16, cycles=50, inputs=["d1", "table"],
                outputs=["r1"], result_sizes={"r1": 8})
        .kernel("k2", context_words=16, cycles=50,
                inputs=["d2", "table", "r1"],
                outputs=["out"], result_sizes={"out": 8})
        .final("out")
        .finish()
    )
    architecture = Architecture.m1("1K", fb_cross_set_access=cross_set)
    return CompleteDataScheduler(
        architecture, ScheduleOptions(cross_set_retention=cross_set)
    ).schedule(application, Clustering.per_kernel(application))


def _with_template(program, index, **changes):
    """*program* with template *index*'s tables replaced by *changes*."""
    templates = list(program.visits.templates)
    template = templates[index]
    fields = {
        name: getattr(template, name)
        for name in ("cluster_index", "fb_set", "context_loads", "loads",
                     "compute", "stores")
    }
    fields.update(changes)
    templates[index] = ClusterTemplate(**fields)
    return dataclasses.replace(
        program,
        visits=TemplateVisits(program.schedule, tuple(templates)),
    )


def _template_mutations(program):
    """``(label, program)`` per single-entry template edit: each load
    flipped between per-iteration and instance-0, each instance-0 load
    moved to instance 1, each load dropped, each template's stores
    dropped."""
    for index, template in enumerate(program.visits.templates):
        loads = template.loads
        for position, (name, words, fixed) in enumerate(loads):
            flipped = (name, words, None if fixed else (0,))
            yield f"flip {index}:{name}", _with_template(
                program, index,
                loads=loads[:position] + (flipped,) + loads[position + 1:],
            )
            if fixed:
                moved = (name, words, (1,))
                yield f"instance 1 {index}:{name}", _with_template(
                    program, index,
                    loads=loads[:position] + (moved,) + loads[position + 1:],
                )
            yield f"drop {index}:{name}", _with_template(
                program, index, loads=loads[:position] + loads[position + 1:],
            )
        if template.stores:
            yield f"no stores {index}", _with_template(
                program, index, stores=()
            )


def _assert_verdicts_agree(program, label):
    clean = next(iter_program_violations(program), None) is None
    assert fast_violation_free(program) == clean, label
    return clean


@pytest.mark.parametrize("cross_set", [False, True],
                         ids=["same-set", "cross-set"])
@pytest.mark.parametrize("iterations", _BITMASK_ITERATIONS)
def test_bitmask_edges_agree_with_reference(iterations, cross_set):
    schedule = _bitmask_schedule(iterations, cross_set)
    if iterations > 1:
        # The last round is partial; from 65 iterations on, a window
        # reaches past bit 63.
        assert schedule.rounds >= 2
        last = schedule.rounds - 1
        assert schedule.iterations_in_round(last) < schedule.rf
    if cross_set:
        assert {keep.name: keep.fb_set for keep in schedule.keeps} == {
            "table": 0, "r1": 0,
        }
    program = generate_program(schedule)
    assert _assert_verdicts_agree(program, "clean")
    verdicts = {
        label: _assert_verdicts_agree(mutated, label)
        for label, mutated in _template_mutations(program)
    }
    # Every moved or dropped load and dropped store is caught; a
    # flipped marker is clean only when the window is instance 0 alone.
    assert not any(
        clean for label, clean in verdicts.items() if "flip" not in label
    )
    flips = [clean for label, clean in verdicts.items() if "flip" in label]
    assert all(flips) if iterations == 1 else not any(flips)


@pytest.mark.parametrize("iterations", _BITMASK_ITERATIONS)
def test_bitmask_edges_broken_schedule(iterations):
    """The broken-schedule mutation above, at every edge width."""
    schedule = _bitmask_schedule(iterations, False)
    plans = list(schedule.cluster_plans)
    broken = dataclasses.replace(
        schedule,
        cluster_plans=tuple(plans[:-1]) + (
            dataclasses.replace(plans[-1], stores=()),
        ),
    )
    program = generate_program(broken)
    assert not _assert_verdicts_agree(program, "broken")
    assert generate_program(broken) == reference_generate_program(broken)
