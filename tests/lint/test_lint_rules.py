"""One deliberately-broken artifact per lint rule.

Every test corrupts exactly one aspect of an otherwise-valid pipeline
artifact and asserts that the corresponding rule code fires (other
codes may fire too — a corruption is usually visible from several
angles — so tests assert membership, not equality).
"""

import dataclasses

import pytest

from repro.alloc.allocator import FrameBufferAllocator
from repro.arch.frame_buffer import Extent
from repro.codegen.generator import generate_program
from repro.codegen.verifier import collect_program_violations
from repro.core.dataflow import analyze_dataflow
from repro.core.reuse import SharedData
from repro.lint import LintContext, run_passes

from tests.lint.util import (
    cds_schedule,
    codes_of,
    lint_app_only,
    lint_full,
    lint_schedule_layers,
    mini_app,
    raw_application,
    raw_kernel,
    raw_object,
    replace_plan,
)


# -- application layer ----------------------------------------------------

def test_app001_consumer_before_producer():
    kernels = [
        raw_kernel("k1", inputs=("x",), outputs=("x2",)),
        raw_kernel("k2", inputs=("d",), outputs=("x",)),
    ]
    objects = {name: raw_object(name, 16) for name in ("x", "x2", "d")}
    collector = lint_app_only(
        raw_application(kernels, objects, finals=("x2",))
    )
    assert "APP001" in codes_of(collector)


def test_app002_undeclared_reference():
    kernels = [raw_kernel("k1", inputs=("ghost",), outputs=("out",))]
    objects = {"out": raw_object("out", 16)}
    collector = lint_app_only(
        raw_application(kernels, objects, finals=("out",))
    )
    assert "APP002" in codes_of(collector)


def test_app002_unused_object_and_missing_final():
    kernels = [raw_kernel("k1", inputs=("d",), outputs=("out",))]
    objects = {
        "d": raw_object("d", 16),
        "out": raw_object("out", 16),
        "orphan": raw_object("orphan", 16),
    }
    collector = lint_app_only(
        raw_application(kernels, objects, finals=("out", "nothing"))
    )
    messages = [d.message for d in collector.diagnostics]
    assert any("orphan" in m for m in messages)
    assert any("nothing" in m for m in messages)
    assert codes_of(collector) == {"APP002"}


def test_app003_dead_store_is_a_warning():
    kernels = [raw_kernel("k1", inputs=("d",), outputs=("out", "waste"))]
    objects = {
        "d": raw_object("d", 16),
        "out": raw_object("out", 16),
        "waste": raw_object("waste", 24),
    }
    collector = lint_app_only(
        raw_application(kernels, objects, finals=("out",))
    )
    dead = [d for d in collector.diagnostics if d.code == "APP003"]
    assert len(dead) == 1
    assert dead[0].severity.value == "warning"
    assert dead[0].cost_words == 24


def test_app004_double_producer_and_invariant_result():
    kernels = [
        raw_kernel("k1", inputs=("d",), outputs=("x",)),
        raw_kernel("k2", inputs=("x",), outputs=("x", "inv")),
    ]
    objects = {
        "d": raw_object("d", 16),
        "x": raw_object("x", 16),
        "inv": raw_object("inv", 16, invariant=True),
    }
    collector = lint_app_only(
        raw_application(kernels, objects, finals=("inv",))
    )
    app004 = [d.message for d in collector.diagnostics if d.code == "APP004"]
    assert any("single assignment" in m for m in app004)
    assert any("iteration-invariant" in m for m in app004)


def test_app004_nonpositive_size():
    kernels = [raw_kernel("k1", inputs=("d",), outputs=("out",))]
    objects = {"d": raw_object("d", 0), "out": raw_object("out", 16)}
    collector = lint_app_only(
        raw_application(kernels, objects, finals=("out",))
    )
    assert "APP004" in codes_of(collector)


def test_app005_nonpositive_contexts():
    kernels = [
        raw_kernel("k1", context_words=0, inputs=("d",), outputs=("out",))
    ]
    objects = {"d": raw_object("d", 16), "out": raw_object("out", 16)}
    collector = lint_app_only(
        raw_application(kernels, objects, finals=("out",))
    )
    assert "APP005" in codes_of(collector)


def test_app006_stale_dataflow():
    application, clustering = mini_app()
    dataflow = analyze_dataflow(application, clustering)
    # Same topology, one size changed: the dataflow no longer matches.
    changed = (
        type(application).build("mini2", total_iterations=8)
        .data("d1", 64).data("d2", 48).data("tbl", 96, invariant=True)
        .kernel("k1", context_words=16, cycles=200,
                inputs=["d1", "tbl"], outputs=["r1"],
                result_sizes={"r1": 40})
        .kernel("k2", context_words=16, cycles=200,
                inputs=["r1", "d2"], outputs=["r2"],
                result_sizes={"r2": 40})
        .kernel("k3", context_words=16, cycles=200,
                inputs=["r2", "r1", "tbl"], outputs=["out"],
                result_sizes={"out": 32})
        .final("out").finish()
    )
    context = LintContext(
        application=changed,
        clustering=clustering,
        dataflow=dataflow,
    )
    collector = run_passes(context, layers=("application",))
    assert "APP006" in codes_of(collector)
    assert any(d.cost_words == 64 for d in collector.diagnostics
               if d.code == "APP006")


# -- schedule layer -------------------------------------------------------

def test_sched001_occupancy_over_capacity():
    schedule = cds_schedule()
    broken = replace_plan(
        schedule, 0, peak_occupancy=schedule.fb_set_words + 100
    )
    collector = lint_schedule_layers(broken)
    assert "SCHED001" in codes_of(collector)
    over = [d for d in collector.diagnostics if d.code == "SCHED001"]
    assert over[0].cost_words == 100


def test_sched002_occupancy_mismatch():
    schedule = cds_schedule()
    broken = replace_plan(
        schedule, 0, peak_occupancy=schedule.cluster_plans[0].peak_occupancy - 8
    )
    collector = lint_schedule_layers(broken)
    codes = codes_of(collector)
    assert "SCHED002" in codes
    assert "SCHED001" not in codes


def test_sched003_dropped_load():
    schedule = cds_schedule()
    plan = schedule.cluster_plans[0]
    assert plan.loads
    broken = replace_plan(schedule, 0, loads=plan.loads[1:])
    assert "SCHED003" in codes_of(lint_schedule_layers(broken))


def test_sched003_kept_input_without_keep():
    schedule = cds_schedule()
    plan = schedule.cluster_plans[1]
    moved = plan.loads[0]
    broken = replace_plan(
        schedule, 1,
        loads=plan.loads[1:],
        kept_inputs=plan.kept_inputs + (moved,),
    )
    found = [d for d in lint_schedule_layers(broken).diagnostics
             if d.code == "SCHED003"]
    assert any("no keep decision serves" in d.message for d in found)


def test_sched004_double_load():
    schedule = cds_schedule()
    plan = schedule.cluster_plans[0]
    broken = replace_plan(schedule, 0, loads=plan.loads + (plan.loads[0],))
    found = [d for d in lint_schedule_layers(broken).diagnostics
             if d.code == "SCHED004"]
    assert any("twice in the load list" in d.message for d in found)


def test_sched004_load_of_non_input():
    schedule = cds_schedule()
    plan = schedule.cluster_plans[0]
    broken = replace_plan(schedule, 0, loads=plan.loads + ("out",))
    found = [d for d in lint_schedule_layers(broken).diagnostics
             if d.code == "SCHED004"]
    assert any("not an input" in d.message for d in found)


def test_sched005_missing_store():
    schedule = cds_schedule()
    index = next(
        plan.cluster_index for plan in schedule.cluster_plans if plan.stores
    )
    broken = replace_plan(schedule, index, stores=())
    assert "SCHED005" in codes_of(lint_schedule_layers(broken))


def test_sched006_double_store_and_foreign_store():
    schedule = cds_schedule()
    index = next(
        plan.cluster_index for plan in schedule.cluster_plans if plan.stores
    )
    plan = schedule.cluster_plans[index]
    broken = replace_plan(
        schedule, index, stores=plan.stores + (plan.stores[0], "d1")
    )
    found = [d for d in lint_schedule_layers(broken).diagnostics
             if d.code == "SCHED006"]
    assert any("double store" in d.message for d in found)
    assert any("not produced" in d.message for d in found)


def test_sched007_pointless_keep():
    schedule = cds_schedule()
    pointless = SharedData(
        name="d2", size=48, fb_set=1, clusters=(1,), invariant=False
    )
    broken = dataclasses.replace(
        schedule, keeps=schedule.keeps + (pointless,)
    )
    found = [d for d in lint_schedule_layers(broken).diagnostics
             if d.code == "SCHED007"]
    assert found and found[0].severity.value == "warning"


def test_sched008_keep_size_mismatch():
    schedule = cds_schedule()
    keeps = tuple(
        dataclasses.replace(keep, size=keep.size + 7)
        if isinstance(keep, SharedData) else keep
        for keep in schedule.keeps
    )
    broken = dataclasses.replace(schedule, keeps=keeps)
    found = [d for d in lint_schedule_layers(broken).diagnostics
             if d.code == "SCHED008"]
    assert any("the dataflow says" in d.message for d in found)


def test_sched008_keep_with_no_consumers():
    schedule = cds_schedule()
    empty = SharedData(
        name="tbl", size=32, fb_set=0, clusters=(), invariant=True
    )
    broken = dataclasses.replace(schedule, keeps=schedule.keeps + (empty,))
    found = [d for d in lint_schedule_layers(broken).diagnostics
             if d.code == "SCHED008"]
    assert any("no consumer clusters" in d.message for d in found)


def test_sched009_rf_below_achievable():
    schedule = cds_schedule()
    assert schedule.rf > 1
    broken = dataclasses.replace(schedule, rf=1)
    found = [d for d in lint_schedule_layers(broken).diagnostics
             if d.code == "SCHED009"]
    assert found and found[0].severity.value == "warning"
    assert found[0].cost_words > 0


def test_sched010_rf_above_iterations():
    schedule = cds_schedule()
    broken = dataclasses.replace(
        schedule, rf=schedule.application.total_iterations + 3
    )
    assert "SCHED010" in codes_of(lint_schedule_layers(broken))


def test_sched011_wrong_fb_set():
    schedule = cds_schedule()
    plan = schedule.cluster_plans[0]
    broken = replace_plan(schedule, 0, fb_set=1 - plan.fb_set)
    assert "SCHED011" in codes_of(lint_schedule_layers(broken))


def test_sched011_wrong_cluster_index():
    schedule = cds_schedule()
    plans = list(schedule.cluster_plans)
    plans[0], plans[1] = plans[1], plans[0]
    broken = dataclasses.replace(schedule, cluster_plans=tuple(plans))
    assert "SCHED011" in codes_of(lint_schedule_layers(broken))


def test_sched012_contexts_exceed_block():
    schedule = cds_schedule()
    broken = dataclasses.replace(schedule, context_block_words=8)
    assert "SCHED012" in codes_of(lint_schedule_layers(broken))


# -- allocation layer -----------------------------------------------------

def _allocations(schedule):
    return FrameBufferAllocator(schedule).allocate()


def _alloc_context(schedule, allocations):
    return LintContext(
        application=schedule.application,
        clustering=schedule.clustering,
        dataflow=schedule.dataflow,
        schedule=schedule,
        allocations=allocations,
    )


def _replace_record(allocation, index, **changes):
    allocation.records[index] = allocation.records[index]._replace(
        **changes
    )


def test_alloc001_space_time_overlap():
    schedule = cds_schedule()
    set0, set1 = _allocations(schedule)
    victim = set0.records[0]
    clone = victim._replace(instance=victim.instance + 90)
    set0.records.append(clone)
    collector = run_passes(
        _alloc_context(schedule, (set0, set1)), layers=("allocation",)
    )
    assert "ALLOC001" in codes_of(collector)


def test_alloc002_extent_out_of_bounds():
    schedule = cds_schedule()
    set0, set1 = _allocations(schedule)
    _replace_record(
        set0, 0, extents=(Extent(set0.capacity_words - 4, 16),)
    )
    collector = run_passes(
        _alloc_context(schedule, (set0, set1)), layers=("allocation",)
    )
    found = [d for d in collector.diagnostics if d.code == "ALLOC002"]
    assert found and found[0].cost_words == 12


def test_alloc003_wrong_growth_direction():
    schedule = cds_schedule()
    set0, set1 = _allocations(schedule)
    loads = set(schedule.cluster_plans[0].loads)
    index = next(
        i for i, record in enumerate(set0.records)
        if record.cluster_index == 0 and record.name in loads
    )
    flipped = {"high": "low", "low": "high"}[set0.records[index].direction]
    _replace_record(set0, index, direction=flipped)
    collector = run_passes(
        _alloc_context(schedule, (set0, set1)), layers=("allocation",)
    )
    assert "ALLOC003" in codes_of(collector)


def test_alloc004_split_placement():
    schedule = cds_schedule()
    set0, set1 = _allocations(schedule)
    record = set0.records[0]
    extent = record.extents[0]
    assert extent.size >= 2
    half = extent.size // 2
    _replace_record(
        set0, 0,
        extents=(Extent(extent.start, half),
                 Extent(extent.start + half, extent.size - half)),
    )
    found = [
        d for d in run_passes(
            _alloc_context(schedule, (set0, set1)), layers=("allocation",)
        ).diagnostics
        if d.code == "ALLOC004"
    ]
    assert found and found[0].cost_words == extent.size


def test_alloc005_irregular_placement():
    schedule = cds_schedule()
    set0, set1 = _allocations(schedule)
    _replace_record(set0, 0, regular=False)
    collector = run_passes(
        _alloc_context(schedule, (set0, set1)), layers=("allocation",)
    )
    found = [d for d in collector.diagnostics if d.code == "ALLOC005"]
    assert found and found[0].severity.value == "info"


def test_alloc006_peak_over_capacity():
    schedule = cds_schedule()
    set0, set1 = _allocations(schedule)
    set0.capacity_words = set0.peak_words - 1
    collector = run_passes(
        _alloc_context(schedule, (set0, set1)), layers=("allocation",)
    )
    found = [d for d in collector.diagnostics if d.code == "ALLOC006"]
    assert found and found[0].cost_words == 1


def test_alloc007_backwards_lifetime():
    schedule = cds_schedule()
    set0, set1 = _allocations(schedule)
    record = set0.records[0]
    _replace_record(set0, 0, free_step=record.alloc_step)
    collector = run_passes(
        _alloc_context(schedule, (set0, set1)), layers=("allocation",)
    )
    found = [d for d in collector.diagnostics if d.code == "ALLOC007"]
    assert any("not after" in d.message for d in found)


def test_alloc007_simultaneous_duplicate():
    schedule = cds_schedule()
    set0, set1 = _allocations(schedule)
    set0.records.append(set0.records[0])
    collector = run_passes(
        _alloc_context(schedule, (set0, set1)), layers=("allocation",)
    )
    found = [d for d in collector.diagnostics if d.code == "ALLOC007"]
    assert any("two live copies" in d.message for d in found)


# -- program layer --------------------------------------------------------

def _program(schedule):
    return generate_program(schedule)


def _replace_visit(program, index, **changes):
    visits = list(program.visits)
    visits[index] = dataclasses.replace(visits[index], **changes)
    return dataclasses.replace(program, visits=tuple(visits))


def test_prog001_use_before_load():
    program = _program(cds_schedule())
    index = next(i for i, ops in enumerate(program.visits) if ops.data_loads)
    broken = _replace_visit(
        program, index, data_loads=program.visits[index].data_loads[1:]
    )
    violations = collect_program_violations(broken)
    assert any(v.code == "PROG001" for v in violations)


def test_prog002_launch_without_contexts():
    program = _program(cds_schedule())
    broken = _replace_visit(program, 0, context_loads=())
    violations = collect_program_violations(broken)
    assert any(
        v.code == "PROG002" and "without contexts" in v.message
        for v in violations
    )


def test_prog003_store_of_external_data():
    from repro.codegen.ops import StoreData

    program = _program(cds_schedule())
    visit0 = program.visits[0]
    bogus = StoreData(
        name="d1", iteration=0, words=64, fb_set=visit0.visit.fb_set
    )
    broken = _replace_visit(program, 0, stores=visit0.stores + (bogus,))
    violations = collect_program_violations(broken)
    assert any(
        v.code == "PROG003" and "external data" in v.message
        for v in violations
    )


def test_prog004_skipped_iteration():
    program = _program(cds_schedule())
    broken = _replace_visit(
        program, 0, compute=program.visits[0].compute[1:]
    )
    violations = collect_program_violations(broken)
    assert any(
        v.code == "PROG004" and "executed 0 times" in v.message
        for v in violations
    )


def test_prog005_redundant_load():
    program = _program(cds_schedule())
    index = next(i for i, ops in enumerate(program.visits) if ops.data_loads)
    loads = program.visits[index].data_loads
    broken = _replace_visit(
        program, index, data_loads=loads + (loads[0],)
    )
    violations = collect_program_violations(broken)
    found = [v for v in violations if v.code == "PROG005"]
    assert found and found[0].cost_words == loads[0].words


def test_prog006_wrong_fb_set():
    program = _program(cds_schedule())
    visit0 = program.visits[0]
    flipped = dataclasses.replace(
        visit0.visit, fb_set=1 - visit0.visit.fb_set
    )
    broken = _replace_visit(program, 0, visit=flipped)
    violations = collect_program_violations(broken)
    assert any(v.code == "PROG006" for v in violations)


def test_program_pass_reemits_violations():
    schedule = cds_schedule()
    program = _program(schedule)
    index = next(i for i, ops in enumerate(program.visits) if ops.data_loads)
    broken = _replace_visit(
        program, index, data_loads=program.visits[index].data_loads[1:]
    )
    context = LintContext(application=schedule.application, program=broken)
    collector = run_passes(context, layers=("program",))
    assert "PROG001" in codes_of(collector)
    assert collector.has_errors


# -- clean baseline -------------------------------------------------------

def test_mini_app_pipeline_is_clean():
    collector = lint_full(cds_schedule())
    assert not collector.diagnostics
    assert len(collector.rules_checked) >= 10
    # All rule families were exercised.
    prefixes = {code.rstrip("0123456789") for code in collector.rules_checked}
    assert prefixes == {"APP", "SCHED", "ALLOC", "PROG", "HAZ", "DFA"}
