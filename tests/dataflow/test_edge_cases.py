"""Analyzer edge cases: degenerate programs, boundary placements,
adaptive-policy happens-before edges."""

import dataclasses

from repro.arch.params import Architecture
from repro.core.application import Application
from repro.core.cluster import Clustering
from repro.dataflow.analyzer import analyze_program, build_ir
from repro.dataflow.hazards import HappensBefore
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.context_scheduler import DmaPolicy

from tests.dataflow.conftest import build_program


# -- degenerate programs --------------------------------------------------


def test_empty_program_analyzes_clean(e1_cds_program):
    empty = dataclasses.replace(e1_cds_program, visits=())
    ir = build_ir(empty)
    assert ir.nodes == []
    assert ir.values == []
    hb = HappensBefore.build(ir)
    assert hb.channel_pos == {}
    collector = analyze_program(empty)
    assert not collector.diagnostics
    assert collector.rules_checked  # the passes did run


def test_single_visit_program():
    """One cluster, one round: the whole application is one visit."""
    application = (
        Application.build("single", total_iterations=2)
        .data("d", 64)
        .kernel("k", context_words=16, cycles=100, inputs=["d"],
                outputs=["out"], result_sizes={"out": 32})
        .final("out")
        .finish()
    )
    clustering = Clustering.per_kernel(application)
    schedule = CompleteDataScheduler(Architecture.m1("8K")).schedule(
        application, clustering
    )
    from repro.codegen.generator import generate_program

    program = generate_program(schedule)
    ir = build_ir(program)
    assert len(ir.visit_nodes) == len(program.visits)
    for policy in DmaPolicy:
        hb = HappensBefore.build(ir, policy)
        assert not hb.loads_first_windows  # nothing to overlap with
        collector = analyze_program(program, policy=policy)
        assert not collector.diagnostics


def test_compute_only_visits(e1_cds_program):
    """Visits stripped of all transfers still lower and analyze."""
    visits = tuple(
        dataclasses.replace(
            ops, context_loads=(), data_loads=(), stores=()
        )
        for ops in e1_cds_program.visits
    )
    bare = dataclasses.replace(e1_cds_program, visits=visits)
    ir = build_ir(bare)
    assert all(node.kind == "compute" for node in ir.nodes)
    hb = HappensBefore.build(ir)
    assert hb.channel_pos == {}
    analyze_program(bare)  # must not crash


# -- placement boundaries -------------------------------------------------


def test_per_cluster_placement_records_are_distinguished():
    """An object consumed by several clusters of the same set has one
    allocation record per consuming cluster; each visit's IR accesses
    must use its own cluster's extents, not another's."""
    program, _ = build_program("ATR-FI", "ds")
    ir = build_ir(program)
    assert ir.has_placement
    by_object = {}
    for value in ir.values:
        if value.extents:
            by_object.setdefault(
                (value.name, value.instance, value.fb_set), set()
            ).add(value.extents)
    multi = [key for key, extents in by_object.items() if len(extents) > 1]
    assert multi, "expected at least one object placed per-cluster"
    collector = analyze_program(program)
    assert not collector.diagnostics  # and none of it interferes


def test_split_extents_cover_value_words():
    """Fragmented placements (multi-extent records) stay consistent."""
    for target in ("ATR-FI", "ATR-SLD"):
        program, _ = build_program(target, "cds")
        ir = build_ir(program)
        for value in ir.values:
            if value.extents:
                covered = sum(extent.size for extent in value.extents)
                assert covered == value.words


# -- adaptive policy ------------------------------------------------------


def test_adaptive_windows_are_a_subset_of_loads_first(e1_ds_program):
    """ADAPTIVE reorders only the windows its capacity proof covers, so
    its loads-before-stores windows are a subset of LOADS_FIRST's."""
    ir = build_ir(e1_ds_program)
    loads_first = HappensBefore.build(ir, DmaPolicy.LOADS_FIRST)
    adaptive = HappensBefore.build(ir, DmaPolicy.ADAPTIVE)
    assert set(adaptive.loads_first_windows) <= set(
        loads_first.loads_first_windows
    )


def test_adaptive_edges_differ_from_contexts_first(e1_ds_program):
    """Where ADAPTIVE hoists loads, the channel order really changes."""
    ir = build_ir(e1_ds_program)
    default = HappensBefore.build(ir, DmaPolicy.CONTEXTS_FIRST)
    adaptive = HappensBefore.build(ir, DmaPolicy.ADAPTIVE)
    assert default.channel_pos.keys() == adaptive.channel_pos.keys()
    if adaptive.loads_first_windows:
        assert default.channel_pos != adaptive.channel_pos
