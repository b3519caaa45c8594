"""Each hazard pass: clean on healthy programs, sharp on planted bugs."""

import dataclasses

import pytest

from repro.codegen.ops import LoadData
from repro.dataflow.analyzer import analyze_program, analyze_schedule
from repro.dataflow.passes import HAZARD_RULES
from repro.schedule.context_scheduler import DmaPolicy

from tests.dataflow.conftest import build_program, build_schedule


def _codes(collector):
    return sorted({diagnostic.code for diagnostic in collector.diagnostics})


# -- clean paths ----------------------------------------------------------


@pytest.mark.parametrize("scheduler", ["basic", "ds", "cds"])
def test_sound_policies_are_clean(scheduler):
    schedule, _ = build_schedule("E1", scheduler)
    _, collector = analyze_schedule(schedule, policy=DmaPolicy.CONTEXTS_FIRST)
    assert not collector.diagnostics, "\n".join(
        str(d) for d in collector.diagnostics
    )
    assert set(HAZARD_RULES) <= set(collector.rules_checked)


def test_serial_schedule_is_clean_under_every_policy():
    schedule, _ = build_schedule("E1", "basic")
    for policy in DmaPolicy:
        _, collector = analyze_schedule(schedule, policy=policy)
        assert not collector.diagnostics


# -- HAZ001: races --------------------------------------------------------


def test_loads_first_policy_races(e1_ds_program):
    collector = analyze_program(
        e1_ds_program, policy=DmaPolicy.LOADS_FIRST
    )
    races = [d for d in collector.diagnostics if d.code == "HAZ001"]
    assert races
    assert all(d.severity.value == "error" for d in races)
    assert all(d.cost_words > 0 for d in races)
    assert any("LOADS_FIRST" in d.message for d in races)


def test_adaptive_policy_is_not_placement_sound(e1_ds_program):
    """ADAPTIVE reorders without consulting placement: HAZ001 catches
    the overlap the capacity argument alone cannot exclude."""
    collector = analyze_program(e1_ds_program, policy=DmaPolicy.ADAPTIVE)
    assert "HAZ001" in _codes(collector)


# -- HAZ002: live-range interference --------------------------------------


def test_overlapping_placements_interfere(e1_cds_program):
    """A load injected over words the allocator gave to another live
    value must be reported as interference."""
    program = e1_cds_program
    keep = next(
        keep for keep in program.schedule.keeps
        if getattr(keep, "invariant", False)
    )
    for index, ops in enumerate(program.visits):
        visit = ops.visit
        if visit.fb_set == keep.fb_set and visit.cluster_index == max(
            keep.span
        ):
            extra = LoadData(keep.name, visit.iterations[0], 8, visit.fb_set)
            mutated_ops = dataclasses.replace(
                ops, data_loads=ops.data_loads + (extra,)
            )
            visits = (
                program.visits[:index] + (mutated_ops,)
                + program.visits[index + 1:]
            )
            break
    mutated = dataclasses.replace(program, visits=visits)
    collector = analyze_program(mutated)
    assert "HAZ002" in _codes(collector)


# -- DFA001: dead transfers -----------------------------------------------


def test_duplicated_load_is_dead_traffic(e1_cds_program):
    program = e1_cds_program
    for index, ops in enumerate(program.visits):
        if ops.data_loads:
            dup = ops.data_loads[0]
            mutated_ops = dataclasses.replace(
                ops, data_loads=(dup,) + ops.data_loads
            )
            visits = (
                program.visits[:index] + (mutated_ops,)
                + program.visits[index + 1:]
            )
            break
    mutated = dataclasses.replace(program, visits=visits)
    collector = analyze_program(mutated)
    dead = [d for d in collector.diagnostics if d.code == "DFA001"]
    assert len(dead) == 1
    assert dead[0].cost_words == dup.words
    assert dead[0].severity.value == "warning"
    assert dup.name in dead[0].message


# -- DFA002: retention liveness -------------------------------------------


def test_unread_retention_is_reported(e1_cds_program):
    """Dropping the consumer cluster's compute leaves every keep's
    survivors unread: the claimed traffic saving is never realised."""
    program = e1_cds_program
    schedule = program.schedule
    assert schedule.keeps
    visits = tuple(
        dataclasses.replace(ops, compute=())
        if ops.visit.cluster_index == 2
        else ops
        for ops in program.visits
    )
    mutated = dataclasses.replace(program, visits=visits)
    collector = analyze_program(mutated)
    retention = [d for d in collector.diagnostics if d.code == "DFA002"]
    assert retention
    assert all(d.cost_words > 0 for d in retention)
    flagged = {d.details["object"] for d in retention}
    kept_in_cluster2 = {
        keep.name for keep in schedule.keeps if max(keep.span) == 2
    }
    assert flagged == kept_in_cluster2


# -- HAZ003: capacity over time -------------------------------------------


def test_cm_block_over_capacity(e1_cds_program):
    tiny = dataclasses.replace(
        e1_cds_program.schedule, context_block_words=1
    )
    program = dataclasses.replace(e1_cds_program, schedule=tiny)
    collector = analyze_program(program)
    over = [d for d in collector.diagnostics if d.code == "HAZ003"]
    assert over
    assert all("CM block" in d.message for d in over)


def test_loads_first_overlap_window_blows_the_budget(e1_ds_program):
    collector = analyze_program(
        e1_ds_program, policy=DmaPolicy.LOADS_FIRST
    )
    windows = [
        d for d in collector.diagnostics
        if d.code == "HAZ003" and "overlap window" in d.message
    ]
    assert windows
    assert all(d.cost_words > 0 for d in windows)
