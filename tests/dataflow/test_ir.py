"""Lowering programs into the def-use IR."""

import dataclasses
import gc
import weakref

from repro.alloc.allocator import FrameBufferAllocator
from repro.dataflow.ir import (
    COMPUTE,
    CONTEXT_LOAD,
    DATA_LOAD,
    STORE,
    lower_program,
)

from tests.dataflow.conftest import build_program

_KINDS = {CONTEXT_LOAD, DATA_LOAD, COMPUTE, STORE}


def _lower(program):
    allocations = FrameBufferAllocator(program.schedule).allocate()
    return lower_program(program, allocations=allocations)


def test_node_ids_are_program_order_positions(e1_cds_program):
    ir = _lower(e1_cds_program)
    assert [node.node_id for node in ir.nodes] == list(range(len(ir.nodes)))
    assert all(node.kind in _KINDS for node in ir.nodes)
    # Visit indices are non-decreasing along the node order.
    indices = [node.visit_index for node in ir.nodes]
    assert indices == sorted(indices)


def test_node_counts_match_program_ops(e1_cds_program):
    ir = _lower(e1_cds_program)
    expected = sum(
        len(ops.context_loads) + len(ops.data_loads) + len(ops.compute)
        + len(ops.stores)
        for ops in e1_cds_program.visits
    )
    assert len(ir.nodes) == expected
    assert len(ir.visit_nodes) == len(e1_cds_program.visits)


def test_lifetimes_are_well_formed(e1_cds_program):
    ir = _lower(e1_cds_program)
    assert ir.values
    for value in ir.values:
        assert value.release_pos > value.def_pos
        assert value.end_visit >= value.def_visit
        for use in value.uses:
            assert ir.nodes[use].kind == COMPUTE
            assert use >= value.def_node
        for store in value.store_nodes:
            assert ir.nodes[store].kind == STORE


def test_healthy_program_has_no_dead_values(e1_cds_program):
    ir = _lower(e1_cds_program)
    dead = [
        value for value in ir.values
        if value.def_kind == DATA_LOAD and value.dead
    ]
    assert dead == []


def test_placement_gives_extents(e1_cds_program):
    ir = _lower(e1_cds_program)
    assert ir.has_placement
    placed = [value for value in ir.values if value.extents]
    assert placed
    for value in placed:
        assert sum(extent.size for extent in value.extents) == value.words


def test_dropped_ir_is_freed_without_the_cycle_collector(e1_cds_program):
    """The lazy views are made per access, so the IR holds no reference
    cycle: dropping it frees its columns at once, not at some later
    collection (a corpus op's garbage would otherwise pile up)."""
    ir = _lower(e1_cds_program)
    assert ir.values[0] == list(ir.values)[0]  # the views still work
    assert len(ir.nodes) == len(ir.node_kind)
    ref = weakref.ref(ir)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del ir
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_lowering_without_allocations_degrades(e1_cds_program):
    ir = lower_program(e1_cds_program)
    assert not ir.has_placement
    assert all(not value.extents for value in ir.values)
    # The def-use structure is placement-independent.
    full = _lower(e1_cds_program)
    assert len(ir.values) == len(full.values)
    assert [value.uses for value in ir.values] == [
        value.uses for value in full.values
    ]


def test_kept_values_survive_drains(e1_cds_program):
    schedule = e1_cds_program.schedule
    assert schedule.keeps  # E1's CDS schedule retains shared data
    ir = _lower(e1_cds_program)
    kept_names = {keep.name for keep in schedule.keeps}
    survivors = {
        value.name for value in ir.values if value.survived_drain
    }
    assert survivors and survivors <= kept_names


def test_redundant_load_closes_previous_value(e1_cds_program):
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
    ir = lower_program(mutated)
    clobbered = [
        value for value in ir.values
        if (value.name, value.instance) == (dup.name, dup.iteration)
        and value.def_visit == ops.visit.index
    ]
    assert len(clobbered) == 2
    first, second = sorted(clobbered, key=lambda value: value.def_node)
    assert first.dead  # never read before being overwritten
    assert first.release_pos <= second.def_pos + 1


def test_basic_scheduler_program_lowers_too():
    program, _ = build_program("E1", "basic")
    ir = _lower(program)
    assert ir.values
    assert not program.schedule.overlap_transfers
