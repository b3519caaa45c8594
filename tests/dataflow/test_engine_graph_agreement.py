"""The simulator's DMA issue order versus the happens-before graph.

The hazard passes reason about timing through
:class:`~repro.dataflow.hazards.HappensBefore` alone, so its channel
positions and gates must describe what the simulator actually does:

* the traced simulator's transfers, ordered by start, map one-to-one
  and in order onto ``HappensBefore.channel_pos`` (transfer label <->
  IR node);
* every transfer starts at or after the compute end of the visit its
  ``rel`` entry names as its gate;
* every data load starts at or after the compute end of the previous
  visit on its frame-buffer set (the set has drained).

Checked for every Table-1 experiment, all three schedulers and every
DMA policy.
"""

from functools import lru_cache

import pytest

from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.dataflow.analyzer import build_ir
from repro.dataflow.hazards import HappensBefore
from repro.dataflow.ir import CONTEXT_LOAD, DATA_LOAD
from repro.schedule.basic import BasicScheduler
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.context_scheduler import DmaPolicy
from repro.schedule.data_scheduler import DataScheduler
from repro.sim.engine import Simulator
from repro.workloads.spec import paper_experiments

SCHEDULERS = {
    "basic": BasicScheduler,
    "ds": DataScheduler,
    "cds": CompleteDataScheduler,
}
SPECS = {spec.id: spec for spec in paper_experiments()}


@lru_cache(maxsize=None)
def lowered(spec_id, scheduler):
    """``(architecture, program, ir)`` of one experiment row."""
    spec = SPECS[spec_id]
    application, clustering = spec.build()
    architecture = Architecture.m1(spec.fb)
    schedule = SCHEDULERS[scheduler](architecture).schedule(
        application, clustering
    )
    program = generate_program(schedule)
    return architecture, program, build_ir(program)


def transfer_label(node):
    """The simulator's trace label of the transfer an IR node models."""
    op = node.op
    if node.kind == CONTEXT_LOAD:
        return f"ctx:{op.kernel}@v{node.visit_index}"
    prefix = "ld" if node.kind == DATA_LOAD else "st"
    return f"{prefix}:{op.name}#{op.iteration}@v{node.visit_index}"


@pytest.mark.parametrize("policy", list(DmaPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("spec_id", sorted(SPECS))
def test_engine_walks_the_graph_issue_order(spec_id, scheduler, policy):
    architecture, program, ir = lowered(spec_id, scheduler)
    report = Simulator(
        MorphoSysM1(architecture), dma_policy=policy, trace=True,
        verify=False,
    ).run(program)
    hb = HappensBefore.build(ir, policy)

    transfers = sorted(report.transfers, key=lambda t: t.start)
    by_pos = sorted(hb.channel_pos, key=hb.channel_pos.__getitem__)
    assert [t.label for t in transfers] == [
        transfer_label(ir.node(node)) for node in by_pos
    ]

    compute_end = [timing.compute_end for timing in report.visits]
    set_free = [0] * len(report.visits)
    last_end = {}
    for timing in report.visits:
        set_free[timing.index] = last_end.get(timing.fb_set, 0)
        last_end[timing.fb_set] = timing.compute_end
    for pos, (transfer, node_id) in enumerate(zip(transfers, by_pos)):
        gate = hb.rel[pos]
        if gate >= 0:
            assert transfer.start >= compute_end[gate], (
                f"{transfer.label} starts at {transfer.start}, before "
                f"visit {gate}'s compute end {compute_end[gate]}"
            )
        node = ir.node(node_id)
        if node.kind == DATA_LOAD:
            assert transfer.start >= set_free[node.visit_index], (
                f"{transfer.label} starts before its set drained"
            )
