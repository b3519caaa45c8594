"""Templated lowering vs. the op walk, column by column.

A templated program is lowered block by block from its templates
(:mod:`repro.dataflow.blocks`); the op walk
(:func:`repro.dataflow.opwalk.lower_ops`) replays the materialised ops one
by one.  The two must fill equal columns — every value, type and
length — with and without allocations, over Table 1 under the three
schedulers, 30 corpus seeds and every fuzz regime.  The templated
lowering must not materialise the ops, and a planted off-by-one in one
block must be caught.
"""

import dataclasses

import numpy as np
import pytest

import repro.dataflow.blocks as blocks_module
from repro.alloc.allocator import FrameBufferAllocator
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.codegen.templated import TemplateVisits
from repro.dataflow.analyzer import analyze_program, build_ir, emit_hazards
from repro.dataflow.ir import lower_program
from repro.dataflow.opwalk import lower_ops
from repro.dataflow.reference import ir_mismatch, lowering_mismatch
from repro.errors import ReproError
from repro.fuzz.generator import generate_case, regime_names
from repro.obs.metrics import request_scope
from repro.schedule import SCHEDULERS
from repro.schedule.context_scheduler import DmaPolicy
from repro.workloads.random_gen import random_application
from repro.workloads.spec import paper_experiments

from tests.dataflow.test_hazard_golden import _planted

CORPUS_SEEDS = range(30)


def _schedules():
    """``(label, schedule)`` over Table 1 x schedulers, the corpus seeds
    (16K, 48 iterations, CDS) and the fuzz regime matrix."""
    cases = []
    for spec in paper_experiments():
        application, clustering = spec.build()
        for name in ("basic", "ds", "cds"):
            cases.append((f"{spec.id}/{name}", application, clustering,
                          Architecture.m1(spec.fb), name))
    for seed in CORPUS_SEEDS:
        application, clustering = random_application(seed, iterations=48)
        cases.append((f"random-{seed}/cds", application, clustering,
                      Architecture.m1("16K"), "cds"))
    for regime in regime_names():
        for seed in range(3):
            case = generate_case(regime, seed)
            application, clustering = case.build()
            for name in ("basic", "ds", "cds"):
                cases.append((f"{case.name}/{name}", application, clustering,
                              case.architecture(), name))
    for label, application, clustering, architecture, name in cases:
        try:
            schedule = SCHEDULERS[name](architecture).schedule(
                application, clustering
            )
        except ReproError:
            continue
        yield label, schedule


SCHEDULES = list(_schedules())


def _templated(schedule):
    program = generate_program(schedule)
    assert isinstance(program.visits, TemplateVisits)
    return program


def test_workload_matrix_is_wide():
    labels = [label for label, _ in SCHEDULES]
    assert len(labels) >= 36 + 25 + 3 * len(regime_names())
    assert any(label.startswith("random-") for label in labels)


@pytest.mark.parametrize("placed", (True, False), ids=("alloc", "no-alloc"))
def test_templated_lowering_equals_op_walk(placed):
    for label, schedule in SCHEDULES:
        program = _templated(schedule)
        allocations = (
            FrameBufferAllocator(schedule).allocate() if placed else None
        )
        blocks = lower_program(program, allocations)
        # The block lowering never materialised the ops.
        assert program.visits._ops is None, label
        walked = lower_ops(program, allocations)
        assert ir_mismatch(blocks, walked) is None, label


def test_templated_lowering_counts_blocks():
    _, schedule = SCHEDULES[0]
    program = _templated(schedule)
    with request_scope(merge_into_global=False) as registry:
        lower_program(program, FrameBufferAllocator(schedule).allocate())
    blocks = registry.snapshot()["counters"]["analysis/blocks"]
    templates = program.visits.templates
    per_round = sum(
        1 + len(t.loads) + len(t.compute) + len(t.stores) for t in templates
    )
    assert blocks == per_round * schedule.rounds


def test_irregular_blocks_fall_back_to_the_op_walk(monkeypatch):
    """A templated program whose blocks do not resolve uniformly is
    lowered by the op walk instead."""
    _, schedule = SCHEDULES[0]
    program = _templated(schedule)
    allocations = FrameBufferAllocator(schedule).allocate()
    expected = lower_program(program, allocations)

    def irregular(*args):
        raise blocks_module._Irregular

    monkeypatch.setattr(blocks_module, "_lower_blocks", irregular)
    assert program.visits._ops is None
    fallback = lower_program(program, allocations)
    assert program.visits._ops is not None
    assert ir_mismatch(fallback, expected) is None


def _plant(monkeypatch, column, shift):
    """Shift *column* by *shift* over the values (or rows) one block of
    the block lowering defines."""
    real = blocks_module._lower_blocks

    def planted(program, visits, allocations):
        lowered = real(program, visits, allocations)
        starts = lowered.group_starts
        # The first kernel block of the last visit: its node range.
        first = int(starts[-3])
        block = int(lowered.visit_iters[-1])
        owner = lowered.val_def if column.startswith("val_") else (
            lowered.acc_node
        )
        hit = (owner >= first) & (owner < first + block)
        values = getattr(lowered, column).copy()
        values[hit] += shift
        setattr(lowered, column, values)
        return lowered

    monkeypatch.setattr(blocks_module, "_lower_blocks", planted)


@pytest.mark.parametrize("column", ("val_release", "acc_value"))
def test_planted_off_by_one_is_caught(column, monkeypatch):
    _plant(monkeypatch, column, 1)
    caught = 0
    for label, schedule in SCHEDULES[:36]:
        program = _templated(schedule)
        allocations = FrameBufferAllocator(schedule).allocate()
        mismatch = lowering_mismatch(program, allocations)
        if mismatch is not None:
            assert mismatch.startswith(column), (label, mismatch)
            caught += 1
    assert caught >= 30


def test_analysis_of_clean_corpus_program_never_materialises():
    application, clustering = random_application(0, iterations=48)
    schedule = SCHEDULERS["cds"](Architecture.m1("16K")).schedule(
        application, clustering
    )
    program = _templated(schedule)
    collector = analyze_program(program)
    assert not collector.diagnostics
    assert program.visits._ops is None


def _plain(item):
    """Every field of a lazy-view object (recursively) is a plain Python
    int, bool, str, tuple, list or Extent-like dataclass."""
    if isinstance(item, np.generic):
        return False
    if isinstance(item, (bool, int, str, type(None))):
        return True
    if isinstance(item, (tuple, list)):
        return all(_plain(entry) for entry in item)
    if dataclasses.is_dataclass(item):
        return all(_plain(getattr(item, f.name))
                   for f in dataclasses.fields(item) if f.name != "op")
    return False


def test_lazy_views_are_plain_python():
    label, schedule = SCHEDULES[0]
    program = _templated(schedule)
    ir = lower_program(program, FrameBufferAllocator(schedule).allocate())
    for view in (ir.nodes, ir.values, ir.visit_nodes):
        assert all(_plain(item) for item in view), label


def test_every_emit_detail_is_plain_python(e1_cds_program):
    """Emits of all five codes — E1's planted bugs plus the unsound
    policies — carry plain Python values only (the JSON report must
    serialise them exactly as before)."""
    codes = set()

    def emit(code, message, *, location, cost_words, **details):
        codes.add(code)
        assert _plain([code, message, location, cost_words]), code
        assert all(_plain(value) for value in details.values()), (
            code, details
        )

    irs = [ir for _, ir in _planted(e1_cds_program)]
    irs.append(build_ir(e1_cds_program))
    for ir in irs:
        for policy in DmaPolicy:
            emit_hazards(ir, emit, policy=policy)
    assert codes == {"HAZ001", "HAZ002", "HAZ003", "DFA001", "DFA002"}
