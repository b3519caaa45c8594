"""Array hazard sweeps vs. their reference loops.

The HAZ001 and HAZ002 passes of :mod:`repro.dataflow.passes` are array
sweeps over address atoms; :mod:`repro.dataflow.reference` keeps the
original interval-map and active-list loops.  These tests drive both
with random access rows and happens-before graphs, random
(deliberately overlapping) placements, and every program of the fuzz
regime matrix and the paper experiments under every DMA policy, and
require identical emits and diagnostics.
"""

import random
from bisect import bisect_left
from itertools import accumulate
from types import SimpleNamespace

import numpy as np
import pytest

import repro.dataflow.passes as passes
from repro.arch.frame_buffer import Extent
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.dataflow.analyzer import analyze_ir, build_ir
from repro.dataflow.hazards import HappensBefore
from repro.dataflow.ir import COMPUTE, KINDS
from repro.dataflow.reference import (
    interference_mismatch,
    race_mismatch,
    reference_check_interference,
    reference_check_races,
)
from repro.errors import InfeasibleScheduleError
from repro.fuzz.generator import generate_case, regime_names
from repro.obs.metrics import request_scope
from repro.schedule import BasicScheduler, CompleteDataScheduler, DataScheduler
from repro.schedule.context_scheduler import DmaPolicy
from repro.workloads.random_gen import random_application
from repro.workloads.spec import paper_experiments

_SCHEDULERS = (BasicScheduler, DataScheduler, CompleteDataScheduler)
_RUN = KINDS.index(COMPUTE)


# -- HAZ001 races -----------------------------------------------------------


def _random_race_ir(rng):
    """Stand-in IR columns and happens-before graph with random rows.

    Rows overlap, touch, repeat (duplicate reads), read and write the
    same words from one node, are empty, and spread over FB and CM
    slots; transfer and compute nodes mix, and the happens-before
    arrays are random.
    """
    nodes = rng.randint(1, 24)
    kinds = [rng.randrange(len(KINDS)) for _ in range(nodes)]
    visits = sorted(rng.randrange(nodes // 3 + 1) for _ in range(nodes))
    rows = ([], [], [], [], [])  # node, slot, start, end, write
    for node in range(nodes):
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            slot = rng.randrange(4)
            start = rng.randint(0, 40)
            end = start + rng.choice((0, 1, 2, 4, 8, 16))
            write = rng.random() < 0.5
            if rows[0] and rng.random() < 0.3:
                # Repeat, flip or extend the previous row.
                _, slot, start, end, write = (
                    column[-1] for column in rows
                )
                choice = rng.randrange(3)
                if choice == 1:
                    write = not write
                elif choice == 2:
                    start, end = end, end + rng.randint(0, 8)
            for column, item in zip(rows, (node, slot, start, end, write)):
                column.append(item)
    transfers = [node for node in range(nodes) if kinds[node] != _RUN]
    positions = rng.sample(range(len(transfers)), len(transfers))
    # Sparse gates and preparations leave some mixed pairs unordered.
    rel = [rng.choice((-1, rng.randint(-1, visits[-1])))
           for _ in transfers]
    lastprep = [rng.choice((-1, rng.randint(-1, len(transfers) - 1)))
                for _ in range(visits[-1] + 1)]
    computes = [node for node in range(nodes) if kinds[node] == _RUN]
    transfer_nodes = [0] * len(transfers)
    for node, position in zip(transfers, positions):
        transfer_nodes[position] = node
    hb = HappensBefore(
        policy=rng.choice(list(DmaPolicy)),
        serial=False,
        transfer_nodes=np.array(transfer_nodes, np.int32),
        rel=np.array(rel, np.int32),
        maxrel=np.array(list(accumulate(rel, max)), np.int32),
        run_nodes=np.array(computes, np.int32),
        run_visits=np.array([visits[node] for node in computes], np.int32),
        lastprep=np.array(lastprep, np.int32),
        maxprep=np.array(list(accumulate(lastprep, max)), np.int32),
        loads_first_windows=(),
    )
    ir = SimpleNamespace(
        node_kind=kinds,
        node_visit=visits,
        acc_node=rows[0],
        acc_slot=rows[1],
        acc_start=rows[2],
        acc_end=rows[3],
        acc_write=rows[4],
        describe=lambda node: f"{KINDS[kinds[node]]} n{node}",
    )
    return ir, hb


@pytest.mark.parametrize("rows, wide", ((60, False), (40_000, True)))
def test_incidences_list_atoms_in_row_order(rows, wide):
    """Atom by atom, rows ascending within an atom: with few breakpoints
    (16-bit radix sort) and with more than 65,536 of them."""
    rng = np.random.default_rng(rows)
    slot = rng.integers(0, 4, rows, dtype=np.int32)
    start = rng.integers(0, 8 * rows, rows, dtype=np.int32)
    end = start + rng.integers(0, 16, rows, dtype=np.int32)
    expected = []
    breakpoints = 0
    for space in range(4):
        members = np.flatnonzero(slot == space).tolist()
        points = sorted({int(x) for r in members for x in (start[r], end[r])})
        breakpoints += len(points)
        for r in members:
            lo = bisect_left(points, start[r])
            expected.extend(
                (space, k, r, points[k + 1] - points[k])
                for k in range(lo, bisect_left(points, end[r]))
            )
    expected.sort()
    assert (breakpoints > 0x10000) == wide
    row, words, first = passes._incidences(slot, start, end)
    assert row.tolist() == [entry[2] for entry in expected]
    assert words.tolist() == [entry[3] for entry in expected]
    start_of = {}
    assert first.tolist() == [
        start_of.setdefault(entry[:2], k) for k, entry in enumerate(expected)
    ]


@pytest.mark.parametrize("seed", range(400))
def test_race_pass_matches_reference(seed):
    assert race_mismatch(*_random_race_ir(random.Random(seed))) is None


def test_race_stand_ins_race_both_ways():
    """The stand-ins reach the emit loop, reversed and unordered."""
    found = set()
    for seed in range(50):
        ir, hb = _random_race_ir(random.Random(seed))
        passes.check_races(
            ir, hb,
            lambda *args, **kwargs: found.add(kwargs["reversed_order"]),
        )
    assert found == {False, True}


@pytest.mark.parametrize("iterations", (48, 2400))
def test_race_incidences_grow_linearly(iterations):
    """Atoms stay few per row as the round count grows, so the sweep
    stays linear in the access rows."""
    application, clustering = random_application(3, iterations=iterations)
    schedule = CompleteDataScheduler(Architecture.m1("16K")).schedule(
        application, clustering
    )
    ir = build_ir(generate_program(schedule))
    with request_scope(merge_into_global=False) as registry:
        passes.check_races(ir, HappensBefore.build(ir), lambda *a, **k: None)
    counters = registry.snapshot()["counters"]
    assert counters["analysis/rows"] == len(ir.acc_node)
    assert 0 < counters["analysis/incidences"] <= 4 * len(ir.acc_node)


# -- HAZ002 sweep ---------------------------------------------------------


def _random_interference_ir(rng):
    """A stand-in IR with random, frequently overlapping placements:
    multi-span values, spans overlapping their own value's, and
    releases before definitions."""
    values = []
    for value_id in range(rng.randint(0, 24)):
        extents = [
            Extent(rng.randint(0, 96), rng.randint(1, 32))
            for _ in range(rng.choice((0, 1, 1, 1, 2, 3)))
        ]
        if extents and rng.random() < 0.3:
            # Split one span into touching pieces, as a multi-block
            # placement would be.
            span = extents.pop(rng.randrange(len(extents)))
            cut = span.start
            while cut < span.end:
                size = min(rng.randint(1, 8), span.end - cut)
                extents.append(Extent(cut, size))
                cut += size
            rng.shuffle(extents)
        extents = tuple(extents)
        def_node = rng.randint(0, 30)
        values.append(SimpleNamespace(
            name=f"v{value_id}",
            instance=rng.randint(0, 2),
            fb_set=rng.randint(0, 1),
            extents=extents,
            def_pos=2 * def_node,
            def_visit=def_node // 4,
            release_pos=2 * def_node + rng.randint(-2, 24),
        ))
    return SimpleNamespace(has_placement=True, values=values)


@pytest.mark.parametrize("seed", range(400))
def test_interference_sweep_matches_reference(seed):
    ir = _random_interference_ir(random.Random(seed))
    assert interference_mismatch(ir) is None


def test_interference_sweep_reports_overlapping_placements():
    ir = SimpleNamespace(has_placement=True, values=[
        SimpleNamespace(name=name, instance=0, fb_set=0, extents=extents,
                        def_pos=pos, def_visit=0, release_pos=99)
        for name, extents, pos in (
            ("a", (Extent(0, 64),), 0),
            ("b", (Extent(60, 2),), 2),
            ("c", (Extent(10, 4), Extent(61, 4)), 4),
        )
    ])
    emitted = []
    passes.check_interference(
        ir, lambda *args, **kwargs: emitted.append(kwargs["cost_words"])
    )
    # b meets a; c meets a on 4 + 3 words and b on 1.
    assert emitted == [2, 7, 1]
    assert interference_mismatch(ir) is None


# -- whole programs under every policy ------------------------------------


def _programs():
    """(label, program) over the fuzz matrix and the paper experiments."""
    for regime in regime_names():
        for seed in range(6):
            case = generate_case(regime, seed)
            application, clustering = case.build()
            architecture = case.architecture()
            for cls in _SCHEDULERS:
                try:
                    schedule = cls(architecture).schedule(
                        application, clustering
                    )
                except InfeasibleScheduleError:
                    continue
                yield f"{case.name}/{cls.__name__}", generate_program(schedule)
    for spec in paper_experiments():
        application, clustering = spec.build()
        architecture = Architecture.m1(spec.fb)
        for cls in _SCHEDULERS:
            try:
                schedule = cls(architecture).schedule(application, clustering)
            except InfeasibleScheduleError:
                continue
            yield f"{spec.id}/{cls.__name__}", generate_program(schedule)


def _diagnostics(ir, policy):
    return [
        (d.code, d.severity, d.location, d.message, d.cost_words,
         dict(d.details))
        for d in analyze_ir(ir, policy=policy).diagnostics
    ]


def test_programs_diagnose_identically_under_every_policy(monkeypatch):
    compared = 0
    haz001 = 0
    for label, program in _programs():
        ir = build_ir(program)
        assert interference_mismatch(ir) is None, label
        for policy in DmaPolicy:
            fast = _diagnostics(ir, policy)
            with monkeypatch.context() as patch:
                patch.setattr(passes, "check_races", reference_check_races)
                patch.setattr(passes, "check_interference",
                              reference_check_interference)
                reference = _diagnostics(ir, policy)
            assert fast == reference, f"{label} under {policy.name}"
            haz001 += sum(1 for entry in fast if entry[0] == "HAZ001")
            compared += 1
    assert compared >= 4 * 60
    # The unsound policies do race, so the comparison covers real emits.
    assert haz001 > 0

