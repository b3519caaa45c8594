"""Bisect-indexed hazard structures vs. their linear oracles.

The HAZ001 interval map and the HAZ002 sweep in
:mod:`repro.dataflow.passes` locate segments and live extents by
bisection; :mod:`repro.dataflow.reference` keeps the original linear
implementations verbatim.  These tests drive both with random access
sequences, random (deliberately overlapping) placements, and every
program of the fuzz regime matrix and the paper experiments under
every DMA policy, and require identical predecessors, segment lists,
emits and diagnostics.  The frame-buffer set's indexed ``bind`` is
checked against a brute-force overlap scan the same way.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import repro.dataflow.passes as passes
from repro.arch.frame_buffer import Extent, FrameBufferSet
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.dataflow.analyzer import analyze_ir, build_ir
from repro.dataflow.passes import _IntervalMap
from repro.dataflow.reference import (
    ReferenceIntervalMap,
    interference_mismatch,
    interval_map_mismatch,
    reference_check_interference,
)
from repro.errors import AllocationError, InfeasibleScheduleError
from repro.fuzz.generator import generate_case, regime_names
from repro.schedule import BasicScheduler, CompleteDataScheduler, DataScheduler
from repro.schedule.context_scheduler import DmaPolicy
from repro.workloads.spec import paper_experiments

_SCHEDULERS = (BasicScheduler, DataScheduler, CompleteDataScheduler)


# -- HAZ001 interval map ----------------------------------------------------

_ACCESS = st.tuples(
    st.integers(0, 63),          # start
    st.integers(1, 24),          # size
    st.integers(0, 7),           # node
    st.booleans(),               # write
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ACCESS, max_size=40))
def test_interval_map_matches_reference(accesses):
    fast = _IntervalMap()
    reference = ReferenceIntervalMap()
    for start, size, node, write in accesses:
        args = (start, start + size, node, write)
        assert fast.access(*args) == reference.access(*args)
        assert fast._segments == reference._segments
        assert fast._starts == [seg[0] for seg in fast._segments]


def test_interval_map_keeps_adjacent_segments_apart():
    fast = _IntervalMap()
    fast.access(0, 4, 1, True)
    fast.access(4, 8, 1, True)
    assert fast._segments == [(0, 4, 1, ()), (4, 8, 1, ())]
    assert fast.access(2, 6, 2, False) == {1: 4}
    assert fast._segments == [
        (0, 2, 1, ()), (2, 4, 1, (2,)), (4, 6, 1, (2,)), (6, 8, 1, ()),
    ]


# -- HAZ002 sweep ---------------------------------------------------------


def _random_interference_ir(rng):
    """A stand-in IR with random, frequently overlapping placements."""
    values = []
    for value_id in range(rng.randint(0, 24)):
        extents = tuple(
            Extent(rng.randint(0, 96), rng.randint(1, 32))
            for _ in range(rng.choice((0, 1, 1, 1, 2, 3)))
        )
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
        assert interval_map_mismatch(ir) is None, label
        assert interference_mismatch(ir) is None, label
        for policy in DmaPolicy:
            fast = _diagnostics(ir, policy)
            with monkeypatch.context() as patch:
                patch.setattr(passes, "_IntervalMap", ReferenceIntervalMap)
                patch.setattr(passes, "check_interference",
                              reference_check_interference)
                reference = _diagnostics(ir, policy)
            assert fast == reference, f"{label} under {policy.name}"
            haz001 += sum(1 for entry in fast if entry[0] == "HAZ001")
            compared += 1
    assert compared >= 4 * 60
    # The unsound policies do race, so the comparison covers real emits.
    assert haz001 > 0


# -- frame-buffer bind index ----------------------------------------------


def _linear_overlap_message(regions, set_index, name, instance, extents):
    """The first clash in binding order, as the linear scan words it."""
    for (other_name, other_instance), other_extents in regions.items():
        for extent in extents:
            for other in other_extents:
                if extent.overlaps(other):
                    return (
                        f"set{set_index}: {name}#{instance} extent "
                        f"{extent} overlaps {other_name}#{other_instance} "
                        f"extent {other}"
                    )
    return None


@pytest.mark.parametrize("seed", range(60))
def test_bind_matches_brute_force_overlap_check(seed):
    rng = random.Random(seed)
    capacity = 256
    fb_set = FrameBufferSet(capacity, set_index=seed % 2)
    regions = {}
    for step in range(200):
        if regions and rng.random() < 0.35:
            key = rng.choice(list(regions))
            assert fb_set.release(*key) == regions.pop(key)
            continue
        extents = []
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            start = rng.randint(0, capacity - 1)
            extents.append(Extent(start, rng.randint(
                1, min(32, capacity - start)
            )))
        key = (f"r{step}", rng.randint(0, 1))
        expected = _linear_overlap_message(
            regions, fb_set.set_index, key[0], key[1], extents
        )
        self_overlap = any(
            a.overlaps(b)
            for i, a in enumerate(extents) for b in extents[i + 1:]
        )
        if expected is None and not self_overlap:
            fb_set.bind(key[0], key[1], extents)
            regions[key] = tuple(extents)
        else:
            with pytest.raises(AllocationError) as raised:
                fb_set.bind(key[0], key[1], extents)
            if expected is not None:
                assert str(raised.value) == expected
            else:
                assert "overlap each other" in str(raised.value)
        assert fb_set.live_regions() == tuple(regions)


def test_touching_and_split_extents_bind_cleanly():
    fb_set = FrameBufferSet(64)
    fb_set.bind("a", 0, [Extent(0, 4)])
    fb_set.bind("b", 0, [Extent(4, 4)])
    fb_set.bind("c", 0, [Extent(12, 4), Extent(8, 4), Extent(20, 4)])
    fb_set.bind("d", 0, [Extent(16, 4), Extent(24, 40)])
    assert fb_set.occupied_words == 64
    with pytest.raises(AllocationError, match="overlaps c#0 extent"):
        fb_set.bind("e", 0, [Extent(21, 1)])
    fb_set.release("c", 0)
    fb_set.bind("e", 0, [Extent(20, 4), Extent(8, 8)])
    assert fb_set.occupied_words == 64


def test_self_overlapping_region_is_rejected():
    fb_set = FrameBufferSet(64)
    fb_set.bind("b", 0, [Extent(12, 4)])
    # A clash with a bound region keeps the linear scan's message.
    with pytest.raises(AllocationError, match="overlaps b#0 extent"):
        fb_set.bind("a", 0, [Extent(4, 8), Extent(10, 4)])
    with pytest.raises(AllocationError, match="overlap each other"):
        fb_set.bind("a", 0, [Extent(4, 4), Extent(0, 6)])
    assert fb_set.live_regions() == (("b", 0),)
    fb_set.bind("a", 0, [Extent(4, 4), Extent(0, 4)])
    assert fb_set.occupied_words == 12
