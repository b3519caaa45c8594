"""Tests for the ADAPTIVE DMA ordering policy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.errors import InfeasibleScheduleError
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.context_scheduler import DmaPolicy, loads_may_precede_stores
from repro.sim.engine import Simulator
from repro.workloads.mpeg import mpeg
from repro.workloads.random_gen import random_application


class TestBudgetPredicate:
    def test_mpeg_windows_have_room(self):
        application, clustering = mpeg()
        schedule = CompleteDataScheduler(Architecture.m1("2K")).schedule(
            application, clustering
        )
        # Some window must have room (the adaptive win observed on MPEG).
        clusters = range(len(clustering))
        assert any(
            loads_may_precede_stores(schedule, dep, arr, schedule.rf)
            for dep in clusters for arr in clusters if dep != arr
        )

    def test_tight_set_has_no_room(self):
        from repro.workloads.atr import atr_sld
        application, clustering = atr_sld()
        schedule = CompleteDataScheduler(Architecture.m1("8K")).schedule(
            application, clustering
        )
        # ATR-SLD runs its set nearly full: set-0 windows have no room
        # for coexisting stores and loads.
        set0 = [c.index for c in clustering.on_set(0)]
        assert not any(
            loads_may_precede_stores(schedule, dep, arr, schedule.rf)
            for dep in set0 for arr in set0 if dep != arr
        )


class TestAdaptiveExecution:
    def test_matches_relaxed_bound_on_mpeg(self):
        application, clustering = mpeg()
        arch = Architecture.m1("2K")
        schedule = CompleteDataScheduler(arch).schedule(
            application, clustering
        )
        program = generate_program(schedule)

        def run(policy):
            return Simulator(MorphoSysM1(arch), dma_policy=policy).run(
                program
            ).total_cycles

        adaptive = run(DmaPolicy.ADAPTIVE)
        relaxed = run(DmaPolicy.LOADS_FIRST)
        default = run(DmaPolicy.CONTEXTS_FIRST)
        assert adaptive == relaxed < default

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=4000))
    def test_never_slower_and_semantics_preserved(self, seed):
        application, clustering = random_application(seed, iterations=3)
        arch = Architecture.m1("4K")
        try:
            schedule = CompleteDataScheduler(arch).schedule(
                application, clustering
            )
        except InfeasibleScheduleError:
            return
        program = generate_program(schedule)
        default = Simulator(
            MorphoSysM1(arch), dma_policy=DmaPolicy.CONTEXTS_FIRST
        ).run(program)
        adaptive = Simulator(
            MorphoSysM1(arch),
            dma_policy=DmaPolicy.ADAPTIVE,
        ).run(program, functional=True)
        assert adaptive.total_cycles <= default.total_cycles
        assert adaptive.functional_verified is True
