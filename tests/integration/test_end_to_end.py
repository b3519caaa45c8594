"""Cross-module integration and property-based end-to-end tests.

The heavyweight invariant: for ANY schedulable random application, the
full pipeline (schedule -> lower -> verify -> allocate -> simulate
functionally) must produce exactly the reference outputs, with every
capacity constraint respected, for all three schedulers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import simulate
from repro.alloc.allocator import FrameBufferAllocator
from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.codegen.verifier import verify_program
from repro.errors import InfeasibleScheduleError
from repro.schedule.basic import BasicScheduler
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.sim.engine import Simulator
from repro.workloads.random_gen import random_application

SCHEDULERS = (BasicScheduler, DataScheduler, CompleteDataScheduler)


class TestPipelineProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=5000),
           st.sampled_from(["1K", "2K", "4K"]))
    def test_full_pipeline_on_random_apps(self, seed, fb):
        application, clustering = random_application(
            seed, iterations=4
        )
        architecture = Architecture.m1(fb)
        baseline_cycles = None
        for scheduler_cls in SCHEDULERS:
            try:
                schedule = scheduler_cls(architecture).schedule(
                    application, clustering
                )
            except InfeasibleScheduleError:
                continue
            program = generate_program(schedule)
            verify_program(program)
            # Allocation is overlap-free and in capacity on both sets.
            for fb_set in (0, 1):
                allocation = FrameBufferAllocator(schedule) \
                    .allocate_set(fb_set)
                allocation.verify()
                assert allocation.peak_words <= architecture.fb_set_words
            # Functional simulation matches the reference execution.
            machine = MorphoSysM1(architecture)
            report = Simulator(machine).run(
                program, functional=True, seed=seed
            )
            assert report.functional_verified is True
            # Scheduler ordering: each refinement is no slower.
            if baseline_cycles is not None:
                assert report.total_cycles <= baseline_cycles
            baseline_cycles = report.total_cycles

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=5001, max_value=9000))
    def test_traffic_accounting_matches_simulator(self, seed):
        """TransferSummary (static) and the DMA counters (dynamic) must
        agree on total data words."""
        application, clustering = random_application(seed, iterations=3)
        architecture = Architecture.m1("4K")
        for scheduler_cls in SCHEDULERS:
            try:
                schedule = scheduler_cls(architecture).schedule(
                    application, clustering
                )
            except InfeasibleScheduleError:
                continue
            summary = schedule.summary()
            report = Simulator(MorphoSysM1(architecture)).run(
                generate_program(schedule)
            )
            assert report.data_load_words == summary.total_data_loaded_words
            assert report.data_store_words == summary.total_data_stored_words
            assert report.context_words == summary.total_context_words


class TestSimulateHelper:
    def test_one_call_pipeline(self, sharing_app, sharing_clustering):
        schedule = CompleteDataScheduler(Architecture.m1("2K")).schedule(
            sharing_app, sharing_clustering
        )
        report = simulate(schedule)
        assert report.total_cycles > 0
        assert report.scheduler == "cds"

    def test_explicit_architecture(self, sharing_app, sharing_clustering):
        arch = Architecture.m1("2K")
        schedule = DataScheduler(arch).schedule(
            sharing_app, sharing_clustering
        )
        report = simulate(schedule, arch, functional=True)
        assert report.functional_verified is True


class TestPartialLastRound:
    def test_iterations_not_divisible_by_rf(self, m1_medium):
        """total_iterations % RF != 0: the last round is partial and
        everything still verifies and simulates."""
        from repro.core.application import Application
        from repro.core.cluster import Clustering
        app = (
            Application.build("partial", total_iterations=7)
            .data("d", 128)
            .kernel("k1", context_words=16, cycles=100, inputs=["d"],
                    outputs=["r"], result_sizes={"r": 64})
            .kernel("k2", context_words=16, cycles=100, inputs=["r"],
                    outputs=["out"], result_sizes={"out": 64})
            .final("out")
            .finish()
        )
        from repro.schedule.base import ScheduleOptions
        clustering = Clustering.per_kernel(app)
        schedule = DataScheduler(
            m1_medium, ScheduleOptions(rf_cap=2)
        ).schedule(app, clustering)
        assert schedule.rf == 2
        assert app.total_iterations % schedule.rf != 0
        program = generate_program(schedule)
        verify_program(program)
        machine = MorphoSysM1(m1_medium)
        report = Simulator(machine).run(program, functional=True)
        assert report.functional_verified is True
