"""Tests for the cross-set retention extension (the paper's future work:
"data and results reuse among clusters assigned to different sets of
the FB when the architecture allows it")."""

import pytest

from repro.alloc.allocator import FrameBufferAllocator
from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.codegen.verifier import verify_program
from repro.core.application import Application
from repro.core.cluster import Clustering
from repro.core.dataflow import analyze_dataflow
from repro.core.reuse import find_shared_data, find_shared_results
from repro.errors import InfeasibleScheduleError
from repro.schedule.base import ScheduleOptions
from repro.schedule.complete import CompleteDataScheduler
from repro.sim.engine import Simulator


@pytest.fixture
def cross_app():
    """Two clusters on different sets sharing a datum and a result —
    nothing retainable on M1, everything retainable cross-set."""
    return (
        Application.build("cross", total_iterations=8)
        .data("d1", 128).data("d2", 128)
        .data("both", 96)
        .kernel("k1", context_words=16, cycles=200,
                inputs=["d1", "both"],
                outputs=["r1"], result_sizes={"r1": 64})
        .kernel("k2", context_words=16, cycles=200,
                inputs=["d2", "both", "r1"],
                outputs=["out"], result_sizes={"out": 64})
        .final("out")
        .finish()
    )


@pytest.fixture
def cross_arch():
    return Architecture.m1("1K", fb_cross_set_access=True)


class TestCandidates:
    def test_m1_finds_nothing(self, cross_app):
        clustering = Clustering.per_kernel(cross_app)
        dataflow = analyze_dataflow(cross_app, clustering)
        assert find_shared_data(dataflow) == []
        assert find_shared_results(dataflow) == []

    def test_cross_set_finds_both(self, cross_app):
        clustering = Clustering.per_kernel(cross_app)
        dataflow = analyze_dataflow(cross_app, clustering)
        data = find_shared_data(dataflow, include_cross_set=True)
        results = find_shared_results(dataflow, include_cross_set=True)
        assert [item.name for item in data] == ["both"]
        assert [item.name for item in results] == ["r1"]
        # Homed in the first consumer's / producer's set.
        assert data[0].fb_set == 0
        assert results[0].fb_set == 0
        # No cross-set consumer forces a store any more.
        assert not results[0].store_required

    def test_mixed_consumers_single_candidate(self, sharing_app,
                                              sharing_clustering):
        """With cross-set enabled, r1's candidate covers BOTH later
        consumers (cluster 1 on set 1 and cluster 2 on set 0)."""
        dataflow = analyze_dataflow(sharing_app, sharing_clustering)
        results = find_shared_results(dataflow, include_cross_set=True)
        r1 = next(item for item in results if item.name == "r1")
        assert r1.consumer_clusters == (1, 2)
        assert not r1.store_required


class TestScheduling:
    def test_requires_architecture_support(self, cross_app):
        clustering = Clustering.per_kernel(cross_app)
        scheduler = CompleteDataScheduler(
            Architecture.m1("1K"),
            ScheduleOptions(cross_set_retention=True),
        )
        with pytest.raises(InfeasibleScheduleError, match="cross_set"):
            scheduler.schedule(cross_app, clustering)

    def test_keeps_cross_set_items(self, cross_app, cross_arch):
        clustering = Clustering.per_kernel(cross_app)
        schedule = CompleteDataScheduler(
            cross_arch, ScheduleOptions(cross_set_retention=True)
        ).schedule(cross_app, clustering)
        assert set(schedule.keep_names()) == {"both", "r1"}
        # Consumers read in place: cluster 1 loads only its own input.
        plan1 = schedule.plan_for(1)
        assert plan1.loads == ("d2",)
        assert set(plan1.kept_inputs) == {"both", "r1"}
        # r1 is not stored at all (no unserved consumer, not final).
        assert "r1" not in schedule.plan_for(0).stores

    def test_traffic_reduced_vs_m1(self, cross_app, cross_arch):
        clustering = Clustering.per_kernel(cross_app)
        m1_schedule = CompleteDataScheduler(
            Architecture.m1("1K")
        ).schedule(cross_app, clustering)
        cross_schedule = CompleteDataScheduler(
            cross_arch, ScheduleOptions(cross_set_retention=True)
        ).schedule(cross_app, clustering)
        assert cross_schedule.summary().total_data_words < \
            m1_schedule.summary().total_data_words

    def test_off_by_default(self, cross_app, cross_arch):
        """A cross-capable architecture still schedules M1-style unless
        the option is set."""
        clustering = Clustering.per_kernel(cross_app)
        schedule = CompleteDataScheduler(cross_arch).schedule(
            cross_app, clustering
        )
        assert schedule.keeps == ()


class TestExecution:
    def _schedule(self, cross_app, cross_arch):
        clustering = Clustering.per_kernel(cross_app)
        return CompleteDataScheduler(
            cross_arch, ScheduleOptions(cross_set_retention=True)
        ).schedule(cross_app, clustering)

    def test_program_verifies(self, cross_app, cross_arch):
        schedule = self._schedule(cross_app, cross_arch)
        verify_program(generate_program(schedule))

    def test_functional_semantics_preserved(self, cross_app, cross_arch):
        schedule = self._schedule(cross_app, cross_arch)
        machine = MorphoSysM1(cross_arch)
        report = Simulator(machine).run(
            generate_program(schedule), functional=True
        )
        assert report.functional_verified is True

    def test_allocation_clean_on_both_sets(self, cross_app, cross_arch):
        schedule = self._schedule(cross_app, cross_arch)
        for fb_set in (0, 1):
            allocation = FrameBufferAllocator(schedule).allocate_set(fb_set)
            allocation.verify()
            assert allocation.splits == 0

    def test_sharing_app_cross_set(self, sharing_app, sharing_clustering):
        """The three-cluster fixture with mixed-set consumers runs the
        cross-set path end to end."""
        arch = Architecture.m1("2K", fb_cross_set_access=True)
        schedule = CompleteDataScheduler(
            arch, ScheduleOptions(cross_set_retention=True)
        ).schedule(sharing_app, sharing_clustering)
        assert "r1" in schedule.keep_names()
        verify_program(generate_program(schedule))
        machine = MorphoSysM1(arch)
        report = Simulator(machine).run(
            generate_program(schedule), functional=True
        )
        assert report.functional_verified is True
        for fb_set in (0, 1):
            allocation = FrameBufferAllocator(schedule).allocate_set(fb_set)
            allocation.verify()
