"""Tests for the Figure-4 allocation algorithm."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.allocator import FrameBufferAllocator
from repro.alloc.stats import compute_stats
from repro.arch.params import Architecture
from repro.core.cluster import Clustering
from repro.errors import FragmentationError
from repro.schedule.basic import BasicScheduler
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.workloads.random_gen import random_application


def _cds_schedule(app, clustering, fb="2K"):
    return CompleteDataScheduler(Architecture.m1(fb)).schedule(app, clustering)


class TestBasicProperties:
    def test_no_overlap_sharing_app(self, sharing_app, sharing_clustering):
        schedule = _cds_schedule(sharing_app, sharing_clustering, "1K")
        for fb_set in (0, 1):
            allocation = FrameBufferAllocator(schedule).allocate_set(fb_set)
            allocation.verify()

    def test_capacity_respected(self, sharing_app, sharing_clustering):
        schedule = _cds_schedule(sharing_app, sharing_clustering, "1K")
        for fb_set in (0, 1):
            allocation = FrameBufferAllocator(schedule).allocate_set(fb_set)
            assert allocation.peak_words <= allocation.capacity_words
            assert allocation.highest_address_used <= allocation.capacity_words

    def test_all_regions_released(self, sharing_app, sharing_clustering):
        """execute() raises if anything survives the round; reaching a
        map at all proves clean teardown."""
        schedule = _cds_schedule(sharing_app, sharing_clustering, "1K")
        allocation = FrameBufferAllocator(schedule).allocate_set(0)
        assert allocation.records  # something was placed and released

    def test_deterministic(self, sharing_app, sharing_clustering):
        """Identical layout across runs = periodic across rounds."""
        schedule = _cds_schedule(sharing_app, sharing_clustering, "1K")
        first = FrameBufferAllocator(schedule).allocate_set(0)
        second = FrameBufferAllocator(schedule).allocate_set(0)
        assert [
            (r.name, r.instance, r.extents) for r in first.records
        ] == [
            (r.name, r.instance, r.extents) for r in second.records
        ]

    def test_directions(self, sharing_app, sharing_clustering):
        """Inputs sit in upper addresses, results in lower ones."""
        schedule = _cds_schedule(sharing_app, sharing_clustering, "1K")
        allocation = FrameBufferAllocator(schedule).allocate_set(0)
        directions = {r.name: r.direction for r in allocation.records}
        assert directions["d"] == "high"
        assert directions["out"] == "low"

    def test_kept_shared_result_goes_high(self, sharing_app,
                                          sharing_clustering):
        schedule = _cds_schedule(sharing_app, sharing_clustering, "1K")
        if "r1" in schedule.keep_names():
            allocation = FrameBufferAllocator(schedule).allocate_set(0)
            assert allocation.record_for("r1", 0).direction == "high"

    def test_rf_instances_allocated(self, sharing_app, sharing_clustering):
        schedule = _cds_schedule(sharing_app, sharing_clustering, "2K")
        assert schedule.rf >= 2
        allocation = FrameBufferAllocator(schedule).allocate_set(0)
        instances = {
            r.instance for r in allocation.records if r.name == "d"
        }
        assert instances == set(range(schedule.rf))

    def test_invariant_single_instance(self, invariant_app):
        clustering = Clustering.per_kernel(invariant_app)
        schedule = _cds_schedule(invariant_app, clustering, "2K")
        assert schedule.rf >= 2
        allocation = FrameBufferAllocator(schedule).allocate_set(0)
        instances = {
            r.instance for r in allocation.records if r.name == "table"
        }
        assert instances == {0}

    def test_snapshots_have_labels(self, sharing_app, sharing_clustering):
        schedule = _cds_schedule(sharing_app, sharing_clustering, "1K")
        allocation = FrameBufferAllocator(
            schedule, snapshots=True
        ).allocate_set(0)
        labels = [s.label for s in allocation.snapshots]
        assert any("input data" in label for label in labels)
        assert any("execution" in label for label in labels)
        assert any("stores complete" in label for label in labels)

    def test_snapshots_are_opt_in(self, sharing_app, sharing_clustering):
        schedule = _cds_schedule(sharing_app, sharing_clustering, "1K")
        default = FrameBufferAllocator(schedule).allocate_set(0)
        recorded = FrameBufferAllocator(
            schedule, snapshots=True
        ).allocate_set(0)
        assert default.snapshots == []
        assert recorded.snapshots
        assert default.records == recorded.records

    def test_record_for_missing(self, sharing_app, sharing_clustering):
        schedule = _cds_schedule(sharing_app, sharing_clustering, "1K")
        allocation = FrameBufferAllocator(schedule).allocate_set(0)
        with pytest.raises(KeyError):
            allocation.record_for("ghost", 0)

    def test_allocate_both_sets(self, sharing_app, sharing_clustering):
        schedule = _cds_schedule(sharing_app, sharing_clustering, "1K")
        set0, set1 = FrameBufferAllocator(schedule).allocate()
        assert set0.fb_set == 0 and set1.fb_set == 1


class TestSchedulers:
    def test_works_for_all_schedulers(self, sharing_app, sharing_clustering):
        arch = Architecture.m1("2K")
        for scheduler_cls in (BasicScheduler, DataScheduler,
                              CompleteDataScheduler):
            schedule = scheduler_cls(arch).schedule(
                sharing_app, sharing_clustering
            )
            for fb_set in (0, 1):
                allocation = FrameBufferAllocator(schedule).allocate_set(fb_set)
                allocation.verify()
                assert allocation.peak_words <= arch.fb_set_words


class TestStats:
    def test_stats_fields(self, sharing_app, sharing_clustering):
        schedule = _cds_schedule(sharing_app, sharing_clustering, "1K")
        allocation = FrameBufferAllocator(schedule).allocate_set(0)
        stats = compute_stats(allocation)
        assert stats.placements == len(allocation.records)
        assert 0 < stats.utilisation <= 1
        assert stats.peak_words == allocation.peak_words
        assert stats.mean_live_words <= stats.peak_words

    def test_paper_claim_no_splits(self, sharing_app, sharing_clustering):
        schedule = _cds_schedule(sharing_app, sharing_clustering, "1K")
        for fb_set in (0, 1):
            allocation = FrameBufferAllocator(schedule).allocate_set(fb_set)
            assert compute_stats(allocation).split_free


class TestRandomised:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=3000))
    def test_random_apps_allocate_cleanly(self, seed):
        """Any schedulable random app yields overlap-free, in-capacity
        allocations on both sets (splitting allowed)."""
        application, clustering = random_application(seed)
        arch = Architecture.m1("4K")
        try:
            schedule = CompleteDataScheduler(arch).schedule(
                application, clustering
            )
        except Exception:
            return  # infeasible random instance: not this test's topic
        for fb_set in (0, 1):
            allocation = FrameBufferAllocator(schedule).allocate_set(fb_set)
            allocation.verify()
            assert allocation.peak_words <= arch.fb_set_words
