"""Tests for the kernel scheduler [7] and the analytic estimator."""

import pytest

from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.arch.machine import MorphoSysM1
from repro.core.cluster import Clustering
from repro.errors import InfeasibleScheduleError
from repro.schedule.basic import BasicScheduler
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.schedule.estimate import estimate_execution_cycles, visit_windows
from repro.schedule.kernel_scheduler import (
    KernelScheduler,
    enumerate_partitions,
)
from repro.sim.engine import Simulator


class TestEnumeratePartitions:
    def test_counts_are_powers_of_two(self):
        for count in range(1, 7):
            partitions = list(enumerate_partitions(count))
            assert len(partitions) == 2 ** (count - 1)

    def test_each_partition_sums(self):
        for sizes in enumerate_partitions(5):
            assert sum(sizes) == 5
            assert all(size >= 1 for size in sizes)

    def test_unique(self):
        partitions = list(enumerate_partitions(6))
        assert len(partitions) == len(set(partitions))

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(0))


class TestKernelScheduler:
    def test_explores_and_returns_best(self, sharing_app, m1_medium):
        explorer = KernelScheduler(
            m1_medium, CompleteDataScheduler(m1_medium)
        )
        result = explorer.explore(sharing_app)
        assert result.candidates_evaluated >= 1
        assert result.estimated_cycles > 0
        # The winner must be at least as good as per-kernel clustering.
        per_kernel = CompleteDataScheduler(m1_medium).schedule(
            sharing_app, Clustering.per_kernel(sharing_app)
        )
        assert result.estimated_cycles <= estimate_execution_cycles(
            per_kernel, m1_medium
        )

    def test_skips_infeasible_partitions(self, multi_kernel_app):
        # 500 words: partitions like (2,2) peak at 450 and fit; the
        # single-cluster partition peaks at 600 and is rejected.
        arch = Architecture.m1(500)
        explorer = KernelScheduler(arch, DataScheduler(arch))
        result = explorer.explore(multi_kernel_app)
        assert result.candidates_infeasible >= 1
        assert result.candidates_evaluated >= 1

    def test_raises_when_nothing_fits(self, sharing_app):
        arch = Architecture.m1(300)
        explorer = KernelScheduler(arch, DataScheduler(arch))
        with pytest.raises(InfeasibleScheduleError):
            explorer.explore(sharing_app)

    def test_beam_search_used_beyond_limit(self, sharing_app, m1_medium):
        explorer = KernelScheduler(
            m1_medium, CompleteDataScheduler(m1_medium),
            exhaustive_limit=2, beam_width=4,
        )
        result = explorer.explore(sharing_app)
        assert result.estimated_cycles > 0

    def test_invalid_params(self, m1_medium):
        with pytest.raises(ValueError):
            KernelScheduler(m1_medium, DataScheduler(m1_medium),
                            exhaustive_limit=0)
        with pytest.raises(ValueError):
            KernelScheduler(m1_medium, DataScheduler(m1_medium),
                            beam_width=0)


class TestEstimator:
    def test_windows_shape(self, sharing_app, sharing_clustering, m1_medium):
        schedule = DataScheduler(m1_medium).schedule(
            sharing_app, sharing_clustering
        )
        windows = visit_windows(schedule, m1_medium)
        assert len(windows) == schedule.rounds * len(sharing_clustering)
        assert all(compute > 0 for compute, _, _ in windows)

    def test_estimate_tracks_simulation(self, sharing_app,
                                         sharing_clustering, m1_medium):
        """The analytic estimate stays within 25% of the event-driven
        simulator for all three schedulers."""
        for scheduler_cls in (BasicScheduler, DataScheduler,
                              CompleteDataScheduler):
            schedule = scheduler_cls(m1_medium).schedule(
                sharing_app, sharing_clustering
            )
            estimate = estimate_execution_cycles(schedule, m1_medium)
            report = Simulator(MorphoSysM1(m1_medium)).run(
                generate_program(schedule)
            )
            assert abs(estimate - report.total_cycles) <= \
                0.25 * report.total_cycles, scheduler_cls.name

    def test_estimate_orders_schedulers(self, sharing_app,
                                        sharing_clustering, m1_medium):
        basic = estimate_execution_cycles(
            BasicScheduler(m1_medium).schedule(
                sharing_app, sharing_clustering
            ), m1_medium,
        )
        cds = estimate_execution_cycles(
            CompleteDataScheduler(m1_medium).schedule(
                sharing_app, sharing_clustering
            ), m1_medium,
        )
        assert cds < basic
