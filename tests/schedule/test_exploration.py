"""Tests for the kernel scheduler [7]."""

import pytest

from repro.arch.params import Architecture
from repro.core.cluster import Clustering
from repro.errors import InfeasibleScheduleError
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.schedule.kernel_scheduler import (
    KernelScheduler,
    enumerate_partitions,
)
from repro.sim.engine import simulated_cycles


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
        assert result.cycles == simulated_cycles(result.schedule, m1_medium)
        # The winner must be at least as good as per-kernel clustering.
        per_kernel = CompleteDataScheduler(m1_medium).schedule(
            sharing_app, Clustering.per_kernel(sharing_app)
        )
        assert result.cycles <= simulated_cycles(per_kernel, m1_medium)

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
        assert result.cycles > 0

    def test_invalid_params(self, m1_medium):
        with pytest.raises(ValueError):
            KernelScheduler(m1_medium, DataScheduler(m1_medium),
                            exhaustive_limit=0)
        with pytest.raises(ValueError):
            KernelScheduler(m1_medium, DataScheduler(m1_medium),
                            beam_width=0)
