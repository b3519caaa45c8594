"""Serial vs. parallel analysis drivers.

``--jobs`` fans corpus studies, FB-size sweeps, and ablations over a
process pool; the contract is that the serial and parallel paths run
the same top-level worker per item and therefore produce identical
results.  The persistent cache's outcome key must depend only on
content — identical workloads rebuilt from scratch hash identically —
so workers can share scheduling work through it.
"""

import pytest

from repro.analysis.ablation import dma_policy_ablation
from repro.analysis.corpus import corpus_study
from repro.analysis.parallel import (
    default_jobs,
    parallel_map,
    run_all_ablations,
)
from repro.analysis.sweep import sweep_fb_sizes
from repro.arch.params import Architecture
from repro.cache import CacheStore, outcome_key
from repro.schedule.base import ScheduleOptions
from repro.schedule.context_scheduler import DmaPolicy
from repro.workloads.random_gen import random_application
from repro.workloads.spec import paper_experiments


def _square(value):
    return value * value


def _experiment(spec_id):
    return next(s for s in paper_experiments() if s.id == spec_id)


class TestParallelMap:
    def test_serial_and_parallel_identical(self):
        items = list(range(12))
        expected = [_square(item) for item in items]
        assert parallel_map(_square, items) == expected
        assert parallel_map(_square, items, jobs=1) == expected
        assert parallel_map(_square, items, jobs=2) == expected

    def test_jobs_zero_uses_cpu_count(self):
        assert default_jobs() >= 1
        assert parallel_map(_square, [3, 4], jobs=0) == [9, 16]

    def test_order_preserved(self):
        items = list(range(20, 0, -1))
        assert parallel_map(_square, items, jobs=2) == [
            _square(item) for item in items
        ]


class TestDriverEquivalence:
    def test_corpus_study_serial_equals_parallel(self):
        serial = corpus_study(range(6), fb="2K", iterations=4)
        fanned = corpus_study(range(6), fb="2K", iterations=4, jobs=2)
        assert serial == fanned

    def test_sweep_serial_equals_parallel(self):
        application, clustering = _experiment("MPEG").build()
        sizes = ["1K", "2K", "4K"]
        serial = sweep_fb_sizes(application, clustering, sizes)
        fanned = sweep_fb_sizes(application, clustering, sizes, jobs=2)
        assert serial == fanned

    def test_ablations_serial_equals_parallel(self):
        spec = paper_experiments()[0]
        serial = run_all_ablations(spec)
        fanned = run_all_ablations(spec, jobs=2)
        assert serial == fanned
        assert len(serial) >= 10  # keep(3) + rf(2) + dma(3) + cross(2)


class TestPlanKey:
    """The persistent cache's outcome key, which lets parallel workers
    share scheduling work, depends only on content."""

    def test_identity_free(self):
        """The same workload built twice hashes to the same key."""
        first_app, first_clustering = random_application(7, iterations=4)
        second_app, second_clustering = random_application(7, iterations=4)
        assert first_app is not second_app
        architecture = Architecture.m1("4K")
        assert outcome_key(
            "cds", first_app, first_clustering, architecture,
            options=ScheduleOptions(), trace=False,
        ) == outcome_key(
            "cds", second_app, second_clustering, architecture,
            options=ScheduleOptions(), trace=False,
        )

    def test_sensitive_to_every_input(self):
        application, clustering = random_application(7, iterations=4)
        base = outcome_key(
            "cds", application, clustering, Architecture.m1("4K"),
            options=ScheduleOptions(), trace=False,
        )
        other_app, other_clustering = random_application(8, iterations=4)
        assert base != outcome_key(
            "cds", other_app, other_clustering, Architecture.m1("4K"),
            options=ScheduleOptions(), trace=False,
        )
        assert base != outcome_key(
            "ds", application, clustering, Architecture.m1("4K"),
            options=ScheduleOptions(), trace=False,
        )
        assert base != outcome_key(
            "cds", application, clustering, Architecture.m1("2K"),
            options=ScheduleOptions(), trace=False,
        )
        assert base != outcome_key(
            "cds", application, clustering, Architecture.m1("4K"),
            options=ScheduleOptions(rf_cap=2), trace=False,
        )


class TestPlanMemo:
    """The DMA-policy ablation's variants share one plan."""

    def test_hit_returns_same_plan(self, schedule_calls):
        results = dma_policy_ablation(_experiment("MPEG"))
        assert len(results) == len(DmaPolicy)
        assert all(result.feasible for result in results)
        assert len(schedule_calls) == 1

    def test_rebuilt_workload_hits(self, schedule_calls, tmp_path):
        """Content hashing: a second call rebuilds the workload from its
        spec and reuses the persistent cache's entries."""
        target = _experiment("MPEG")
        cache = CacheStore(tmp_path)
        fresh = dma_policy_ablation(target, cache=cache)
        schedule_calls.clear()
        assert dma_policy_ablation(target, cache=cache) == fresh
        assert schedule_calls == []


class TestJobsValidation:
    def test_negative_jobs_rejected(self):
        # Silently treating jobs=-1 as the serial path hid caller bugs;
        # negative counts are now an explicit error.
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            parallel_map(_square, [1, 2, 3], jobs=-1)

    def test_negative_jobs_rejected_even_for_empty_input(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            parallel_map(_square, [], jobs=-4)

    def test_driver_propagates_the_error(self):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            run_all_ablations(_experiment("E1"), jobs=-2)


class TestMetricsRollup:
    @pytest.fixture(autouse=True)
    def _metrics_off_around(self):
        from repro.obs.metrics import get_registry, set_metrics_active

        previous = set_metrics_active(False)
        get_registry().reset()
        yield
        set_metrics_active(previous)
        get_registry().reset()

    def test_parallel_workers_roll_up_into_parent_registry(self):
        from repro.obs.metrics import get_registry, set_metrics_active

        set_metrics_active(True)
        items = list(range(6))
        assert parallel_map(_timed_square, items, jobs=2) == \
            [item * item for item in items]
        registry = get_registry()
        assert registry.counters["driver/parallel.items"] == len(items)
        assert registry.counters["driver/parallel.fanouts"] == 1
        assert registry.counters["worker/squares"] == len(items)
        assert registry.timers["worker/square"]["count"] == len(items)

    def test_serial_path_collects_in_process(self):
        from repro.obs.metrics import get_registry, set_metrics_active

        set_metrics_active(True)
        parallel_map(_timed_square, [1, 2], jobs=1)
        registry = get_registry()
        assert registry.counters["worker/squares"] == 2
        assert "driver/parallel.fanouts" not in registry.counters

    def test_results_identical_with_metrics_on_or_off(self):
        from repro.obs.metrics import set_metrics_active

        items = list(range(5))
        off = parallel_map(_timed_square, items, jobs=2)
        set_metrics_active(True)
        on = parallel_map(_timed_square, items, jobs=2)
        assert on == off

    def test_metrics_off_records_nothing(self):
        from repro.obs.metrics import get_registry

        parallel_map(_timed_square, [1, 2, 3], jobs=2)
        assert get_registry().snapshot() == {"counters": {}, "timers": {}}


def _timed_square(value):
    from repro.obs.metrics import inc, time_stage

    with time_stage("square", scope="worker"):
        inc("squares", scope="worker")
        return value * value
