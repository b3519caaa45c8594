"""Metrics registry: recording, snapshots, rollup, and the off switch."""

import pickle

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    inc,
    metrics_active,
    set_metrics_active,
    time_stage,
)


@pytest.fixture(autouse=True)
def _quiescent_global_registry():
    """Leave the process-global registry off and empty around each test."""
    previous = set_metrics_active(False)
    get_registry().reset()
    yield
    set_metrics_active(previous)
    get_registry().reset()


class TestMetricsRegistry:
    def test_counters_accumulate_by_scoped_key(self):
        registry = MetricsRegistry()
        registry.inc("items")
        registry.inc("items", 4)
        registry.inc("items", scope="driver")
        assert registry.counters == {"items": 5, "driver/items": 1}

    def test_observe_tracks_total_count_and_max(self):
        registry = MetricsRegistry()
        registry.observe("stage", 0.25)
        registry.observe("stage", 1.0)
        registry.observe("stage", 0.5)
        timer = registry.timers["stage"]
        assert timer["total_s"] == pytest.approx(1.75)
        assert timer["count"] == 3
        assert timer["max_s"] == pytest.approx(1.0)

    def test_time_stage_records_one_sample(self):
        registry = MetricsRegistry()
        with registry.time_stage("work", scope="pipeline"):
            pass
        timer = registry.timers["pipeline/work"]
        assert timer["count"] == 1
        assert timer["total_s"] >= 0.0

    def test_time_stage_records_even_when_body_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.time_stage("work"):
                raise RuntimeError("boom")
        assert registry.timers["work"]["count"] == 1

    def test_snapshot_is_picklable_and_detached(self):
        registry = MetricsRegistry()
        registry.inc("n", 2)
        registry.observe("t", 0.5)
        snapshot = pickle.loads(pickle.dumps(registry.snapshot()))
        registry.inc("n", 100)
        assert snapshot["counters"] == {"n": 2}
        assert snapshot["timers"]["t"]["count"] == 1

    def test_merge_folds_counters_and_timers(self):
        a = MetricsRegistry()
        a.inc("n", 2)
        a.observe("t", 0.5)
        b = MetricsRegistry()
        b.inc("n", 3)
        b.inc("other")
        b.observe("t", 2.0)
        b.observe("t", 0.25)
        a.merge(b.snapshot())
        assert a.counters == {"n": 5, "other": 1}
        timer = a.timers["t"]
        assert timer["count"] == 3
        assert timer["total_s"] == pytest.approx(2.75)
        assert timer["max_s"] == pytest.approx(2.0)

    def test_merge_into_empty_equals_source(self):
        source = MetricsRegistry()
        source.inc("n")
        source.observe("t", 1.5)
        target = MetricsRegistry()
        target.merge(source.snapshot())
        assert target.snapshot() == source.snapshot()

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.inc("n")
        registry.observe("t", 1.0)
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "timers": {}}

    def test_render_lists_timers_and_counters(self):
        registry = MetricsRegistry()
        assert registry.render() == "(no metrics recorded)"
        registry.inc("n", 7)
        registry.observe("t", 0.001, scope="s")
        text = registry.render()
        assert "s/t" in text and "n" in text and "7" in text


class TestGlobalSwitch:
    def test_default_off_and_toggle_returns_previous(self):
        assert metrics_active() is False
        assert set_metrics_active(True) is False
        assert metrics_active() is True
        assert set_metrics_active(False) is True

    def test_module_inc_and_time_stage_noop_while_off(self):
        inc("n")
        with time_stage("t"):
            pass
        snapshot = get_registry().snapshot()
        assert snapshot == {"counters": {}, "timers": {}}

    def test_disabled_time_stage_is_a_shared_object(self):
        # The off path must not allocate per call.
        assert time_stage("a") is time_stage("b", scope="c")

    def test_module_helpers_record_while_on(self):
        set_metrics_active(True)
        inc("n", 3, scope="s")
        with time_stage("t"):
            pass
        registry = get_registry()
        assert registry.counters == {"s/n": 3}
        assert registry.timers["t"]["count"] == 1


class TestPipelineIntegration:
    def test_run_scheduler_times_each_stage(self):
        from repro.analysis.compare import compare_experiment
        from repro.workloads.spec import paper_experiments

        spec = next(s for s in paper_experiments() if s.id == "E1")
        set_metrics_active(True)
        try:
            compare_experiment(spec)
        finally:
            set_metrics_active(False)
        timers = get_registry().timers
        for scheduler in ("basic", "ds", "cds"):
            for stage in ("schedule", "codegen", "verify", "simulate"):
                key = f"pipeline.{scheduler}/{stage}"
                assert key in timers, key
                assert timers[key]["count"] == 1

    def test_run_scheduler_times_schedule_stage(self):
        from repro.analysis.compare import run_scheduler
        from repro.arch.params import Architecture
        from repro.schedule.complete import CompleteDataScheduler
        from repro.workloads.spec import paper_experiments

        spec = next(s for s in paper_experiments() if s.id == "E1")
        application, clustering = spec.build()
        architecture = Architecture.m1(spec.fb)
        set_metrics_active(True)
        try:
            run_scheduler(
                CompleteDataScheduler(architecture), application,
                clustering, architecture,
            )
        finally:
            set_metrics_active(False)
        timers = get_registry().timers
        for stage in ("schedule", "codegen", "verify", "simulate"):
            key = f"pipeline.cds/{stage}"
            assert key in timers, key
            assert timers[key]["count"] == 1

    def test_pipeline_records_nothing_by_default(self):
        from repro.analysis.compare import compare_experiment
        from repro.workloads.spec import paper_experiments

        spec = next(s for s in paper_experiments() if s.id == "E1")
        compare_experiment(spec)
        assert get_registry().snapshot() == {"counters": {}, "timers": {}}
