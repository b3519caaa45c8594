"""The analyzer driver: lint wiring, strict mode, batch runner, oracle."""

import dataclasses

import pytest

from repro.alloc.allocator import AllocationMap, FrameBufferAllocator
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.dataflow.analyzer import (
    analyze_program,
    analyze_schedule,
    build_ir,
    hazard_errors,
    parse_policy,
)
from repro.dataflow.runner import analyze_targets, render_analysis_json, \
    render_analysis_text
from repro.errors import LintError
from repro.lint import RULES
from repro.obs.metrics import get_registry, request_scope, set_metrics_active
from repro.schedule.base import ScheduleOptions
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.context_scheduler import DmaPolicy
from repro.workloads.random_gen import random_application

from tests.dataflow.conftest import build_schedule
from tests.lint.util import mini_app


def test_parse_policy_accepts_all_names():
    for policy in DmaPolicy:
        assert parse_policy(policy.name) is policy
        assert parse_policy(policy.name.lower()) is policy
    with pytest.raises(ValueError, match="unknown DMA policy"):
        parse_policy("bogus")


def test_hazard_rules_are_registered():
    for code in ("HAZ001", "HAZ002", "HAZ003", "DFA001", "DFA002"):
        assert code in RULES
        assert RULES[code].layer == "program"
        assert RULES[code].paper_ref


def test_analyze_schedule_returns_program_and_collector():
    schedule, _ = build_schedule("E2", "cds")
    program, collector = analyze_schedule(schedule)
    assert program.schedule is schedule
    assert not collector.diagnostics
    assert hazard_errors(collector) == ()


def test_build_ir_counts_placements_while_metrics_collect(monkeypatch):
    # Seed 3 at 2K falls back and splits, so every counter is non-zero.
    application, clustering = random_application(3, iterations=48)
    schedule = CompleteDataScheduler(Architecture.m1("2K")).schedule(
        application, clustering
    )
    program = generate_program(schedule)
    maps = FrameBufferAllocator(schedule).allocate()
    segments = sum(len(m.segments) for m in maps)
    # Counted from the records, which the counters must not build.
    expected = {
        "analysis/placements": sum(len(m.records) for m in maps),
        "analysis/irregular": sum(m.irregular_placements for m in maps),
        "analysis/splits": sum(m.splits for m in maps),
        "analysis/segments": segments,
    }
    assert all(expected.values())
    assert segments < expected["analysis/placements"] / 2
    with monkeypatch.context() as patch:
        patch.setattr(AllocationMap, "records", property(
            lambda self: pytest.fail("records built while counting")
        ))
        with request_scope(merge_into_global=False) as registry:
            build_ir(program)
            build_ir(program, allocations=maps)  # allocates nothing: no count
    counters = registry.snapshot()["counters"]
    assert {key: counters[key] for key in expected} == expected
    previous = set_metrics_active(False)
    try:
        before = get_registry().snapshot()["counters"]
        build_ir(program)
        assert get_registry().snapshot()["counters"] == before
    finally:
        set_metrics_active(previous)


def test_hazard_errors_filters_to_error_haz(e1_ds_program):
    collector = analyze_program(
        e1_ds_program, policy=DmaPolicy.LOADS_FIRST
    )
    findings = hazard_errors(collector)
    assert findings
    assert all(d.code.startswith("HAZ") for d in findings)
    assert all(d.severity.value == "error" for d in findings)


# -- ScheduleOptions(strict_hazards) --------------------------------------


def test_strict_hazards_passes_on_healthy_schedule():
    application, clustering = mini_app()
    scheduler = CompleteDataScheduler(
        Architecture.m1("2K"), ScheduleOptions(strict_hazards=True)
    )
    schedule = scheduler.schedule(application, clustering)
    assert schedule.rf >= 1


def test_strict_hazards_raises_on_hazardous_schedule():
    class Sabotaged(CompleteDataScheduler):
        def _schedule(self, dataflow):
            schedule = super()._schedule(dataflow)
            # A 1-word context block cannot hold any refill: HAZ003.
            return dataclasses.replace(schedule, context_block_words=1)

    application, clustering = mini_app()
    scheduler = Sabotaged(
        Architecture.m1("2K"), ScheduleOptions(strict_hazards=True)
    )
    with pytest.raises(LintError, match="strict hazards") as excinfo:
        scheduler.schedule(application, clustering)
    assert any(d.code == "HAZ003" for d in excinfo.value.diagnostics)


def test_strict_hazards_off_by_default():
    class Sabotaged(CompleteDataScheduler):
        def _schedule(self, dataflow):
            schedule = super()._schedule(dataflow)
            return dataclasses.replace(schedule, context_block_words=1)

    application, clustering = mini_app()
    schedule = Sabotaged(Architecture.m1("2K")).schedule(
        application, clustering
    )
    assert schedule is not None


# -- the batch runner ------------------------------------------------------


def test_analyze_targets_single_experiment():
    results = analyze_targets(
        "E1", schedulers=("ds",),
        policies=(DmaPolicy.CONTEXTS_FIRST, DmaPolicy.LOADS_FIRST),
    )
    assert len(results) == 2
    by_policy = {result.policy: result for result in results}
    assert not by_policy[DmaPolicy.CONTEXTS_FIRST].has_errors
    assert by_policy[DmaPolicy.LOADS_FIRST].has_errors


def test_analyze_targets_corpus_handles_infeasible(tmp_path):
    results = analyze_targets(
        "corpus", schedulers=("basic", "cds"),
        policies=(DmaPolicy.CONTEXTS_FIRST,),
        corpus_dir="tests/corpus",
    )
    assert results
    # The diagnostics-regression reproducer is basic-infeasible by
    # design; it must surface as a skip, not a crash.
    skipped = [result for result in results if result.skipped]
    assert all("infeasible" in result.reason for result in skipped)
    analyzed = [result for result in results if not result.skipped]
    assert analyzed
    assert not any(result.has_errors for result in analyzed)


def test_render_analysis_text_and_json():
    results = analyze_targets(
        "E1", schedulers=("ds",),
        policies=(DmaPolicy.CONTEXTS_FIRST, DmaPolicy.LOADS_FIRST),
    )
    text = render_analysis_text(results)
    assert "1 clean, 1 with findings, 0 skipped" in text
    payload = render_analysis_json(results)
    assert payload["totals"]["targets"] == 2
    assert payload["totals"]["errors"] > 0
    assert payload["totals"]["hazard_findings"] > 0
    clean = [r for r in payload["reports"] if r["policy"] == "contexts_first"]
    assert clean[0]["clean"] is True


# -- the fuzz oracle -------------------------------------------------------


def test_hazards_oracle_clean_on_generated_case():
    from repro.fuzz.generator import generate_case
    from repro.fuzz.oracles import run_oracles

    case = generate_case("baseline", 3)
    assert run_oracles(case, oracles=("hazards",)) == []


def test_hazards_oracle_flags_hazardous_program(monkeypatch):
    """Shrink the CM block behind the oracle's back: the hazards oracle
    must surface the resulting HAZ003 findings as failures."""
    from repro.dataflow import analyzer as analyzer_module
    from repro.fuzz.generator import generate_case
    from repro.fuzz.oracles import run_oracles

    real_build_ir = analyzer_module.build_ir

    def sabotaged_build_ir(program, **kwargs):
        tiny = dataclasses.replace(
            program.schedule, context_block_words=1
        )
        return real_build_ir(
            dataclasses.replace(program, schedule=tiny), **kwargs
        )

    monkeypatch.setattr(analyzer_module, "build_ir", sabotaged_build_ir)
    case = generate_case("baseline", 3)
    failures = run_oracles(case, oracles=("hazards",))
    assert failures
    assert all(failure.oracle == "hazards" for failure in failures)
    assert any("HAZ" in failure.message for failure in failures)
