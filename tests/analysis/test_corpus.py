"""Unit tests for the corpus robustness study."""

import dataclasses

import pytest

import repro.analysis.compare as compare
import repro.codegen.generator as generator
from repro.analysis.compare import compare_workload
from repro.analysis.corpus import CorpusStats, _row_outcome, corpus_study
from repro.arch.params import Architecture
from repro.workloads.random_gen import random_application


class TestCorpusStudy:
    @pytest.fixture(scope="class")
    def stats(self):
        return corpus_study(list(range(12)), fb="4K", iterations=3)

    def test_accounting_adds_up(self, stats):
        assert stats.feasible + stats.infeasible == stats.seeds_total
        assert len(stats.cds_improvements_pct) == stats.feasible

    def test_no_regressions(self, stats):
        assert stats.cds_regressions_vs_ds == 0

    def test_stats_derived(self, stats):
        if stats.cds_improvements_pct:
            assert stats.min_cds_pct <= stats.median_cds_pct
            assert stats.mean_cds_pct > 0

    def test_summary_renders(self, stats):
        text = stats.summary()
        assert "corpus" in text
        assert "regressions: 0" in text

    def test_empty_corpus(self):
        stats = CorpusStats(seeds_total=0)
        assert stats.mean_cds_pct is None
        assert stats.median_cds_pct is None
        assert stats.min_cds_pct is None
        assert "corpus: 0" in stats.summary()


class TestHazardAnalysisReusesProgram:
    """The study analyses the CDS program the pipeline simulated, so a
    corpus op generates one program per scheduler."""

    def test_one_generation_per_scheduler(self, monkeypatch):
        calls = []
        original = generator.generate_program

        def counting(schedule):
            calls.append(schedule.scheduler)
            return original(schedule)

        monkeypatch.setattr(generator, "generate_program", counting)
        monkeypatch.setattr(compare, "generate_program", counting)
        stats = corpus_study([0, 1], fb="16K", iterations=48)
        assert stats.feasible == 2
        assert calls == ["basic", "ds", "cds"] * 2

    def test_same_aggregates_as_a_fresh_generation(self):
        application, clustering = random_application(0, iterations=48)
        row = compare_workload(
            application, clustering, Architecture.m1("16K"), trace=False
        )
        assert row.cds.program is not None
        # A cached outcome carries no program: the study generates it.
        cached = dataclasses.replace(
            row, cds=dataclasses.replace(row.cds, program=None)
        )
        assert _row_outcome(row) == _row_outcome(cached)


class TestExperimentSpec:
    def test_fb_words_parses(self):
        from repro.workloads.spec import paper_experiments
        for spec in paper_experiments():
            assert spec.fb_words > 0
            assert spec.fb_words % 2 == 0

    def test_ids_unique(self):
        from repro.workloads.spec import paper_experiments
        ids = [spec.id for spec in paper_experiments()]
        assert len(ids) == len(set(ids))
