"""Tests for the comparison/reporting layer (Table 1 / Figure 6)."""

import dataclasses

import pytest

from repro.analysis.ablation import (
    dma_policy_ablation,
    keep_policy_ablation,
    render_ablation,
    rf_policy_ablation,
)
from repro.analysis.ascii_chart import hbar_chart
from repro.analysis.compare import compare_experiment, compare_workload
from repro.analysis.figure6 import figure6_rows, render_figure6
from repro.analysis.table1 import build_table1, render_table1
from repro.arch.params import Architecture
from repro.workloads.spec import paper_experiments


@pytest.fixture(scope="module")
def specs_by_id():
    return {spec.id: spec for spec in paper_experiments()}


@pytest.fixture(scope="module")
def e1_row(specs_by_id):
    return compare_experiment(specs_by_id["E1"])


class TestCompare:
    def test_row_fields(self, e1_row):
        assert e1_row.workload == "E1"
        assert e1_row.n_clusters == 4
        assert e1_row.max_kernels_per_cluster == 2
        assert e1_row.fb_words == 1024

    def test_untraced_by_default(self, e1_row, specs_by_id):
        # Table 1 and `repro run` read cycles, words and RF only; the
        # per-transfer trace is recorded only on request.
        for outcome in (e1_row.basic, e1_row.ds, e1_row.cds):
            assert outcome.report.transfers == ()
        traced = compare_experiment(specs_by_id["E1"], trace=True)
        assert traced.cds.report.transfers
        assert dataclasses.replace(
            traced.cds.report, transfers=()
        ) == e1_row.cds.report

    def test_all_feasible(self, e1_row):
        assert e1_row.basic.feasible
        assert e1_row.ds.feasible
        assert e1_row.cds.feasible

    def test_improvements_ordered(self, e1_row):
        assert e1_row.cds_improvement_pct >= e1_row.ds_improvement_pct >= 0

    def test_dt_positive_when_keeps_exist(self, e1_row):
        assert e1_row.cds.schedule.keeps
        assert e1_row.dt_words > 0

    def test_compare_workload_direct(self, sharing_app, sharing_clustering):
        row = compare_workload(
            sharing_app, sharing_clustering, Architecture.m1("2K")
        )
        assert row.cds_improvement_pct is not None
        assert row.total_data_words == 896

    def test_infeasible_basic_reported(self, specs_by_id):
        """MPEG at FB=1K: Basic infeasible, DS/CDS fine (paper claim)."""
        application, clustering = specs_by_id["MPEG"].build()
        row = compare_workload(
            application, clustering, Architecture.m1("1K")
        )
        assert not row.basic.feasible
        assert "1K" in row.basic.infeasible_reason
        assert row.ds.feasible and row.cds.feasible
        assert row.ds_improvement_pct is None  # no baseline to compare


class TestTable1:
    @pytest.fixture(scope="class")
    def table(self):
        return build_table1()

    def test_twelve_rows(self, table):
        assert len(table) == 12

    def test_rf_matches_paper_everywhere(self, table):
        for row in table:
            assert row.measured_rf == row.spec.paper_rf, row.id

    def test_cds_beats_ds_or_ties(self, table):
        for row in table:
            assert row.measured_cds_pct >= row.measured_ds_pct - 1e-9, row.id

    def test_cds_always_positive(self, table):
        for row in table:
            assert row.measured_cds_pct > 0, row.id

    def test_render(self, table):
        text = render_table1(table)
        assert "E1" in text and "ATR-SLD**" in text
        assert "paper" in text
        text_plain = render_table1(table, show_paper=False)
        assert "paper" not in text_plain


class TestFigure6:
    def test_rows(self):
        rows = figure6_rows(list(paper_experiments())[:2])
        assert len(rows) == 2
        for _, ds_pct, cds_pct in rows:
            assert cds_pct >= ds_pct

    def test_render(self):
        rows = [("E1", 10.0, 25.0), ("E2", None, 40.0)]
        chart = render_figure6(rows)
        assert "Figure 6" in chart
        assert "E1" in chart
        assert "infeasible" in chart  # the None entry


class TestAsciiChart:
    def test_bars_scale(self):
        chart = hbar_chart(
            [("a", (50.0, 25.0)), ("b", (100.0, 0.0))],
            series_labels=("x", "y"),
            max_value=100.0,
            width=10,
        )
        lines = chart.splitlines()
        a_line = next(l for l in lines if l.strip().startswith("a"))
        assert a_line.count("#") == 5

    def test_none_renders_na(self):
        chart = hbar_chart(
            [("a", (None,))], series_labels=("x",), series_marks=("#",),
        )
        assert "n/a" in chart

    def test_mark_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hbar_chart([("a", (1.0,))], series_labels=("x", "y"),
                       series_marks=("#",))


class TestAblation:
    def test_keep_policy_tf_never_worse(self, specs_by_id):
        results = keep_policy_ablation(specs_by_id["E1"])
        by_variant = {r.variant: r for r in results}
        tf = by_variant["keep=tf"]
        assert tf.feasible
        for variant, result in by_variant.items():
            if result.feasible:
                assert tf.total_cycles <= result.total_cycles * 1.05, variant

    def test_rf_policy(self, specs_by_id):
        results = rf_policy_ablation(specs_by_id["E2"])
        assert len(results) == 2
        assert all(r.feasible for r in results)

    def test_dma_policy(self, specs_by_id):
        results = dma_policy_ablation(specs_by_id["E1"])
        assert len(results) == 3  # contexts/loads-first + adaptive

    def test_dma_policy_infeasible_plan_is_not_cached(self, specs_by_id,
                                                      schedule_calls):
        import dataclasses

        tiny = dataclasses.replace(specs_by_id["MPEG"], fb="64")
        results = dma_policy_ablation(tiny)
        assert not any(result.feasible for result in results)
        # Every variant retried the failed plan.
        assert len(schedule_calls) == len(results)

    def test_render(self, specs_by_id):
        results = keep_policy_ablation(specs_by_id["E1"])
        text = render_ablation(results)
        assert "keep=tf" in text
