"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "ATR-FI**" in out

    def test_run_experiment(self, capsys):
        assert main(["run", "E1"]) == 0
        out = capsys.readouterr().out
        assert "[basic]" in out and "[cds]" in out
        assert "CDS improvement" in out

    def test_run_with_gantt(self, capsys):
        assert main(["run", "ATR-FI", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "DMA" in out

    def test_run_gantt_draws_the_dma_trace(self, capsys):
        # ``run`` simulates untraced unless --gantt asks for the chart;
        # then every scheduler's DMA row is a drawn bar.
        assert main(["run", "E1", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert out.count("  DMA  |") == 3
        assert "(trace disabled)" not in out

    def test_run_case_insensitive(self, capsys):
        assert main(["run", "e1"]) == 0

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["run", "E99"])

    def test_alloc(self, capsys):
        assert main(["alloc", "ATR-FI"]) == 0
        out = capsys.readouterr().out
        assert "FB set 0" in out
        assert "splits" in out

    def test_ablation(self, capsys):
        assert main(["ablation", "E1"]) == 0
        out = capsys.readouterr().out
        assert "keep=tf" in out and "dma=" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.slow
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "CDS%" in out
        assert "ATR-SLD" in out

    @pytest.mark.slow
    def test_figure6(self, capsys):
        assert main(["figure6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out


class TestJobsFlagValidation:
    @pytest.mark.parametrize("command", ["ablation", "sweep", "corpus"])
    def test_negative_jobs_rejected_at_the_parser(self, command, capsys):
        argv = [command, "--jobs", "-1"]
        if command != "corpus":
            argv.insert(1, "E1")
        with pytest.raises(SystemExit):
            main(argv)
        assert "jobs must be >= 0" in capsys.readouterr().err

    def test_non_integer_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["ablation", "E1", "--jobs", "two"])
        assert "invalid jobs count" in capsys.readouterr().err

    def test_zero_and_positive_jobs_accepted_by_the_parser(self):
        args = build_parser().parse_args(["ablation", "E1", "--jobs", "0"])
        assert args.jobs == 0
        args = build_parser().parse_args(["ablation", "E1", "--jobs", "3"])
        assert args.jobs == 3


class TestRunProfile:
    def test_profile_prints_stage_timers(self, capsys):
        assert main(["run", "E1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "pipeline profile" in out
        assert "pipeline.cds/schedule" in out
        assert "pipeline.basic/simulate" in out
        assert "pipeline.basic/verify" in out

    def test_profile_leaves_collection_off_afterwards(self):
        from repro.obs.metrics import metrics_active

        assert main(["run", "E1", "--profile"]) == 0
        assert metrics_active() is False

    def test_corpus_profile_lists_analysis_stages(self, capsys):
        from repro.obs.metrics import metrics_active

        assert main(["corpus", "--seeds", "2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "pipeline profile" in out
        for stage in ("allocate", "lower", "happens_before", "races",
                      "interference", "dead_transfers", "retention",
                      "capacity"):
            assert f"analysis/{stage}" in out
        assert metrics_active() is False

    def test_corpus_without_profile_prints_no_timers(self, capsys):
        assert main(["corpus", "--seeds", "2"]) == 0
        assert "pipeline profile" not in capsys.readouterr().out


class TestTraceCommand:
    def test_chrome_output_is_valid_trace_event_json(self, capsys):
        import json

        from repro.obs.trace import validate_chrome_trace

        assert main(["trace", "ATR-FI"]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate_chrome_trace(payload)
        assert payload["otherData"]["scheduler"] == "cds"
        phases = {event["ph"] for event in payload["traceEvents"]}
        assert {"M", "X", "i"} <= phases

    def test_json_format_carries_report_and_decisions(self, capsys):
        import json

        assert main(["trace", "E1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["total_cycles"] > 0
        assert payload["decisions"]
        kinds = {decision["kind"] for decision in payload["decisions"]}
        assert "rf.result" in kinds
        assert any(kind.startswith("alloc.") for kind in kinds)

    def test_text_format_with_decisions(self, capsys):
        assert main(["trace", "E1", "--format", "text", "--decisions"]) == 0
        out = capsys.readouterr().out
        assert "timeline" in out
        assert "decision trace:" in out
        assert "rf.result" in out

    def test_basic_scheduler_traces_too(self, capsys):
        assert main(["trace", "E1", "--scheduler", "basic",
                     "--format", "text"]) == 0
        assert "timeline" in capsys.readouterr().out

    def test_output_writes_file(self, tmp_path, capsys):
        import json

        target = tmp_path / "trace.json"
        assert main(["trace", "E1", "--output", str(target)]) == 0
        assert f"wrote {target}" in capsys.readouterr().out
        payload = json.loads(target.read_text())
        assert payload["traceEvents"]

    def test_unknown_format_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "E1", "--format", "xml"])


class TestCacheCli:
    def test_stats_on_empty_dir(self, tmp_path, capsys):
        assert main(["cache", "stats",
                     "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "entries (current): 0" in out
        assert "code fingerprint:" in out

    def test_corpus_fills_then_stats_then_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        assert main(["corpus", "--seeds", "2",
                     "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries (current): 0" not in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared" in capsys.readouterr().out

    def test_clear_refuses_foreign_directory(self, tmp_path):
        foreign = tmp_path / "not-a-cache"
        foreign.mkdir()
        (foreign / "keep.txt").write_text("data")
        with pytest.raises(SystemExit, match="refusing"):
            main(["cache", "clear", "--cache-dir", str(foreign)])
        assert (foreign / "keep.txt").exists()
