"""The ``repro analyze`` command."""

import json

import pytest

from repro.cli import main


def test_analyze_single_experiment_text(capsys):
    assert main(["analyze", "E1"]) == 0
    out = capsys.readouterr().out
    assert "1 clean, 0 with findings, 0 skipped" in out


def test_analyze_json_report(capsys):
    assert main(["analyze", "E1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["totals"] == {
        "targets": 1, "errors": 0, "hazard_findings": 0,
    }
    report = payload["reports"][0]
    assert report["target"] == "E1"
    assert report["scheduler"] == "cds"
    assert report["policy"] == "contexts_first"
    assert report["clean"] is True
    assert "by_severity" in report["summary"]


def test_analyze_unsound_policy_fails(capsys):
    assert main(["analyze", "E1", "--scheduler", "ds",
                 "--policy", "loads_first"]) == 1
    out = capsys.readouterr().out
    assert "HAZ001" in out
    assert "1 with findings" in out


def test_analyze_all_schedulers_sound_policies(capsys):
    assert main(["analyze", "E2", "--scheduler", "all"]) == 0
    out = capsys.readouterr().out
    assert "3 clean, 0 with findings, 0 skipped" in out


def test_analyze_corpus(capsys):
    assert main(["analyze", "corpus", "--scheduler", "cds"]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out  # summary line renders


def test_analyze_writes_report_file(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["analyze", "E1", "--output", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["totals"]["errors"] == 0
    out = capsys.readouterr().out
    assert f"wrote {report}" in out


def test_analyze_verbose_lists_rules(capsys):
    assert main(["analyze", "E1", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "HAZ001" in out  # rules-checked listing includes the family


def test_analyze_unknown_target():
    from repro.errors import ReproError

    with pytest.raises(ReproError, match="unknown lint target"):
        main(["analyze", "NOPE"])
