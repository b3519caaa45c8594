"""Unit tests for the structured decision trace container."""

import pytest

from repro.obs.events import DECISION_KINDS, Decision, DecisionTrace


class TestDecision:
    def test_describe_with_subject_and_detail(self):
        decision = Decision(
            seq=3, kind="keep.accept", subject="filter_bank",
            detail={"rf": 2, "reason": "fits"},
        )
        text = decision.describe()
        assert text.startswith("[3] keep.accept filter_bank")
        assert "rf=2" in text
        assert "reason='fits'" in text

    def test_describe_without_subject(self):
        decision = Decision(seq=0, kind="rf.bound", subject="",
                            detail={"rf": 4, "bound": "cap"})
        assert decision.describe() == "[0] rf.bound (rf=4, bound='cap')"


class TestDecisionTrace:
    def test_record_appends_gap_free_sequence(self):
        trace = DecisionTrace()
        for kind in ("tf.rank", "keep.accept", "rf.bound"):
            trace.record(kind, "obj")
        assert [event.seq for event in trace] == [0, 1, 2]
        assert len(trace) == 3
        assert trace.events == tuple(trace)

    def test_unknown_kind_rejected(self):
        trace = DecisionTrace()
        with pytest.raises(ValueError, match="unknown decision kind"):
            trace.record("keep.maybe", "obj")
        assert len(trace) == 0

    def test_every_documented_kind_is_recordable(self):
        trace = DecisionTrace()
        for kind in DECISION_KINDS:
            trace.record(kind, "x")
        assert len(trace) == len(DECISION_KINDS)

    def test_why_indexes_by_subject_in_order(self):
        trace = DecisionTrace()
        trace.record("tf.rank", "a", rank=1)
        trace.record("tf.rank", "b", rank=2)
        trace.record("keep.accept", "a", rf=2)
        about_a = trace.why("a")
        assert [event.kind for event in about_a] == ["tf.rank", "keep.accept"]
        assert trace.why("missing") == []

    def test_global_decisions_not_indexed_under_empty_subject(self):
        trace = DecisionTrace()
        trace.record("rf.bound", rf=2, bound="cap")
        assert trace.why("") == []
        assert len(trace) == 1

    def test_explain_renders_or_reports_absence(self):
        trace = DecisionTrace()
        trace.record("keep.reject", "a", reason="too big")
        assert "keep.reject a" in trace.explain("a")
        assert "no recorded decision" in trace.explain("b")

    def test_of_kind_and_keep_queries(self):
        trace = DecisionTrace()
        trace.record("keep.accept", "a")
        trace.record("keep.reject", "b")
        trace.record("keep.accept", "c")
        assert [d.subject for d in trace.accepted_keeps()] == ["a", "c"]
        assert [d.subject for d in trace.rejected_keeps()] == ["b"]
        assert len(trace.of_kind("keep.accept", "keep.reject")) == 3

    def test_render_filters_by_kind(self):
        trace = DecisionTrace()
        trace.record("tf.rank", "a")
        trace.record("keep.accept", "a")
        full = trace.render()
        assert "tf.rank" in full and "keep.accept" in full
        only_keeps = trace.render(kinds=["keep.accept"])
        assert "tf.rank" not in only_keeps
        assert DecisionTrace().render() == "(empty decision trace)"

    def test_to_dicts_is_json_ready(self):
        import json

        trace = DecisionTrace()
        trace.record("alloc.place", "a", extents=[[0, 4]])
        dumped = trace.to_dicts()
        assert dumped == [{
            "seq": 0, "kind": "alloc.place", "subject": "a",
            "detail": {"extents": [[0, 4]]},
        }]
        json.dumps(dumped)
