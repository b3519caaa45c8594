"""The pieces memo behind :meth:`OccupancyEngine.max_common_rf`.

The common RF is a closed form over each cluster's sweep pieces (lines
``a * rf + b``), memoised per ``(cluster, local-kept names)`` and not
per ``rf``.  These tests pin the RF against the reference search
(:func:`repro.schedule.rf.max_common_rf` over
:func:`~repro.core.metrics.cluster_data_size_naive`) and count piece
computations, so a memo that stops serving repeats, or that mixes up
keep sets, fails here.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.params import Architecture
from repro.core.dataflow import analyze_dataflow
from repro.core.metrics import cluster_data_size_naive
from repro.obs.events import DecisionTrace
from repro.schedule import occupancy
from repro.schedule.occupancy import OccupancyEngine
from repro.schedule.rf import max_common_rf as reference_max_common_rf
from repro.schedule.tf import retention_candidates
from repro.workloads.random_gen import random_application


def _engine(seed, fb="2K", iterations=16):
    application, clustering = random_application(seed, iterations=iterations)
    dataflow = analyze_dataflow(application, clustering)
    architecture = Architecture.m1(fb)
    return OccupancyEngine(dataflow, architecture.fb_set_words), dataflow


def _reference(dataflow, fb_set_words, keeps=()):
    return reference_max_common_rf(
        dataflow, fb_set_words, keeps=keeps,
        occupancy_fn=cluster_data_size_naive,
    )


def _count_pieces(monkeypatch):
    calls = []
    original = occupancy.cluster_sweep_pieces

    def counting(dataflow, cluster_index, local_kept):
        calls.append((cluster_index, local_kept))
        return original(dataflow, cluster_index, local_kept)

    monkeypatch.setattr(occupancy, "cluster_sweep_pieces", counting)
    return calls


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=5000), st.sampled_from(["1K", "2K", "4K"]))
def test_closed_form_matches_reference_search(seed, fb):
    engine, dataflow = _engine(seed, fb)
    assert engine.max_common_rf() == _reference(dataflow, engine.fb_set_words)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_repeat_search_runs_zero_new_sweeps(seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _count_pieces(monkeypatch)
        engine, dataflow = _engine(seed)
        first = engine.max_common_rf()
        # One piece computation per cluster, then none on a repeat.
        assert len(calls) == len(dataflow.clustering)
        assert engine.max_common_rf() == first
        assert len(calls) == len(dataflow.clustering)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_keep_set_fingerprints_are_separate(seed):
    engine, dataflow = _engine(seed)
    candidates = retention_candidates(dataflow)
    if not candidates:
        return
    keeps = (candidates[0],)
    bare = engine.max_common_rf()
    with_keep = engine.max_common_rf(keeps=keeps)
    # The keep's pieces live under their own local-kept key: the bare
    # answer is unchanged afterwards, and each matches the reference.
    assert engine.max_common_rf() == bare
    assert engine.max_common_rf(keeps=keeps) == with_keep
    assert bare == _reference(dataflow, engine.fb_set_words)
    assert with_keep == _reference(dataflow, engine.fb_set_words, keeps)


def test_trace_records_each_evaluation_once():
    engine, _ = _engine(7, fb="2K")
    engine.recorder = DecisionTrace()
    rf = engine.max_common_rf()
    bounds = engine.recorder.of_kind("rf.bound")
    assert [event.detail["rf"] for event in bounds] == [rf]
    # A repeat search records one more, identical, bound.
    engine.max_common_rf()
    again = engine.recorder.of_kind("rf.bound")
    assert len(again) == 2
    assert again[0].detail == again[1].detail
