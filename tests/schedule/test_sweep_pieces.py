"""``DS(C_c)`` as affine pieces in RF, and the closed-form common RF.

:func:`repro.core.metrics.cluster_sweep_pieces` claims that a cluster's
occupancy is the maximum of a few lines ``a * rf + b`` (plus the kept
residents' own line), and :func:`repro.schedule.rf.common_rf_bound`
turns that into the highest common RF with no search.  Both are checked
here against the naive event sweep
(:func:`~repro.core.metrics.cluster_data_size_naive`) and the plain
gallop + bisection over it (:func:`repro.schedule.rf.max_common_rf` with
``occupancy_fn``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.params import Architecture
from repro.core.dataflow import analyze_dataflow
from repro.core.metrics import (
    cluster_data_size_naive,
    cluster_sweep_peak,
    cluster_sweep_pieces,
    resident_keep_line,
)
from repro.obs.events import DecisionTrace
from repro.schedule.occupancy import OccupancyEngine
from repro.schedule.rf import max_common_rf
from repro.schedule.tf import retention_candidates
from repro.workloads.random_gen import random_application
from repro.workloads.spec import paper_experiments

RF_RANGE = range(1, 65)


def _reference_rf(dataflow, fb_words, max_rf=0):
    return max_common_rf(
        dataflow, fb_words, max_rf=max_rf,
        occupancy_fn=cluster_data_size_naive,
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    invariant_tables=st.integers(min_value=0, max_value=2),
    cross_set=st.booleans(),
    data=st.data(),
)
def test_pieces_reproduce_the_sweep(seed, invariant_tables, cross_set, data):
    application, clustering = random_application(
        seed, invariant_tables=invariant_tables
    )
    dataflow = analyze_dataflow(application, clustering)
    candidates = retention_candidates(dataflow, include_cross_set=cross_set)
    chosen = data.draw(st.lists(
        st.sampled_from(candidates), unique_by=lambda c: c.name,
    )) if candidates else []
    for keeps in ((), tuple(chosen)):
        for cluster in clustering:
            slope, intercept, local = resident_keep_line(
                dataflow, cluster.index, keeps
            )
            pieces = cluster_sweep_pieces(dataflow, cluster.index, local)
            assert len(pieces) <= 2 * len(cluster.kernel_names) + 1
            series = []
            for rf in RF_RANGE:
                peak = max(a * rf + b for a, b, _ in pieces)
                assert peak == cluster_sweep_peak(
                    dataflow, cluster.index, rf, local
                )
                words = slope * rf + intercept + peak
                assert words == cluster_data_size_naive(
                    dataflow, cluster.index, rf, keeps
                ), (seed, cluster.index, rf, keeps)
                series.append(words)
            steps = [b - a for a, b in zip(series, series[1:])]
            assert all(step >= 0 for step in steps), (seed, cluster.index)
            assert all(
                later >= earlier for earlier, later in zip(steps, steps[1:])
            ), (seed, cluster.index)


def _engine_bound(dataflow, fb_words, max_rf=0):
    engine = OccupancyEngine(dataflow, fb_words)
    engine.recorder = DecisionTrace()
    rf = engine.max_common_rf(max_rf=max_rf)
    (event,) = engine.recorder.of_kind("rf.bound")
    assert event.detail["rf"] == rf
    return rf, event.detail


def _check_bound(dataflow, fb_words, max_rf=0):
    """Closed form == reference search, and the bound proves it."""
    rf, detail = _engine_bound(dataflow, fb_words, max_rf)
    assert rf == _reference_rf(dataflow, fb_words, max_rf)
    assert rf == max_common_rf(dataflow, fb_words, max_rf=max_rf)
    cap = max_rf or dataflow.application.total_iterations
    kind = detail["bound"]
    if kind == "cap":
        assert rf == cap
    elif kind == "line":
        a, b = detail["a"], detail["b"]
        assert a * rf + b <= fb_words < a * (rf + 1) + b
        assert 1 <= rf < cap
    else:
        assert kind == "infeasible" and rf == 0
        assert detail["a"] + detail["b"] > fb_words
        worst = max(
            cluster_data_size_naive(dataflow, cluster.index, 1)
            for cluster in dataflow.clustering
        )
        assert detail["a"] + detail["b"] == worst
    return kind


def test_closed_form_matches_reference_on_table1():
    kinds = set()
    for spec in paper_experiments():
        application, clustering = spec.build()
        dataflow = analyze_dataflow(application, clustering)
        for fb in ("1K", "2K", "4K", "8K", "16K", "32K"):
            fb_words = Architecture.m1(fb).fb_set_words
            kinds.add(_check_bound(dataflow, fb_words))
            for max_rf in (1, 3, 7):
                kinds.add(_check_bound(dataflow, fb_words, max_rf))
    assert kinds == {"cap", "line", "infeasible"}


@pytest.mark.parametrize("chunk", range(4))
def test_closed_form_matches_reference_on_random_applications(chunk):
    kinds = set()
    for seed in range(chunk * 80, (chunk + 1) * 80):
        application, clustering = random_application(
            seed, iterations=48, invariant_tables=seed % 3
        )
        dataflow = analyze_dataflow(application, clustering)
        for fb in ("4K", "8K", "16K", "32K"):
            fb_words = Architecture.m1(fb).fb_set_words
            kinds.add(_check_bound(dataflow, fb_words))
        kinds.add(_check_bound(dataflow, 1024, max_rf=5))
    assert kinds == {"cap", "line", "infeasible"}
