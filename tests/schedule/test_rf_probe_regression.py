"""The common RF against the reference search, and the search itself.

The product RF is a closed form over sweep pieces
(:meth:`repro.schedule.occupancy.OccupancyEngine.max_common_rf`).  The
reference path (:class:`~repro.schedule.occupancy.ReferenceOccupancy`)
still gallops and bisects over the naive occupancy
(:func:`repro.schedule.rf.max_common_rf` with ``occupancy_fn``).  Seed
7 at 2K is the old gallop hand-off reproducer: the search once probed
``(4, False)`` twice.  It stays a case here, for the plain search's
probe sequence and for the closed form's ``rf.bound``.
"""

import pytest

from repro.arch.params import Architecture
from repro.core.dataflow import analyze_dataflow
from repro.core.metrics import cluster_data_size_naive
from repro.errors import InfeasibleScheduleError
from repro.schedule.base import ScheduleOptions
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.schedule.occupancy import ReferenceOccupancy
from repro.schedule.rf import max_common_rf
from repro.workloads.random_gen import random_application


def _schedule(seed, fb_words, *, engine, scheduler_cls=DataScheduler):
    application, clustering = random_application(seed)
    architecture = Architecture.m1(fb_words)
    options = ScheduleOptions(decision_trace=True)
    if engine == "naive":
        scheduler_cls = type(
            f"Reference{scheduler_cls.__name__}", (scheduler_cls,),
            {"occupancy_cls": ReferenceOccupancy},
        )
    return scheduler_cls(architecture, options).schedule(
        application, clustering
    )


def _reference_probes(dataflow, fb_words):
    """The plain search's ``(rf, fits)`` probes, in order."""
    calls = []

    def occupancy_fn(dataflow, cluster_index, rf, keeps):
        words = cluster_data_size_naive(dataflow, cluster_index, rf, keeps)
        calls.append((rf, words <= fb_words))
        return words

    rf = max_common_rf(dataflow, fb_words, occupancy_fn=occupancy_fn)
    probes = []
    for probe_rf, fits in calls:
        if probes and probes[-1][0] == probe_rf:
            probes[-1] = (probe_rf, probes[-1][1] and fits)
        else:
            probes.append((probe_rf, fits))
    return rf, probes


def test_seed7_at_2k_probes_each_rf_once():
    """The exact reproducer: the old code probed (4, False) twice."""
    application, clustering = random_application(7)
    dataflow = analyze_dataflow(application, clustering)
    rf, probes = _reference_probes(dataflow, 2048)
    assert probes == [(1, True), (2, True), (4, False), (3, False)]
    assert rf == 2
    schedule = _schedule(7, 2048, engine="incremental")
    assert schedule.rf == 2
    (bound,) = schedule.decisions.of_kind("rf.bound")
    detail = bound.detail
    assert detail["bound"] == "line"
    assert detail["a"] * 2 + detail["b"] <= 2048 < detail["a"] * 3 + detail["b"]


@pytest.mark.parametrize("engine", ["incremental", "naive"])
@pytest.mark.parametrize("scheduler_cls", [DataScheduler,
                                           CompleteDataScheduler])
def test_rf_search_never_probes_twice(engine, scheduler_cls):
    """The plain search probes each rf once, and the scheduler on
    either engine picks the RF it finds."""
    for seed in range(20):
        application, clustering = random_application(seed)
        dataflow = analyze_dataflow(application, clustering)
        for fb_words in (1024, 2048, 4096):
            expected, probes = _reference_probes(dataflow, fb_words)
            rf_values = [rf for rf, _ in probes]
            assert len(rf_values) == len(set(rf_values)), (
                f"seed {seed} at {fb_words}: duplicate probe in {probes}"
            )
            try:
                schedule = _schedule(
                    seed, fb_words, engine=engine,
                    scheduler_cls=scheduler_cls,
                )
            except InfeasibleScheduleError:
                assert expected == 0, (seed, fb_words)
                continue
            assert schedule.rf == expected, (seed, fb_words)


@pytest.mark.parametrize("scheduler_cls", [DataScheduler,
                                           CompleteDataScheduler])
def test_both_engines_choose_identical_rf(scheduler_cls):
    for seed in range(12):
        incremental = _schedule(
            seed, 2048, engine="incremental", scheduler_cls=scheduler_cls
        )
        naive = _schedule(
            seed, 2048, engine="naive", scheduler_cls=scheduler_cls
        )
        assert incremental.rf == naive.rf
        assert len(incremental.decisions.of_kind("rf.bound")) == 1
        assert naive.decisions.of_kind("rf.bound") == []
