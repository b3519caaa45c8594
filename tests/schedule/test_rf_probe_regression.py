"""The RF search must never probe the same reuse factor twice.

Regression for the gallop hand-off bug: after the gallop loop exited on
a failed ``check(min(high * 2, cap))``, the binary-search seeding
re-probed that same value — a wasted occupancy sweep and a duplicate
``rf.probe`` decision-trace event (seed 7 at 2K emitted ``(4, False)``
twice).  Both the naive search (:func:`repro.schedule.rf.max_common_rf`,
behind :class:`~repro.schedule.occupancy.ReferenceOccupancy`) and the
incremental engine
(:meth:`repro.schedule.occupancy.OccupancyEngine.max_common_rf`) had
the bug.
"""

import pytest

from repro.arch.params import Architecture
from repro.schedule.base import ScheduleOptions
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.schedule.occupancy import ReferenceOccupancy
from repro.workloads.random_gen import random_application


def _probe_sequence(seed, fb_words, *, engine, scheduler_cls=DataScheduler):
    application, clustering = random_application(seed)
    architecture = Architecture.m1(fb_words)
    options = ScheduleOptions(decision_trace=True)
    if engine == "naive":
        scheduler_cls = type(
            f"Reference{scheduler_cls.__name__}", (scheduler_cls,),
            {"occupancy_cls": ReferenceOccupancy},
        )
    schedule = scheduler_cls(architecture, options).schedule(
        application, clustering
    )
    return [
        (event.detail["rf"], event.detail["fits"])
        for event in schedule.decisions.of_kind("rf.probe")
    ], schedule


def test_seed7_at_2k_probes_each_rf_once():
    """The exact reproducer: the old code probed (4, False) twice."""
    probes, schedule = _probe_sequence(7, 2048, engine="incremental")
    assert probes == [(1, True), (2, True), (4, False), (3, False)]
    assert schedule.rf == 2


@pytest.mark.parametrize("engine", ["incremental", "naive"])
@pytest.mark.parametrize("scheduler_cls", [DataScheduler,
                                           CompleteDataScheduler])
def test_rf_search_never_probes_twice(engine, scheduler_cls):
    for seed in range(20):
        for fb_words in (1024, 2048, 4096):
            try:
                probes, _ = _probe_sequence(
                    seed, fb_words, engine=engine,
                    scheduler_cls=scheduler_cls,
                )
            except Exception:
                continue  # infeasible at this size: no trace to check
            rf_values = [rf for rf, _ in probes]
            assert len(rf_values) == len(set(rf_values)), (
                f"seed {seed} at {fb_words}: duplicate probe in {probes}"
            )


@pytest.mark.parametrize("scheduler_cls", [DataScheduler,
                                           CompleteDataScheduler])
def test_both_engines_emit_identical_probe_traces(scheduler_cls):
    for seed in range(12):
        incremental, s1 = _probe_sequence(
            seed, 2048, engine="incremental", scheduler_cls=scheduler_cls
        )
        naive, s2 = _probe_sequence(
            seed, 2048, engine="naive", scheduler_cls=scheduler_cls
        )
        assert incremental == naive
        assert s1.rf == s2.rf
