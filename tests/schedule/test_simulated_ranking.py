"""Candidates are ranked by simulated cycles.

The kernel scheduler and ``rf_policy="joint"`` both pick among
tentative schedules.  They rank them by the event-driven simulator, the
model every reported number comes from, so each pick is the fastest
candidate in simulation.  The checks below simulate with
:class:`~repro.sim.engine.Simulator` directly rather than through the
ranking helper.
"""

import pytest

from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.core.cluster import Clustering
from repro.errors import InfeasibleScheduleError
from repro.schedule.base import ScheduleOptions
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.kernel_scheduler import (
    KernelScheduler,
    enumerate_partitions,
)
from repro.sim.engine import Simulator
from repro.workloads.atr import atr_sld
from repro.workloads.random_gen import random_application
from repro.workloads.spec import paper_experiments


def _cycles(schedule, architecture):
    return Simulator(MorphoSysM1(architecture), trace=False).run(
        generate_program(schedule)
    ).total_cycles


@pytest.mark.parametrize(
    "spec", list(paper_experiments()), ids=lambda spec: spec.id
)
def test_joint_never_slower_than_rf_first(spec):
    """The joint sweep contains the RF-first schedule, so ranked by the
    simulator it can only match or beat it (ATR-FI* lost 4.1% when the
    sweep ranked by an analytic estimate)."""
    application, clustering = spec.build()
    architecture = Architecture.m1(spec.fb_words)
    rf_first = CompleteDataScheduler(architecture).schedule(
        application, clustering
    )
    joint = CompleteDataScheduler(
        architecture, ScheduleOptions(rf_policy="joint")
    ).schedule(application, clustering)
    assert _cycles(joint, architecture) <= _cycles(rf_first, architecture)


def _random_small():
    application, _ = random_application(
        1, max_clusters=3, max_kernels_per_cluster=2, iterations=4
    )
    return application


def _random_bench():
    application, _ = random_application(
        55, max_clusters=3, max_kernels_per_cluster=2, iterations=4
    )
    return application


@pytest.mark.parametrize(
    "build,fb",
    [(_random_small, "2K"), (_random_bench, "2K"),
     (lambda: atr_sld()[0], "8K")],
    ids=["random-1@2K", "random-55@2K", "ATR-SLD@8K"],
)
def test_explore_picks_fastest_partition(build, fb):
    """Exhaustive exploration returns the first feasible partition with
    the fewest simulated cycles."""
    application = build()
    architecture = Architecture.m1(fb)
    scheduler = CompleteDataScheduler(architecture)
    best = None
    for sizes in enumerate_partitions(len(application.kernels)):
        clustering = Clustering.from_sizes(application, sizes)
        try:
            schedule = scheduler.schedule(application, clustering)
        except InfeasibleScheduleError:
            continue
        cycles = _cycles(schedule, architecture)
        if best is None or cycles < best[0]:
            best = (cycles, clustering)
    result = KernelScheduler(architecture, scheduler).explore(application)
    assert _cycles(result.schedule, architecture) == best[0]
    assert result.clustering == best[1]
    assert result.cycles == best[0]


def test_beam_search_simulates_each_partition_once(monkeypatch):
    """Beyond ``exhaustive_limit`` the beam search scores partial
    partitions; a group-size vector met again (a finished state carried
    to the next level, a prefix whose trailing cluster completes it, or
    the final beam ranked by ``explore``) is not simulated again.  On
    ATR-SLD at 8K that is 11 simulations, one per distinct partition
    (26 when every state was re-scored), with the pick unchanged."""
    import repro.sim.engine as engine

    calls = []
    real = engine.simulated_cycles

    def counted(schedule, architecture):
        calls.append(tuple(
            len(cluster.kernel_names) for cluster in schedule.clustering
        ))
        return real(schedule, architecture)

    monkeypatch.setattr(engine, "simulated_cycles", counted)
    architecture = Architecture.m1("8K")
    result = KernelScheduler(
        architecture, CompleteDataScheduler(architecture),
        exhaustive_limit=2, beam_width=4,
    ).explore(atr_sld()[0])
    assert len(calls) == len(set(calls)) == 11
    assert result.cycles == 618_160
    assert [len(c.kernel_names) for c in result.clustering] == [1, 1, 1, 2]
    assert (result.candidates_evaluated, result.candidates_infeasible) == (4, 0)
