"""Benchmarks: ablations of the design choices DESIGN.md calls out.

Each ablation isolates one mechanism of the Complete Data Scheduler and
checks it earns its keep on the paper's workloads:

* TF ranking vs. size-first vs. discovery-order retention;
* RF-first (the paper's policy) vs. joint (RF, keeps) exploration;
* context-scheduler DMA orderings;
* loop fission (RF) alone, retention alone, and both together.
"""

import pytest

from repro.analysis.ablation import (
    dma_policy_ablation,
    keep_policy_ablation,
    rf_policy_ablation,
)
from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.schedule.base import ScheduleOptions
from repro.schedule.complete import CompleteDataScheduler
from repro.sim.engine import Simulator
from repro.workloads.spec import paper_experiments

_SPECS = {spec.id: spec for spec in paper_experiments()}
_ABLATION_ROWS = ["E1", "E1*", "ATR-SLD", "MPEG"]


@pytest.mark.parametrize("experiment_id", _ABLATION_ROWS)
def test_keep_policy_ablation(benchmark, experiment_id):
    """The paper's TF ranking is never beaten by naive orders by more
    than noise, and strictly helps somewhere."""
    spec = _SPECS[experiment_id]
    results = benchmark(keep_policy_ablation, spec)
    by_variant = {result.variant: result for result in results}
    tf = by_variant["keep=tf"]
    assert tf.feasible
    for variant, result in by_variant.items():
        if result.feasible:
            assert tf.total_cycles <= result.total_cycles * 1.02, variant
    print(f"\n{spec.id}: " + ", ".join(
        f"{r.variant}={r.total_cycles}" for r in results if r.feasible
    ))


@pytest.mark.parametrize("experiment_id", _ABLATION_ROWS)
def test_rf_policy_ablation(benchmark, experiment_id):
    """Joint exploration can only match or beat RF-first (it includes
    it in its search space) at the cost of a bigger search."""
    spec = _SPECS[experiment_id]
    results = benchmark(rf_policy_ablation, spec)
    by_variant = {result.variant: result for result in results}
    paper = by_variant["rf=max_then_keep"]
    joint = by_variant["rf=joint"]
    assert paper.feasible and joint.feasible
    assert joint.total_cycles <= paper.total_cycles * 1.02


@pytest.mark.parametrize("experiment_id", _ABLATION_ROWS)
def test_dma_policy_ablation(benchmark, experiment_id):
    """Contexts-first ([4]), the one placement-sound ordering, against
    the two orderings that let a visit's loads go before the previous
    same-set visit's stores.

    The loads-first variant can report better cycle counts, but its
    coexisting arrivals and departures are not budgeted by the
    ``DS(C_c) <= FBS`` feasibility check.  It is measured here as an
    upper bound on what relaxing the space ordering could buy, not as a
    legal policy.  Adaptive reorders only where the budget allows."""
    spec = _SPECS[experiment_id]
    results = benchmark(dma_policy_ablation, spec)
    by_variant = {result.variant: result for result in results}
    default = by_variant["dma=contexts_first"]
    unsound = by_variant["dma=loads_first"]
    adaptive = by_variant["dma=adaptive"]
    assert default.feasible and adaptive.feasible
    # The space-relaxed bound is never *worse* than the sound ordering.
    assert unsound.total_cycles <= default.total_cycles * 1.02
    # Adaptive is at least as fast as the default; where the occupancy
    # budget allows, it matches the relaxed bound.
    assert adaptive.total_cycles <= default.total_cycles
    assert adaptive.total_cycles >= unsound.total_cycles
    print(
        f"\n{spec.id}: contexts_first={default.total_cycles} "
        f"adaptive={adaptive.total_cycles} "
        f"loads_first(space-relaxed bound)={unsound.total_cycles}"
    )


def test_mechanism_decomposition(benchmark):
    """Disentangle the two CDS mechanisms on E1*: loop fission alone
    (RF capped vs free) and retention alone (keeps on RF=1)."""
    spec = _SPECS["E1*"]
    application, clustering = spec.build()
    architecture = Architecture.m1(spec.fb)

    def run(options):
        schedule = CompleteDataScheduler(architecture, options).schedule(
            application, clustering
        )
        report = Simulator(MorphoSysM1(architecture)).run(
            generate_program(schedule)
        )
        return schedule, report

    def decompose():
        return {
            "full": run(ScheduleOptions()),
            "rf_only": None,
            "keeps_only": run(ScheduleOptions(rf_cap=1)),
        }

    results = benchmark.pedantic(decompose, rounds=1, iterations=1)
    full_schedule, full_report = results["full"]
    keeps_schedule, keeps_report = results["keeps_only"]
    assert full_schedule.rf > keeps_schedule.rf == 1
    assert keeps_schedule.keeps  # retention still active at RF=1
    # Both mechanisms matter: full CDS beats retention-only.
    assert full_report.total_cycles < keeps_report.total_cycles
    print(
        f"\nE1* decomposition: full={full_report.total_cycles} "
        f"(RF={full_schedule.rf}, keeps={len(full_schedule.keeps)}), "
        f"keeps-only={keeps_report.total_cycles} "
        f"(keeps={len(keeps_schedule.keeps)})"
    )
