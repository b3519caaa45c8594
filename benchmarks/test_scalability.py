"""Benchmarks: compile-time scalability of the toolchain itself.

The paper's schedulers run at compilation time, so their own cost
matters.  These benchmarks track how the pipeline stages scale with
application size (random workloads of increasing size) and with the
design-space size (kernel-scheduler exploration).
"""

import pytest

from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.codegen.verifier import verify_program
from repro.core.dataflow import analyze_dataflow
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.schedule.kernel_scheduler import KernelScheduler
from repro.sim.engine import Simulator
from repro.workloads.random_gen import random_application

_ARCH = Architecture.m1("8K")


@pytest.mark.parametrize("clusters", [3, 5, 8])
def test_cds_scheduling_scales(benchmark, clusters):
    application, clustering = random_application(
        123, max_clusters=clusters, iterations=8
    )
    scheduler = CompleteDataScheduler(_ARCH)
    schedule = benchmark(scheduler.schedule, application, clustering)
    assert schedule.rf >= 1


def test_cds_scheduling_large(benchmark):
    """CDS scheduling of a 32-cluster / 64-iteration workload on a 16K
    frame buffer."""
    application, clustering = random_application(
        123, max_clusters=32, iterations=64
    )
    scheduler = CompleteDataScheduler(Architecture.m1("16K"))
    schedule = benchmark(scheduler.schedule, application, clustering)
    assert schedule.rf >= 1


def test_corpus_study_throughput(benchmark):
    """The three-scheduler corpus study over 20 seeded workloads at
    16K / 48 iterations (``perfbench``'s ``corpus_cold`` runs one seed
    per op at the same size)."""
    from repro.analysis.corpus import corpus_study

    stats = benchmark(corpus_study, range(20), fb="16K", iterations=48)
    assert stats.feasible > 0


def test_dataflow_analysis(benchmark):
    application, clustering = random_application(77, iterations=8)
    dataflow = benchmark(analyze_dataflow, application, clustering)
    assert len(dataflow.objects) == len(application.objects)


def test_program_generation(benchmark):
    application, clustering = random_application(88, iterations=16)
    schedule = DataScheduler(_ARCH).schedule(application, clustering)
    program = benchmark(generate_program, schedule)
    assert len(program) == schedule.rounds * len(clustering)


def test_program_verification(benchmark):
    application, clustering = random_application(88, iterations=16)
    schedule = DataScheduler(_ARCH).schedule(application, clustering)
    program = generate_program(schedule)
    benchmark(verify_program, program)


def test_simulation_throughput(benchmark):
    application, clustering = random_application(99, iterations=16)
    schedule = DataScheduler(_ARCH).schedule(application, clustering)
    program = generate_program(schedule)

    def simulate_once():
        return Simulator(MorphoSysM1(_ARCH)).run(program)

    report = benchmark(simulate_once)
    assert report.total_cycles > 0


def test_kernel_scheduler_exploration(benchmark):
    """Exhaustive exploration of 2^(K-1) partitions for K=6."""
    application, _ = random_application(55, max_clusters=3,
                                        max_kernels_per_cluster=2,
                                        iterations=4)
    explorer = KernelScheduler(_ARCH, DataScheduler(_ARCH))
    result = benchmark(explorer.explore, application)
    assert result.estimated_cycles > 0
