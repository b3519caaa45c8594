#!/usr/bin/env python3
"""Kernel-schedule design-space exploration (the paper's framework [7]).

The kernel scheduler explores every contiguous partition of the kernel
sequence into clusters, evaluates each with a tentative Complete Data
Scheduler run, and picks the partition with the fewest simulated
cycles.  This example sweeps the ATR-SLD chain at three memory
sizes and shows how the best clustering changes with the frame buffer.

Run:  python examples/design_space_exploration.py
"""

from repro import Architecture, CompleteDataScheduler, KernelScheduler, simulate
from repro.workloads.atr import atr_sld


def main() -> None:
    application, paper_clustering = atr_sld()

    for fb in ("8K", "10K", "12K"):
        architecture = Architecture.m1(fb)
        scheduler = CompleteDataScheduler(architecture)
        explorer = KernelScheduler(architecture, scheduler)
        result = explorer.explore(application)

        paper_schedule = None
        try:
            paper_schedule = scheduler.schedule(
                application, paper_clustering
            )
        except Exception:
            pass

        print(f"=== FB = {fb} ===")
        print(f"partitions evaluated : {result.candidates_evaluated} "
              f"(+{result.candidates_infeasible} infeasible)")
        print(f"best clustering      : {result.clustering}")
        print(f"simulated cycles     : {result.cycles}")
        if paper_schedule is not None:
            report = simulate(paper_schedule, architecture)
            print(f"paper clustering     : {paper_clustering} "
                  f"-> simulated {report.total_cycles}")
        print()


if __name__ == "__main__":
    main()
