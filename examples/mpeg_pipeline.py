#!/usr/bin/env python3
"""MPEG coding loop with REAL kernels on the functional RC-array model.

The pipeline DCT -> quantise -> dequantise -> IDCT -> zig-zag runs on
actual 8x8 integer blocks: the kernel library supplies RC-array context
programs whose outputs are checked against NumPy references, and the
scheduled execution (with the Complete Data Scheduler's retention of
the quantised coefficients between same-set clusters) is verified to
produce bit-identical results to a direct execution.

Run:  python examples/mpeg_pipeline.py
"""

import numpy as np

from repro import Architecture, CompleteDataScheduler, MorphoSysM1, Simulator
from repro.codegen import generate_program
from repro.workloads.mpeg import mpeg_functional


def main() -> None:
    application, clustering, impls = mpeg_functional()
    architecture = Architecture.m1("2K")

    schedule = CompleteDataScheduler(architecture).schedule(
        application, clustering
    )
    print(schedule.describe())
    print()

    program = generate_program(schedule)
    print(program.listing(max_visits=3))
    print()

    machine = MorphoSysM1(architecture)
    report = Simulator(machine).run(
        program, functional=True, kernel_impls=impls, seed=7
    )

    print(f"makespan            : {report.total_cycles} cycles")
    print(f"data traffic        : {report.data_words} words")
    print(f"context traffic     : {report.context_words} words")
    print(f"RC-array utilisation: {report.rc_utilisation:.0%}")
    print(f"functional check    : "
          f"{'PASS' if report.functional_verified else 'FAIL'}")
    print()

    # Show one real result: iteration 0's zig-zag-packed coefficients.
    packed = machine.external_memory.get("z", 0)
    reconstructed = machine.external_memory.get("xr", 0).reshape(8, 8)
    print("zig-zag coefficients (first 16):", packed[:16].tolist())
    print("reconstructed block row 0      :",
          reconstructed[0].tolist())
    original = machine.external_memory.get("x", 0).reshape(8, 8)
    error = np.abs(reconstructed - original).max()
    print(f"max reconstruction error vs original: {error} "
          f"(quantiser step is 16)")

    print()
    print(report.gantt())


if __name__ == "__main__":
    main()
