#!/usr/bin/env python3
"""Wavelet image codec with extractor-derived kernel timings.

Unlike the other examples, every kernel's cycle count here is measured
by the information extractor — executing the kernel's RC-array context
program on representative operands — instead of being hand-supplied.
The pipeline computes real luma, Haar bands and quantised streams, and
the functional simulator proves the schedule preserves the values.

Run:  python examples/wavelet_codec.py
"""

from repro import Architecture, CompleteDataScheduler, MorphoSysM1, Simulator
from repro.codegen import generate_program
from repro.kernels import default_library
from repro.workloads.wavelet import wavelet_functional


def main() -> None:
    library = default_library()
    print("information extractor: kernel cycles measured from RC-array "
          "programs")
    for op in ("rgb_to_luma", "haar8", "quant8x8", "zigzag_pack"):
        print(f"  {op:<12} -> {library.cycles_for(op):>4} cycles/iteration")
    print()

    application, clustering, impls = wavelet_functional(library)
    architecture = Architecture.m1("1K")
    schedule = CompleteDataScheduler(architecture).schedule(
        application, clustering
    )
    print(schedule.describe())
    print()

    machine = MorphoSysM1(architecture)
    # Feed realistic 8-bit pixel planes instead of the default
    # full-range pseudo-random words.
    import numpy as np
    rng = np.random.RandomState(3)
    for plane in ("r", "g", "b"):
        for iteration in range(application.total_iterations):
            machine.external_memory.put(
                plane, iteration,
                rng.randint(0, 256, size=64).astype(np.int64),
            )
    report = Simulator(machine).run(
        generate_program(schedule), functional=True, kernel_impls=impls,
    )
    print(f"makespan: {report.total_cycles} cycles, "
          f"RF={schedule.rf}, verified={report.functional_verified}")
    stream = machine.external_memory.get("stream", 0)
    print(f"iteration 0 coded stream (first 12 words): "
          f"{stream[:12].tolist()}")


if __name__ == "__main__":
    main()
