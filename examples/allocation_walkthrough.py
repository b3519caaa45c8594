#!/usr/bin/env python3
"""Frame-buffer allocation walkthrough (the paper's Figure 5).

Reconstructs the figure's scenario — three kernels of one cluster
executing twice (RF=2) amid shared data kept for distant clusters —
and renders the frame-buffer set contents after every step as an ASCII
memory map, exactly like the figure's columns a) through g).

Run:  python examples/allocation_walkthrough.py
"""

from repro import Application, Architecture, Clustering
from repro.alloc import FrameBufferAllocator, compute_stats
from repro.schedule import CompleteDataScheduler, ScheduleOptions


def build() -> tuple:
    builder = Application.build("figure5-demo", total_iterations=8)
    builder.data("D13", 96, invariant=True)    # shared clusters 1 and 3
    builder.data("D37", 128, invariant=True)   # shared clusters 3 and 5
    builder.data("d1", 64).data("d2", 64)
    builder.data("in1", 48)
    builder.kernel("pre", context_words=16, cycles=60,
                   inputs=["in1", "D13"], outputs=["p"],
                   result_sizes={"p": 32})
    builder.final("p")
    builder.data("in2", 48)
    builder.kernel("other", context_words=16, cycles=60,
                   inputs=["in2"], outputs=["q"], result_sizes={"q": 32})
    builder.final("q")
    builder.kernel("k1", context_words=16, cycles=80,
                   inputs=["d1", "D13", "D37"],
                   outputs=["r13"], result_sizes={"r13": 48})
    builder.kernel("k2", context_words=16, cycles=80,
                   inputs=["d2"], outputs=["r23", "Rout"],
                   result_sizes={"r23": 48, "Rout": 40})
    builder.kernel("k3", context_words=16, cycles=80,
                   inputs=["r13", "r23"],
                   outputs=["R35"], result_sizes={"R35": 56})
    builder.final("Rout")
    builder.data("in6", 48)
    builder.kernel("mid", context_words=16, cycles=60,
                   inputs=["in6"], outputs=["m"], result_sizes={"m": 32})
    builder.kernel("k5", context_words=16, cycles=60,
                   inputs=["R35", "D37", "m"],
                   outputs=["f5"], result_sizes={"f5": 32})
    builder.final("f5")
    application = builder.finish()
    clustering = Clustering(
        application,
        [["pre"], ["other"], ["k1", "k2", "k3"], ["mid"], ["k5"]],
    )
    return application, clustering


def render_memory(snapshot, capacity, *, columns=64) -> str:
    """One-line ASCII map: address 0 on the left, capacity on the right."""
    cells = ["."] * columns
    for name, instance, extents in snapshot.regions:
        mark = name[0].upper() if name[0].isalpha() else "#"
        for extent in extents:
            lo = int(extent.start / capacity * columns)
            hi = max(int(extent.end / capacity * columns), lo + 1)
            for position in range(lo, min(hi, columns)):
                cells[position] = mark
    return "".join(cells)


def main() -> None:
    application, clustering = build()
    architecture = Architecture.m1("1K")
    schedule = CompleteDataScheduler(
        architecture, ScheduleOptions(rf_cap=2)
    ).schedule(application, clustering)
    print(schedule.describe())
    print()

    allocation = FrameBufferAllocator(schedule, snapshots=True).allocate_set(0)
    capacity = allocation.capacity_words
    print(f"FB set 0 ({capacity} words), address 0 left -> {capacity} right")
    print("legend: each region marked by the first letter of its name\n")
    for snapshot in allocation.snapshots:
        occupancy = snapshot.occupied_words
        print(f"|{render_memory(snapshot, capacity)}| "
              f"{occupancy:>4}w  {snapshot.label}")

    stats = compute_stats(allocation)
    print(
        f"\npeak {stats.peak_words}/{capacity} words, "
        f"{stats.placements} placements, {stats.splits} splits, "
        f"{stats.irregular_placements} irregular placements"
    )
    print("(the paper's claim: first-fit with two growth directions and "
          "eager release never needs to split)")


if __name__ == "__main__":
    main()
