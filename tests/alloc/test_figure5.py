"""Reproduction of the paper's Figure 5 allocation example.

Figure 5 shows one frame-buffer set while the three kernels of cluster 3
execute twice (RF = 2):

* ``D13`` — data shared among clusters 1..3, resident until cluster 3
  finishes;
* ``D37`` — data shared among clusters 3..7, resident beyond cluster 3
  (still present "before cluster 5 execution");
* ``d1``, ``d2`` — per-kernel input data, two instances each;
* ``r13``, ``r23`` — intermediate results for kernel 3, placed at lower
  addresses, released once kernel 3 consumed them;
* ``R3,5`` — cluster 3's result kept for cluster 5, placed at upper
  addresses;
* ``Rout`` — a final result, stored externally after the cluster.

We build a seven-cluster application with that structure and assert the
placement/lifetime properties the figure depicts.
"""

import pytest

from repro.alloc.allocator import FrameBufferAllocator
from repro.arch.params import Architecture
from repro.core.application import Application
from repro.core.cluster import Clustering
from repro.schedule.base import ScheduleOptions
from repro.schedule.complete import CompleteDataScheduler


@pytest.fixture(scope="module")
def figure5_schedule():
    builder = Application.build("figure5", total_iterations=8)
    builder.data("D13", 96, invariant=True)   # shared clusters 1 and 3
    builder.data("D37", 128, invariant=True)  # shared clusters 3, 5, 7
    builder.data("d1", 64)
    builder.data("d2", 64)
    # Clusters 1 and 2: simple pass-throughs (cluster 1 uses D13).
    builder.data("in1", 48).data("in2", 48)
    builder.kernel("pre1", context_words=16, cycles=60,
                   inputs=["in1", "D13"], outputs=["p1"],
                   result_sizes={"p1": 32})
    builder.kernel("pre2", context_words=16, cycles=60,
                   inputs=["in2", "p1"], outputs=["p2"],
                   result_sizes={"p2": 32})
    builder.final("p2")
    # Cluster 2: unrelated work on the other set.
    builder.data("in4", 48)
    builder.kernel("mid4", context_words=16, cycles=60,
                   inputs=["in4"], outputs=["m4"], result_sizes={"m4": 32})
    # Cluster 3: the figure's three kernels, RF=2.
    builder.kernel("k1", context_words=16, cycles=80,
                   inputs=["d1", "D13", "D37"],
                   outputs=["r13"], result_sizes={"r13": 48})
    builder.kernel("k2", context_words=16, cycles=80,
                   inputs=["d2"],
                   outputs=["r23", "Rout"],
                   result_sizes={"r23": 48, "Rout": 40})
    builder.kernel("k3", context_words=16, cycles=80,
                   inputs=["r13", "r23"],
                   outputs=["R35"], result_sizes={"R35": 56})
    builder.final("Rout")
    # Cluster 4: other set again.
    builder.data("in6", 48)
    builder.kernel("mid6", context_words=16, cycles=60,
                   inputs=["in6"], outputs=["m6"], result_sizes={"m6": 32})
    # Cluster 5: consumes R35 and D37 (twice).
    builder.kernel("k5", context_words=16, cycles=60,
                   inputs=["R35", "D37", "m4"],
                   outputs=["f5"], result_sizes={"f5": 32})
    builder.final("f5")
    builder.kernel("k7", context_words=16, cycles=60,
                   inputs=["D37", "m6", "f5"],
                   outputs=["f7"], result_sizes={"f7": 32})
    builder.final("f7")
    application = builder.finish()
    clustering = Clustering(
        application,
        [
            ["pre1", "pre2"],        # Cl1 (set 0)
            ["mid4"],                # Cl2 (set 1)
            ["k1", "k2", "k3"],      # Cl3 (set 0) — the figure's cluster
            ["mid6"],                # Cl4 (set 1)
            ["k5", "k7"],            # Cl5 (set 0) — consumes R35 and D37
        ],
    )
    architecture = Architecture.m1("1K")
    return CompleteDataScheduler(architecture, ScheduleOptions(rf_cap=2)) \
        .schedule(application, clustering)


@pytest.fixture(scope="module")
def figure5_allocation(figure5_schedule):
    return FrameBufferAllocator(
        figure5_schedule, snapshots=True
    ).allocate_set(0)


class TestFigure5:
    def test_rf_is_two(self, figure5_schedule):
        assert figure5_schedule.rf == 2

    def test_shared_data_kept(self, figure5_schedule):
        kept = set(figure5_schedule.keep_names())
        assert "D13" in kept
        assert "D37" in kept
        assert "R35" in kept

    def test_no_overlaps(self, figure5_allocation):
        figure5_allocation.verify()

    def test_no_splits(self, figure5_allocation):
        assert figure5_allocation.splits == 0

    def test_shared_data_at_upper_addresses(self, figure5_allocation):
        """D13/D37 occupy the top of the set (Figure 5 rows 1-2)."""
        d37 = figure5_allocation.record_for("D37", 0)
        assert d37.direction == "high"
        top = figure5_allocation.capacity_words
        assert d37.extents[0].end == top or \
            figure5_allocation.record_for("D13", 0).extents[0].end == top

    def test_intermediates_at_lower_addresses(self, figure5_allocation):
        for name in ("r13", "r23"):
            for instance in (0, 1):
                record = figure5_allocation.record_for(name, instance)
                assert record.direction == "low"

    def test_kept_result_at_upper_addresses(self, figure5_allocation):
        assert figure5_allocation.record_for("R35", 0).direction == "high"

    def test_d37_outlives_cluster3(self, figure5_allocation):
        """D37 is still resident when cluster 5 starts (snapshot g)."""
        d37 = figure5_allocation.record_for("D37", 0)
        cluster5_snapshots = [
            snapshot for snapshot in figure5_allocation.snapshots
            if "Cl5" in snapshot.label and "input" in snapshot.label
        ]
        assert cluster5_snapshots
        snapshot = cluster5_snapshots[0]
        names = {name for name, _, _ in snapshot.regions}
        assert "D37" in names
        assert "R35" in names
        assert "D13" not in names  # released with cluster 3

    def test_intermediate_released_after_consumer(self, figure5_allocation):
        """r13 instances die when k3 executes the matching iteration."""
        first = figure5_allocation.record_for("r13", 0)
        second = figure5_allocation.record_for("r13", 1)
        assert first.free_step <= second.free_step

    def test_iteration_instances_adjacent(self, figure5_allocation):
        """Instance 1 of an input sits adjacent to instance 0
        (the figure's regularity property)."""
        first = figure5_allocation.record_for("d2", 0)
        second = figure5_allocation.record_for("d2", 1)
        assert abs(second.extents[0].start - first.extents[0].start) == \
            first.size

    def test_snapshot_sequence_matches_figure(self, figure5_allocation):
        """The snapshot labels include the figure's a)..f) sequence for
        cluster 3: load, k1 x2, k2 x2, k3 x2, stores."""
        labels = [s.label for s in figure5_allocation.snapshots]
        cl3_start = labels.index("after load Cl3 input data")
        expected = [
            "after load Cl3 input data",
            "after execution 1 of k1",
            "after execution 2 of k1",
            "after execution 1 of k2",
            "after execution 2 of k2",
            "after execution 1 of k3",
            "after execution 2 of k3",
            "after Cl3 stores complete",
        ]
        assert labels[cl3_start:cl3_start + len(expected)] == expected
