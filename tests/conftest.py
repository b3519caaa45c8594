"""Shared fixtures: small applications exercising each structural feature."""

import pytest

from repro.alloc.allocator import FrameBufferAllocator
from repro.arch.params import Architecture
from repro.core.application import Application
from repro.core.cluster import Clustering
from repro.core.dataflow import analyze_dataflow


@pytest.fixture(autouse=True)
def _allocator_debug_invariants():
    """Every allocator built under test self-checks its free list.

    ``check_invariants`` is one O(n) pass, so leaving it on suite-wide
    is cheap; tests that explicitly pass ``debug_invariants=...`` are
    unaffected.
    """
    previous = FrameBufferAllocator.default_debug_invariants
    FrameBufferAllocator.default_debug_invariants = True
    yield
    FrameBufferAllocator.default_debug_invariants = previous


@pytest.fixture
def chain_app():
    """Two clusters, one kernel each, a straight producer/consumer chain."""
    return (
        Application.build("chain", total_iterations=8)
        .data("d", 512)
        .kernel("k1", context_words=32, cycles=600, inputs=["d"],
                outputs=["r"], result_sizes={"r": 256})
        .kernel("k2", context_words=32, cycles=500, inputs=["r"],
                outputs=["out"], result_sizes={"out": 256})
        .final("out")
        .finish()
    )


@pytest.fixture
def chain_clustering(chain_app):
    return Clustering.per_kernel(chain_app)


@pytest.fixture
def sharing_app():
    """Three clusters with a same-set shared datum and shared result.

    ``shared`` is consumed by k1 (cluster 0, set 0) and k3 (cluster 2,
    set 0); ``r1`` is produced in cluster 0 and consumed in cluster 2.
    """
    return (
        Application.build("sharing", total_iterations=12)
        .data("d", 256)
        .data("shared", 128)
        .kernel("k1", context_words=32, cycles=600, inputs=["d", "shared"],
                outputs=["r1"], result_sizes={"r1": 192})
        .kernel("k2", context_words=32, cycles=500, inputs=["r1"],
                outputs=["r2"], result_sizes={"r2": 192})
        .kernel("k3", context_words=32, cycles=400,
                inputs=["r2", "shared", "r1"],
                outputs=["out"], result_sizes={"out": 128})
        .final("out")
        .finish()
    )


@pytest.fixture
def sharing_clustering(sharing_app):
    return Clustering.per_kernel(sharing_app)


@pytest.fixture
def sharing_dataflow(sharing_app, sharing_clustering):
    return analyze_dataflow(sharing_app, sharing_clustering)


@pytest.fixture
def invariant_app():
    """Like sharing_app but the shared datum is an invariant table."""
    return (
        Application.build("invariant", total_iterations=12)
        .data("d", 256)
        .data("table", 128, invariant=True)
        .kernel("k1", context_words=32, cycles=600, inputs=["d", "table"],
                outputs=["r1"], result_sizes={"r1": 192})
        .kernel("k2", context_words=32, cycles=500, inputs=["r1"],
                outputs=["r2"], result_sizes={"r2": 192})
        .kernel("k3", context_words=32, cycles=400, inputs=["r2", "table"],
                outputs=["out"], result_sizes={"out": 128})
        .final("out")
        .finish()
    )


@pytest.fixture
def multi_kernel_app():
    """One cluster of three kernels plus a second cluster; exercises
    within-cluster intermediates and liveness."""
    return (
        Application.build("multi", total_iterations=4)
        .data("a", 200)
        .data("b", 100)
        .kernel("k1", context_words=40, cycles=300, inputs=["a"],
                outputs=["t1"], result_sizes={"t1": 150})
        .kernel("k2", context_words=40, cycles=300, inputs=["t1", "b"],
                outputs=["t2"], result_sizes={"t2": 150})
        .kernel("k3", context_words=40, cycles=300, inputs=["t2", "a"],
                outputs=["c_out"], result_sizes={"c_out": 100})
        .kernel("k4", context_words=40, cycles=300, inputs=["c_out"],
                outputs=["final"], result_sizes={"final": 100})
        .final("final", "c_out")
        .finish()
    )


@pytest.fixture
def multi_clustering(multi_kernel_app):
    return Clustering(multi_kernel_app, [["k1", "k2", "k3"], ["k4"]])


@pytest.fixture
def m1_small():
    return Architecture.m1("1K")


@pytest.fixture
def m1_medium():
    return Architecture.m1("2K")


@pytest.fixture
def m1_large():
    return Architecture.m1("8K")


@pytest.fixture
def schedule_calls(monkeypatch):
    """Count ``CompleteDataScheduler.schedule`` calls."""
    from repro.schedule.complete import CompleteDataScheduler

    calls = []
    real_schedule = CompleteDataScheduler.schedule

    def counting_schedule(self, *args, **kwargs):
        calls.append(1)
        return real_schedule(self, *args, **kwargs)

    monkeypatch.setattr(CompleteDataScheduler, "schedule", counting_schedule)
    return calls
