"""Chain placement vs. the per-instance walk.

The Figure-4 allocator carves a kernel run's (and an input's) instances
``1..RF-1`` in one step when the whole range next to instance 0 is
free, and gives a chain's words back in one free.  Forcing the walk —
the chain helper declines every chain and every batched free goes back
instance by instance — must change nothing a caller can see: the
records, the ``alloc.*`` decision events, the snapshots and the free
blocks at every phase boundary (the start of each kernel run, the end
of each load, execution and finish phase, and the end of the round).

Workloads: the twelve Table-1 experiments under the three schedulers,
the ``repro corpus`` random applications (seeds 0-29, 48 iterations,
CDS) at 2K and 16K, three seeds of every fuzz regime under the three
schedulers, and the schedules where sibling output chains of one
kernel overlap (found by search); both fit policies, with the decision
trace and snapshots on and off.  A planted bug that checks each output
chain on its own but drops the joint (sibling) condition must fail the
comparison.
"""

import pytest

from repro.alloc.allocator import FrameBufferAllocator, _SetAllocation
from repro.arch.params import Architecture
from repro.errors import AllocationError, ReproError
from repro.fuzz.generator import generate_case, regime_names
from repro.obs.events import DecisionTrace
from repro.schedule import SCHEDULERS
from repro.workloads.random_gen import random_application
from repro.workloads.spec import paper_experiments

CORPUS_SEEDS = range(30)
CORPUS_FBS = ("2K", "16K")
#: ``(seed, fb)`` of corpus schedules in which two outputs of one kernel
#: have chains that are free each on its own but overlap each other.
SIBLING_OVERLAPS = ((35, "2K"), (49, "16K"), (3, "32K"))
FIT_POLICIES = ("first", "best")


def _schedules():
    cases = []
    for spec in paper_experiments():
        application, clustering = spec.build()
        for name in ("basic", "ds", "cds"):
            cases.append((f"{spec.id}/{name}", application, clustering,
                          Architecture.m1(spec.fb), name))
    corpus = [(seed, fb) for seed in CORPUS_SEEDS for fb in CORPUS_FBS]
    for seed, fb in corpus + list(SIBLING_OVERLAPS):
        application, clustering = random_application(seed, iterations=48)
        cases.append((f"random-{seed}@{fb}/cds", application, clustering,
                      Architecture.m1(fb), "cds"))
    for regime in regime_names():
        for seed in range(3):
            case = generate_case(regime, seed)
            application, clustering = case.build()
            for name in ("basic", "ds", "cds"):
                cases.append((f"{case.name}/{name}", application, clustering,
                              case.architecture(), name))
    schedules = []
    for label, application, clustering, architecture, name in cases:
        try:
            schedule = SCHEDULERS[name](architecture).schedule(
                application, clustering
            )
        except ReproError:
            continue
        schedules.append((label, schedule))
    return schedules


SCHEDULES = _schedules()


def _walk_only(monkeypatch):
    """Decline every chain and free every instance on its own."""
    for helper in ("_carve_chain", "_carve_output_chains"):
        monkeypatch.setattr(_SetAllocation, helper, lambda self, *args: None)

    def give_back(self, pieces):
        self._return_each(pieces)

    monkeypatch.setattr(_SetAllocation, "_give_back", give_back)


def _observe(schedule, fit_policy, traced, monkeypatch):
    """Everything one allocation of both sets shows, or the error it
    raised: records, ``alloc.*`` events, snapshots, chained count and
    the free blocks at every phase boundary."""
    boundaries = []

    def after(method):
        real = getattr(_SetAllocation, method)

        def wrapped(self, *args):
            result = real(self, *args)
            boundaries.append((method, self.step, self.free_list.blocks()))
            return result
        monkeypatch.setattr(_SetAllocation, method, wrapped)

    for method in ("_place_cluster_inputs", "_run_cluster",
                   "_finish_cluster", "_close_round"):
        after(method)
    real_outputs = _SetAllocation._kernel_outputs

    def kernel_outputs(self, cluster, kernel):
        # Called once at the start of each kernel run.
        boundaries.append((kernel.name, self.step, self.free_list.blocks()))
        return real_outputs(self, cluster, kernel)

    monkeypatch.setattr(_SetAllocation, "_kernel_outputs", kernel_outputs)
    trace = DecisionTrace() if traced else None
    try:
        maps = FrameBufferAllocator(
            schedule, fit_policy=fit_policy, decisions=trace,
            snapshots=traced,
        ).allocate()
    except AllocationError as error:
        return ("raised", type(error).__name__, str(error)), 0
    events = [
        (event.seq, event.kind, event.subject, tuple(event.detail.items()))
        for event in (trace or ()) if event.kind.startswith("alloc.")
    ]
    observed = (
        [alloc_map.records for alloc_map in maps],
        events,
        [alloc_map.snapshots for alloc_map in maps],
        boundaries,
    )
    return observed, sum(alloc_map.chained for alloc_map in maps)


def _mismatches(monkeypatch):
    """Labels where the chained allocation differs from the walk, and
    the chained placement count over all runs."""
    mismatched = []
    chained = 0
    for label, schedule in SCHEDULES:
        for fit_policy in FIT_POLICIES:
            for traced in (True, False):
                with monkeypatch.context() as patch:
                    _walk_only(patch)
                    walked, walk_chained = _observe(
                        schedule, fit_policy, traced, patch
                    )
                assert walk_chained == 0, label
                with monkeypatch.context() as patch:
                    observed, count = _observe(
                        schedule, fit_policy, traced, patch
                    )
                chained += count
                if observed != walked:
                    mismatched.append(f"{label}/{fit_policy}/{traced}")
    return mismatched, chained


def test_workload_matrix_is_wide():
    labels = [label for label, _ in SCHEDULES]
    assert len(labels) >= 36 + 60 + 3 * len(regime_names())
    for seed, fb in SIBLING_OVERLAPS:
        assert f"random-{seed}@{fb}/cds" in labels


def test_chains_match_the_walk(monkeypatch):
    mismatched, chained = _mismatches(monkeypatch)
    assert not mismatched, mismatched
    assert chained > 0


def _carve_without_sibling_check(self, outputs):
    """The planted bug: every output chain is checked on its own with
    ``is_free`` before any is carved, so two chains that overlap each
    other both pass."""
    count = self.rf - 1
    planned = []
    for out_name, size, direction in outputs:
        previous = self._last_single_extent.get(out_name)
        if previous is None or previous[0] != 0:
            return None
        total = size * count
        first = previous[1]
        start = first.start - total if direction == "high" else first.end
        if not self.free_list.is_free(start, total):
            return None
        planned.append((out_name, size, direction, start, total))
    chains = []
    for out_name, size, direction, start, total in planned:
        chain = self.free_list.allocate_at(start, total)
        chains.append((out_name, size, direction)
                      + self._commit_chain(out_name, size, direction, count,
                                           chain))
    return chains


def test_dropped_sibling_condition_is_caught(monkeypatch):
    monkeypatch.setattr(
        _SetAllocation, "_carve_output_chains", _carve_without_sibling_check
    )
    mismatched, _ = _mismatches(monkeypatch)
    caught = {label.split("/")[0] for label in mismatched}
    assert caught >= {
        f"random-{seed}@{fb}" for seed, fb in SIBLING_OVERLAPS
    }, mismatched
