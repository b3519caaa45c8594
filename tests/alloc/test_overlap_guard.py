"""Free-list bugs planted into the allocator's default path must raise.

The allocator keeps no region directory: overlap is guarded by the free
list's double-free rejection and by the end-of-round check that every
word is free again.  Each test here patches one
:class:`~repro.alloc.free_list.FreeBlockList` method with a bug that
could hand the same word to two live regions, or lose or invent free
words, and runs the Figure-4 allocator with ``debug_invariants=False``
(the conftest turns it on by default, and its structural check would
catch some of the bugs on its own).  Every run in which the planted
method actually fired must raise :class:`AllocationError`; runs in which
it never fired, and every unplanted run, must raise nothing.

Workloads: the twelve Table-1 experiments under the three schedulers
and the ``repro corpus`` random applications (seeds 0-9, 16K frame
buffer, 48 iterations, CDS).
"""

import pytest

from repro.alloc.allocator import FrameBufferAllocator, _SetAllocation
from repro.alloc.free_list import FreeBlockList
from repro.arch.frame_buffer import Extent
from repro.arch.params import Architecture
from repro.errors import AllocationError, FragmentationError, ReproError
from repro.schedule import SCHEDULERS
from repro.workloads.random_gen import random_application
from repro.workloads.spec import paper_experiments

CORPUS_SEEDS = range(10)


@pytest.fixture(scope="module")
def schedules():
    """``(label, schedule)`` for every workload the schedulers accept."""
    cases = []
    for spec in paper_experiments():
        application, clustering = spec.build()
        architecture = Architecture.m1(spec.fb)
        for name in ("basic", "ds", "cds"):
            cases.append((f"{spec.id}/{name}", application, clustering,
                          architecture, name))
    for seed in CORPUS_SEEDS:
        application, clustering = random_application(seed, iterations=48)
        cases.append((f"random-{seed}@16K/cds", application, clustering,
                      Architecture.m1("16K"), "cds"))
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


def _allocate(schedule):
    return FrameBufferAllocator(schedule, debug_invariants=False).allocate()


# -- planted bugs ------------------------------------------------------------
# Each factory takes the fire counter and returns ``(method name, bug)``.
# A bug counts as fired only when it returned or changed something the
# correct method would not have.

_allocate_at = FreeBlockList.allocate_at
_allocate_low = FreeBlockList.allocate_low
_free = FreeBlockList.free


def _allocate_at_uncarved(fires):
    def allocate_at(self, start, size):
        # Hands out the range without checking or carving it.
        fires.append(start)
        return Extent(start, size)
    return "allocate_at", allocate_at


def _allocate_at_shifted(fires):
    def allocate_at(self, start, size):
        # Carves the requested range but returns the one below it.
        extent = _allocate_at(self, start, size)
        fires.append(start)
        return Extent(extent.start - size, size)
    return "allocate_at", allocate_at


def _allocate_low_one_below(fires):
    def allocate_low(self, size, *, best_fit=False):
        extent = _allocate_low(self, size, best_fit=best_fit)
        if not extent.start:
            return extent  # word -1 would not even make an Extent
        fires.append(extent.start)
        return Extent(extent.start - 1, size)
    return "allocate_low", allocate_low


def _free_one_more(fires):
    def free(self, start, size):
        fires.append(start)
        _free(self, start, size + 1)
    return "free", free


def _free_one_less(fires):
    def free(self, start, size):
        # Leaks the region's last word: no later free touches it again.
        fires.append(start)
        if size > 1:
            _free(self, start, size - 1)
    return "free", free


BUGS = {
    "allocate_at_uncarved": _allocate_at_uncarved,
    "allocate_at_shifted": _allocate_at_shifted,
    "allocate_low_one_below": _allocate_low_one_below,
    "free_one_more": _free_one_more,
    "free_one_less": _free_one_less,
}


@pytest.mark.parametrize("bug", sorted(BUGS))
def test_planted_free_list_bug_raises(bug, schedules, monkeypatch):
    fires = []
    method, planted = BUGS[bug](fires)
    monkeypatch.setattr(FreeBlockList, method, planted)
    fired_runs = 0
    for label, schedule in schedules:
        fires.clear()
        try:
            _allocate(schedule)
        except AllocationError:
            assert fires, f"{label}: raised although {bug} never fired"
            fired_runs += 1
        else:
            assert not fires, (
                f"{label}: {bug} fired {len(fires)} times, nothing raised"
            )
    # The workloads exercise the planted method, so the check is not
    # vacuous.
    assert fired_runs >= len(schedules) // 2, (fired_runs, len(schedules))


def test_unplanted_runs_raise_nothing(schedules):
    assert len(schedules) >= 30
    for _, schedule in schedules:
        _allocate(schedule)


# -- the live-region table -----------------------------------------------------


def test_duplicate_placement_names_the_instance(schedules):
    _, schedule = schedules[0]
    run = _SetAllocation(schedule, 0)
    run._allocate("x", 3, 0, 16, "low")
    with pytest.raises(AllocationError, match=r"set0: x#3 is already placed"):
        run._allocate("x", 3, 0, 16, "high")
    # The rejected placement took no words.
    assert run.free_list.free_words == run.capacity - 16


def test_free_list_errors_name_the_region(schedules, monkeypatch):
    fires = []
    monkeypatch.setattr(FreeBlockList, *_free_one_more(fires))
    label, schedule = schedules[0]
    with pytest.raises(AllocationError, match=r"^set\d: \w+#\d+: ") as raised:
        _allocate(schedule)
    assert isinstance(raised.value.__cause__, AllocationError), label


def test_end_of_round_check_names_set_and_words(schedules, monkeypatch):
    leaked = []

    def free(self, start, size):
        # The first free returns nothing: its words stay carved.
        if leaked:
            _free(self, start, size)
        leaked.append(size)

    monkeypatch.setattr(FreeBlockList, "free", free)
    _, schedule = schedules[0]
    with pytest.raises(AllocationError) as raised:
        _allocate(schedule)
    capacity = schedule.fb_set_words
    assert str(raised.value) == (
        f"set0: {capacity - leaked[0]} of {capacity} words free at end "
        f"of round (still live: none)"
    )


def test_split_exhaustion_names_the_region(schedules, monkeypatch):
    """A leak that keeps every freed word carved: on E1 (basic) the
    free list runs out of words in ``allocate_split``, and the error
    names the set and the instance, as the free-path errors do."""
    monkeypatch.setattr(FreeBlockList, "free", lambda self, start, size: None)
    schedule = dict(schedules)["E1/basic"]
    with pytest.raises(FragmentationError) as raised:
        _allocate(schedule)
    assert str(raised.value) == (
        "set0: d3_2#0: cannot place 120 words: only 40 free"
    )
    assert isinstance(raised.value.__cause__, FragmentationError)
