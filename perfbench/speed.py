"""Machine-speed reference for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within seconds as neighbours come and go, so raw wall
times of the same code disagree from run to run.  A fixed pure-Python
reference loop (object graph, tuple keys, sets, a sort: the same kind
of interpreter work as the pipeline) is timed next to the measured work
and every timing is rescaled to the speed at which the loop takes
:data:`REFERENCE_MS`::

    scaled = measured * REFERENCE_MS / (local median of the loop's times)

A run's time budget is spent on the same scaled clock, so a run does
the same amount of work however fast the machine happens to be.

The loop is part of the benchmark, not of the program, so a change to
the program moves the scaled times exactly as it moves the raw ones on
a machine of steady speed.  Raw times are printed beside the result.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

#: The reference loop's median time on an uncontended 2-CPU container;
#: scaled timings read as milliseconds at that speed.
REFERENCE_MS = 0.7

#: Reference samples within this many seconds of a timing rescale it;
#: fewer than :data:`MIN_SAMPLES` there, and the nearest ones do.
WINDOW_S = 1.0
MIN_SAMPLES = 9


class _Node:
    __slots__ = ("key", "edges")

    def __init__(self, key):
        self.key = key
        self.edges = ()


def reference_loop():
    """A fixed ~1 ms of object-graph work: bounded reachability sets."""
    rng = random.Random(12345)
    nodes = [_Node(("n", index)) for index in range(64)]
    for node in nodes:
        node.edges = tuple(nodes[rng.randrange(64)] for _ in range(4))
    reach_of = {}
    for node in nodes:
        reach, frontier = {node.key}, [node]
        while frontier and len(reach) < 30:
            following = []
            for current in frontier:
                for edge in current.edges:
                    if edge.key not in reach:
                        reach.add(edge.key)
                        following.append(edge)
            frontier = following
        reach_of[node.key] = frozenset(reach)
    return sorted((len(reach), key) for key, reach in reach_of.items())[0]


class SpeedMeter:
    """Times the reference loop next to the measured work."""

    def __init__(self, warm_up=20):
        self._at = []  # sample midpoints, perf_counter seconds, ascending
        self._took = []  # sample durations, seconds
        for _ in range(warm_up):
            reference_loop()

    def sample(self, at_least_s=0.0):
        """Run the loop once, then again until *at_least_s* is spent."""
        spent = 0.0
        while True:
            began = time.perf_counter()
            reference_loop()
            took = time.perf_counter() - began
            self._at.append(began + took / 2)
            self._took.append(took)
            spent += took
            if spent >= at_least_s:
                return

    def loop_ms(self, at):
        """Median loop time (ms) within :data:`WINDOW_S` of perf_counter
        instant *at*."""
        low = bisect.bisect_left(self._at, at - WINDOW_S)
        high = bisect.bisect_right(self._at, at + WINDOW_S)
        if high - low < MIN_SAMPLES:
            middle = bisect.bisect_left(self._at, at)
            low = max(0, min(middle - MIN_SAMPLES // 2,
                             len(self._at) - MIN_SAMPLES))
            high = min(len(self._at), low + MIN_SAMPLES)
        return statistics.median(self._took[low:high]) * 1e3

    def scale(self, seconds, at):
        """*seconds* measured around *at*, at the reference speed."""
        return seconds * REFERENCE_MS / self.loop_ms(at)

    def scale_recent(self, seconds):
        """*seconds* just measured, at the speed of the latest samples:
        the clock a run's time budget is spent on, so that a slow spell
        of the machine does not shorten the work a run measures."""
        return seconds * REFERENCE_MS / self._recent_ms()

    def wall_recent(self, seconds):
        """Wall time that *seconds* at the reference speed take at the
        speed of the latest samples."""
        return seconds * self._recent_ms() / REFERENCE_MS

    def _recent_ms(self):
        return statistics.median(self._took[-MIN_SAMPLES:]) * 1e3

    def median_loop_ms(self):
        return statistics.median(self._took) * 1e3
