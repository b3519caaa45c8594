"""The data and results allocation algorithm (paper Figure 4).

The allocator lays out one steady-state round of one frame-buffer set:
the clusters assigned to the set, in execution order, each running its
kernels ``RF`` consecutive times (loop fission — kernel-outer,
iteration-inner, as paper Figure 5's snapshot sequence shows: kernel 1
twice, then kernel 2 twice, then kernel 3 twice).

Placement rules, following the paper:

* **shared data first, from upper addresses** — data shared with the
  most distant cluster placed first ("As these data are going to remain
  longer in the FB than others input data, they are placed first to
  minimize fragmentation");
* **kernel input data next, from upper addresses** — scanned from the
  last kernel down to the first, so longer-lived inputs sit deeper;
* during execution, per kernel and iteration: **kept shared results
  from upper addresses**; **final and intermediate results from lower
  addresses**;
* after each kernel execution, ``release(c, k, iter)`` returns dead
  space to the free list;
* iteration instances are placed **adjacent to the previous iteration's
  instance** ("data and results are allocated from the addresses where
  was placed previous iteration of them") for addressing regularity;
* when no single free block fits, the object is **split** across blocks
  as a last resort (the paper reports zero splits across all its
  experiments — our benchmarks assert the same).

Because the algorithm is deterministic, every round of the application
produces the identical layout — the periodicity the paper's placement
policy promotes.

Cost model: the unit of booking is the *segment*
(:class:`~repro.alloc.maps.Segment`): instances ``first ..
first+count-1`` of one object at ``start + k*stride``, placed at
``alloc_step + k*alloc_stride`` and freed at ``free_step +
k*free_stride``.  ``_SetAllocation._live`` holds each object's live
segments, sorted by instance; it rejects duplicate
placements and frees of unplaced instances, and the free list rejects
out-of-capacity extents and double frees.  Overlap is not checked per
placement.  A word can reach two live regions only through a free-list
bug, and then some free hits an already-free word, or some word is
still carved when the round ends; ``execute`` checks that the list is
whole again at the end.

Most of a round is chains: instance ``i`` of an object sits right next
to instance ``i - 1``.  So instances ``1..RF-1`` of an input, and of
every output of a kernel run, are carved in one ``allocate_at`` over
the whole range next to instance 0, when it is free, and booked as one
segment with instance 0; the slots are taken from the extent the free
list returns.  A kernel run's chains are carved in output order at the
start of iteration 1, which is the joint check (a chain overlapping a
sibling's is no longer free); if any fails, the carved ones are freed
and the run is walked per instance as before.  The result is exact:
``allocate_at`` does not search, only this kernel's outputs are
allocated until the run ends, releases only add free words, and the
coalesced list depends only on the set of free words.  A walked
placement right next to its previous instance extends that instance's
segment; any other, and a split one, is a segment of one.  A walked
run gives its dead inputs' words back per iteration, because the walk
needs them; a chained run gives them back after its last iteration.
Either way each dead input is closed once, after the run, which only
advances its segments' closed prefix (instance ``i`` freed at
iteration ``i``'s step); a segment is booked in
:attr:`AllocationMap.segments` once all its instances are closed, or
when a closure breaks its affine pattern.  The finish and round-close
phases close a stored object's or keep's instances the same way, and
each phase gives its words back in one free per run of adjacent words.
No per-instance record, ``Extent`` or event is built during the round:
:attr:`AllocationMap.records`, the decision events and the snapshots
are expanded from the segments afterwards (:mod:`repro.alloc.maps`,
:mod:`repro.alloc.views`), in the order the walk would have made them,
and the last two only when a trace or snapshots are attached.
Placement does not fork on a decision trace, snapshots or
``debug_invariants``, so the golden test (trace and snapshots on) and
the suite (invariant checks on) run the segment path.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.arch.frame_buffer import Extent
from repro.alloc.free_list import FreeBlockList
from repro.alloc.maps import (
    AllocationMap,
    AllocationRecord,
    PlacementColumns,
    Segment,
    Snapshot,
)
from repro.core.dataflow import DataflowInfo
from repro.core.reuse import SharedData, SharedResult
from repro.errors import AllocationError, FragmentationError
from repro.schedule.plan import Schedule

__all__ = [
    "AllocationRecord", "Segment", "PlacementColumns", "Snapshot",
    "AllocationMap", "FrameBufferAllocator",
]

#: Closed instances whose words are still to go back to the free list:
#: ``(name, instance, count, start, stride, size, extents)`` per run of
#: a segment (``extents`` is ``None`` unless the placement was split).
_Pieces = List[
    Tuple[str, int, int, int, int, int, Optional[Tuple[Extent, ...]]]
]

_FIRST = itemgetter(0)


class FrameBufferAllocator:
    """Runs the Figure-4 algorithm for one FB set of a schedule.

    Args:
        schedule: a schedule from any of the data schedulers.  When no
            single free block fits an instance, it is placed across
            several extents (paper section 5).
        fit_policy: ``"first"`` (the paper's choice — "as data and
            result sizes are similar, the chosen allocation method is
            first-fit") or ``"best"`` (smallest sufficient block;
            ablation baseline).
        debug_invariants: re-check the free list's structural
            invariants (sorted, coalesced, in-capacity, free-word
            counter consistent) after every allocate and free.  The
            check is a single O(n) pass, so it is cheap insurance; the
            test suite turns it on globally via
            :attr:`default_debug_invariants`.  ``None`` (the default)
            defers to that class attribute.
        decisions: optional :class:`~repro.obs.events.DecisionTrace`
            that receives one ``alloc.place``/``alloc.free`` event per
            instance, plus ``alloc.fallback`` when iteration-adjacent
            placement failed and ``alloc.split`` when a placement had
            to span several free blocks.  Pass ``schedule.decisions``
            to extend the scheduler's own trace.  Recording never
            changes a placement.
        free_list_factory: optional callable ``capacity -> free list``
            substituted for :class:`~repro.alloc.free_list.FreeBlockList`.
            Any object with the same interface works; the differential
            fuzz harness injects a wrapper that mirrors every operation
            onto :class:`~repro.alloc.reference.ReferenceFreeBlockList`
            and asserts the two agree.
        snapshots: record a labelled :class:`Snapshot` of the set's live
            regions after each load, execution and store phase (the
            Figure-5 sequence ``repro alloc`` prints).  Off by default:
            each snapshot copies every live region, and only renderers
            read them, so :attr:`AllocationMap.snapshots` stays empty.
    """

    #: Process-wide default for ``debug_invariants`` when the caller
    #: passes ``None``.  The test suite's conftest flips this to True so
    #: every allocator constructed anywhere under test self-checks.
    default_debug_invariants: bool = False

    def __init__(self, schedule: Schedule, *, fit_policy: str = "first",
                 debug_invariants: Optional[bool] = None,
                 decisions=None, free_list_factory=None,
                 snapshots: bool = False):
        if fit_policy not in ("first", "best"):
            raise AllocationError(f"unknown fit_policy {fit_policy!r}")
        self.schedule = schedule
        self.fit_policy = fit_policy
        self.decisions = decisions
        self.free_list_factory = free_list_factory
        self.snapshots = snapshots
        if debug_invariants is None:
            debug_invariants = self.default_debug_invariants
        self.debug_invariants = debug_invariants

    # -- public API -----------------------------------------------------

    def allocate_set(self, fb_set: int) -> AllocationMap:
        """Produce the :class:`AllocationMap` of one FB set's round."""
        run = _SetAllocation(self.schedule, fb_set,
                             best_fit=(self.fit_policy == "best"),
                             debug_invariants=self.debug_invariants,
                             decisions=self.decisions,
                             free_list_factory=self.free_list_factory,
                             snapshots=self.snapshots)
        return run.execute()

    def allocate(self) -> Tuple[AllocationMap, AllocationMap]:
        """Both sets' maps, ``(set0, set1)``."""
        return (self.allocate_set(0), self.allocate_set(1))


class _SetAllocation:
    """One execution of the Figure-4 algorithm (internal)."""

    def __init__(self, schedule: Schedule, fb_set: int,
                 *, best_fit: bool = False, debug_invariants: bool = False,
                 decisions=None, free_list_factory=None,
                 snapshots: bool = False):
        self.schedule = schedule
        self.dataflow: DataflowInfo = schedule.dataflow
        self.fb_set = fb_set
        self.best_fit = best_fit
        self.debug_invariants = debug_invariants
        self.decisions = decisions
        self.snapshots = snapshots
        self.rf = schedule.rf
        self.capacity = schedule.fb_set_words
        if free_list_factory is None:
            free_list_factory = FreeBlockList
        self.free_list = free_list_factory(self.capacity)
        self.map = AllocationMap(
            fb_set=fb_set, capacity_words=self.capacity, rf=self.rf
        )
        self.step = 0
        #: Live segments per object, sorted by instance, their live
        #: instance ranges disjoint.  The one live-region table:
        #: placement and release look instances up here.
        self._live: Dict[str, List[Segment]] = {}
        self._last_single_extent: Dict[str, Tuple[int, Extent]] = {}
        #: Order of the finish and round-close frees within their step.
        self._frees = 0
        #: Snapshot labels and steps (filled only with snapshots on).
        self._labels: List[Tuple[str, int]] = []
        #: A walked placement that failed after its adjacency attempt:
        #: ``(name, instance, expected_start, size, direction)``, for
        #: its ``alloc.fallback`` event.
        self._unplaced: Optional[Tuple[str, int, int, int, str]] = None
        keeps = [k for k in schedule.keeps if k.fb_set == fb_set]
        self.kept_data: Dict[str, SharedData] = {
            k.name: k for k in keeps if isinstance(k, SharedData)
        }
        self.kept_results: Dict[str, SharedResult] = {
            k.name: k for k in keeps if isinstance(k, SharedResult)
        }

    # -- driver -----------------------------------------------------------

    def execute(self) -> AllocationMap:
        try:
            clusters = self.schedule.clustering.on_set(self.fb_set)
            for cluster in clusters:
                self._place_cluster_inputs(cluster)
                if self.snapshots:
                    self._snapshot(f"after load {cluster.name} input data")
                self._run_cluster(cluster)
                self._finish_cluster(cluster)
                if self.snapshots:
                    self._snapshot(f"after {cluster.name} stores complete")
            self._close_round(clusters)
            free_words = self.free_list.free_words
            if self._live or free_words != self.capacity:
                live = ", ".join(
                    f"{name}#{instance}" for _, name, instance in sorted(
                        (segment.placed_key(instance - segment.first),
                         name, instance)
                        for name, segments in self._live.items()
                        for segment in segments
                        for instance in range(
                            segment.first + segment.closed,
                            segment.first + segment.count,
                        )
                    )
                )
                raise AllocationError(
                    f"set{self.fb_set}: {free_words} of {self.capacity} "
                    f"words free at end of round (still live: "
                    f"{live or 'none'})"
                )
        finally:
            if self.decisions is not None:
                self._record_events()
        if self.snapshots:
            from repro.alloc.views import build_snapshots

            self.map.snapshots = build_snapshots(
                self.map.segments, self._labels
            )
        return self.map

    # -- phases ------------------------------------------------------------

    def _place_cluster_inputs(self, cluster) -> None:
        """Figure 4, input placement, in :meth:`Schedule.load_order`:
        shared data first (most distant consumer first), then kernel
        data from the last kernel down."""
        self.step += 1
        for pos, name in enumerate(self.schedule.load_order(cluster.index)):
            info = self.dataflow[name]
            self._place_input(
                name, 1 if info.invariant else self.rf, cluster.index,
                info.size, pos,
            )

    def _place_input(self, name: str, instances: int, cluster_index: int,
                     size: int, pos: int) -> None:
        """Place an input's *instances* from upper addresses: instance 0
        by :meth:`_allocate`, then instances ``1..`` as one chain right
        below it when that whole range is free, else one by one.

        Nothing else is placed between an object's instances, so the
        chain succeeds exactly when every per-instance adjacency
        attempt would.
        """
        self._allocate(name, 0, cluster_index, size, "high", pos)
        if instances == 1:
            return
        chain = self._carve_chain(name, size, "high", instances - 1)
        if chain is None:
            for instance in range(1, instances):
                self._allocate(
                    name, instance, cluster_index, size, "high", pos
                )
            return
        self._commit_chain(
            name, size, "high", instances - 1, chain, alloc_stride=0
        )

    def _run_cluster(self, cluster) -> None:
        """Execution: kernels in order, each run ``RF`` times; results
        placed as produced, dead space released after each execution.

        Iteration 0 is walked.  At the start of iteration 1 every
        output's instances ``1..RF-1`` are carved as one chain each
        (:meth:`_carve_output_chains`); when that succeeds, the rest of
        the run needs no placement.  Otherwise the run is walked to its
        end, each iteration giving its dead inputs' words back
        (:meth:`_return_dead`).  Either way the dead inputs are closed
        once, after the run (:meth:`_release_dead`).
        """
        for kernel_name in cluster.kernel_names:
            kernel = self.dataflow.application.kernel(kernel_name)
            outputs = self._kernel_outputs(cluster, kernel)
            release = self._dead_inputs(cluster, kernel)
            cursors = [0] * len(release)
            first_step = self.step + 1
            walked = self.rf
            for instance in range(self.rf):
                self.step += 1
                if (instance == 1
                        and self._carve_output_chains(outputs) is not None):
                    walked = 1
                    self.step = first_step + self.rf - 1
                    break
                for pos, (out_name, size, direction) in enumerate(outputs):
                    self._allocate(
                        out_name, instance, cluster.index, size, direction,
                        pos,
                    )
                self._return_dead(release, instance, cursors)
                if self.snapshots:
                    self._snapshot(
                        f"after execution {instance + 1} of {kernel_name}"
                    )
            self._release_dead(release, first_step, walked)
            if self.snapshots:
                for instance in range(walked, self.rf):
                    self._labels.append((
                        f"after execution {instance + 1} of {kernel_name}",
                        first_step + instance,
                    ))

    def _carve_output_chains(
        self, outputs: List[Tuple[str, int, str]]
    ) -> Optional[List[Tuple[str, int, str, int, int]]]:
        """Carve every output's instances ``1..RF-1`` as one chain next
        to its instance 0, in output order, and return per output
        ``(name, size, direction, origin, stride)`` (see
        :meth:`_commit_chain`); ``None``, with nothing carved, when any
        chain is not free.

        Carving in sequence is the joint check: a chain that overlaps
        an earlier sibling's is no longer free (the module docstring
        says why the result equals the walk's).
        """
        count = self.rf - 1
        carved: List[Extent] = []
        for out_name, size, direction in outputs:
            chain = self._carve_chain(out_name, size, direction, count)
            if chain is None:
                for extent in carved:
                    self.free_list.free(extent.start, extent.size)
                if carved and self.debug_invariants:
                    self.free_list.check_invariants()
                return None
            carved.append(chain)
        return [
            (out_name, size, direction)
            + self._commit_chain(out_name, size, direction, count, chain)
            for (out_name, size, direction), chain in zip(outputs, carved)
        ]

    def _carve_chain(self, name: str, size: int, direction: str,
                     count: int) -> Optional[Extent]:
        """Carve the *count* instances after *name*'s instance 0 in one
        :meth:`FreeBlockList.allocate_at`: the range right below
        (``"high"``) or above (``"low"``) instance 0, where the walk's
        adjacency attempts would put them.  ``None`` (nothing carved)
        when instance 0 was split or the range is not free.

        Chain slots are taken from the returned extent, never from the
        requested start, so a free list that hands out other words than
        it carved is still caught by the free path.
        """
        previous = self._last_single_extent.get(name)
        if previous is None or previous[0] != 0:
            return None
        total = size * count
        first = previous[1]
        start = first.start - total if direction == "high" else first.end
        if start < 0 or start + total > self.capacity:
            return None
        try:
            chain = self.free_list.allocate_at(start, total)
        except FragmentationError:
            return None
        if self.debug_invariants:
            self.free_list.check_invariants()
        return chain

    def _commit_chain(self, name: str, size: int, direction: str,
                      count: int, chain: Extent, *,
                      alloc_stride: int = 1) -> Tuple[int, int]:
        """Book a carved chain as instances ``1..count`` of *name* and
        return its ``(origin, stride)``: instance ``i`` starts at
        ``origin + i * stride`` and is placed *alloc_stride* steps
        after instance ``i - 1`` (one iteration apart in a kernel run,
        at once for an input).

        The chain joins instance 0's segment when it continues it, else
        it is a segment of its own.  The walk's adjacency state ends at
        the chain's last instance, and its placements count as chained.
        """
        if direction == "high":
            origin, stride = chain.end, -size
        else:
            origin, stride = chain.start - size, size
        segments = self._live.get(name)
        head = segments[0] if segments else None
        if head is None or head.first != 0 or head.closed:
            raise AllocationError(
                f"set{self.fb_set}: chain of {name} without a live "
                f"instance 0"
            )
        if (len(segments) == 1 and head.count == 1 and head.extents is None
                and head.start == origin
                and head.alloc_step + alloc_stride == self.step):
            head.count = count + 1
            head.stride = stride
            head.alloc_stride = alloc_stride
        else:
            for other in segments:
                begin = max(other.first + other.closed, 1)
                if begin < min(other.first + other.count, count + 1):
                    raise AllocationError(
                        f"set{self.fb_set}: {name}#{begin} is already placed"
                    )
            self._add_live(segments, Segment(
                name, 1, count, head.cluster_index, direction, True,
                origin + stride, stride, size, None, self.step,
                alloc_stride, head.place_pos,
            ))
        self._last_single_extent[name] = (
            count, Extent(origin + count * stride, size)
        )
        self.map.chained += count
        return origin, stride

    def _kernel_outputs(self, cluster, kernel) -> List[Tuple[str, int, str]]:
        """The results *kernel* places per execution in *cluster*, as
        ``(name, size, direction)`` in output order, built once per
        (cluster, kernel) like :meth:`_dead_inputs`.

        Shared results kept from this cluster grow from upper
        addresses; final, intermediate and stored shared results from
        lower ones.
        """
        outputs: List[Tuple[str, int, str]] = []
        for out_name in kernel.outputs:
            keep = self.kept_results.get(out_name)
            if keep is not None and keep.producer_cluster == cluster.index:
                direction = "high"
            else:
                direction = "low"
            outputs.append((out_name, self.dataflow[out_name].size, direction))
        return outputs

    def _dead_inputs(self, cluster, kernel) -> List[Tuple[str, bool]]:
        """The inputs *kernel* releases after each of its executions in
        *cluster*, as ``(name, invariant)`` in input order.

        Whether an input dies here does not depend on the iteration, so
        the list is built once per (cluster, kernel); only the
        :meth:`_release_dead` binding checks run per instance.
        """
        release: List[Tuple[str, bool]] = []
        for in_name in kernel.inputs:
            info = self.dataflow[in_name]
            if in_name in self.kept_data or in_name in self.kept_results:
                continue  # kept items persist to their span end
            last = self.dataflow.last_use_in_cluster(in_name, cluster.index)
            if last != kernel.name:
                continue
            produced_here = info.producer_cluster == cluster.index
            if produced_here and (
                info.is_final or info.consumed_after(cluster.index)
            ):
                # Outbound result: freed when its store completes
                # (cluster end), not at its last local use.
                continue
            release.append((in_name, info.invariant))
        return release

    def _return_dead(self, release: List[Tuple[str, bool]], instance: int,
                     cursors: List[int]) -> None:
        """Paper's ``release(c, k, iter)`` over a :meth:`_dead_inputs`
        list, in a walked iteration: give each released instance's
        words back now (:meth:`_release_dead` closes it after the run).
        *cursors* holds per input the index of its live segment that
        holds the current instance."""
        live = self._live
        for pos, (in_name, invariant) in enumerate(release):
            if invariant:
                # Single shared copy (instance 0): released only after
                # the last concurrent iteration used it.
                if instance != self.rf - 1:
                    continue
                key_instance = 0
            else:
                key_instance = instance
            segments = live.get(in_name)
            if segments is None:
                # Served from the other set (cross-set retention):
                # nothing was placed here.
                continue
            at = cursors[pos]
            end = len(segments)
            while at < end:
                segment = segments[at]
                if key_instance < segment.first + segment.count:
                    break
                at += 1
            cursors[pos] = at
            if at == end:
                continue
            k = key_instance - segment.first
            if k < segment.closed:
                continue  # not live here
            self._return_words(
                in_name, key_instance, segment.start + k * segment.stride,
                segment.size, segment.extents,
            )

    def _release_dead(self, release: List[Tuple[str, bool]],
                      first_step: int, walked: int) -> None:
        """Close the dead inputs of a kernel run that started at
        *first_step*, after it: instance ``i`` at iteration ``i``'s
        step (an invariant one's instance 0 at the last iteration).
        The first *walked* iterations gave their words back already;
        the rest go back now, in one :meth:`_give_back`."""
        rf = self.rf
        returned: _Pieces = []
        for pos, (in_name, invariant) in enumerate(release):
            if invariant:
                self._close(
                    in_name, 0, 1, first_step + rf - 1, 0, pos,
                    [] if walked == rf else returned,
                )
                continue
            self._close(in_name, 0, walked, first_step, 1, pos, [])
            if walked < rf:
                self._close(in_name, walked, rf, first_step + walked, 1, pos,
                            returned)
        if returned:
            self._give_back(returned)

    def _finish_cluster(self, cluster) -> None:
        """Release stored results (their DMA stores complete before the
        next same-set cluster loads) and keeps whose span ends here;
        their words go back in one :meth:`_give_back`."""
        plan = self.schedule.plan_for(cluster.index)
        self.step += 1
        pieces: _Pieces = []
        for out_name in plan.stores:
            if out_name in self.kept_results:
                continue  # kept-and-stored: released at span end
            self._free_instances(out_name, self.rf, pieces, missing_ok=True)
        # Keeps whose span ended at (or, for cross-set consumers,
        # before) this cluster are released now.
        for keep in list(self.kept_data.values()):
            if keep.span[1] <= cluster.index and self._is_live(keep.name, 0):
                self._free_instances(
                    keep.name, 1 if keep.invariant else self.rf, pieces
                )
        for keep in list(self.kept_results.values()):
            if keep.span[1] <= cluster.index and self._is_live(keep.name, 0):
                self._free_instances(keep.name, self.rf, pieces)
        if pieces:
            self._give_back(pieces)

    def _close_round(self, clusters) -> None:
        """Free anything that survives the round boundary.

        Final results of the last cluster were freed in its finish
        phase.  Keeps whose last consumer sits on the *other* set (the
        cross-set-retention extension) have no same-set finish phase
        after their span ends, so they are released here.  Anything
        else live at the end of :meth:`execute` is a bookkeeping bug.
        """
        self.step += 1
        pieces: _Pieces = []
        for keep in list(self.kept_data.values()):
            if self._is_live(keep.name, 0):
                self._free_instances(
                    keep.name, 1 if keep.invariant else self.rf, pieces
                )
        for keep in list(self.kept_results.values()):
            if self._is_live(keep.name, 0):
                self._free_instances(keep.name, self.rf, pieces)
        if pieces:
            self._give_back(pieces)

    # -- placement ---------------------------------------------------------

    def _allocate(
        self,
        name: str,
        instance: int,
        cluster_index: int,
        size: int,
        direction: str,
        pos: int = 0,
    ) -> None:
        """Place one instance, *pos* ordering it among the placements
        of this step: it extends its previous instance's segment when
        it lands right next to it (:meth:`_extend`), else it is a
        segment of one."""
        segments = self._live.get(name)
        if segments is not None:
            last = segments[-1]
            if (instance < last.first + last.count
                    and self._is_live(name, instance)):
                raise AllocationError(
                    f"set{self.fb_set}: {name}#{instance} is already placed"
                )
        free_list = self.free_list
        extents: Optional[Tuple[Extent, ...]] = None
        regular = True
        expected_start = None
        fallback = None
        if instance:
            # Iteration adjacency: right below (high) or above (low) the
            # previous instance, when that one was placed in one piece.
            previous = self._last_single_extent.get(name)
            if previous is not None and previous[0] == instance - 1:
                prev_start = previous[1].start
                start = (
                    prev_start - size if direction == "high"
                    else prev_start + previous[1].size
                )
                if start >= 0 and start + size <= self.capacity:
                    expected_start = start
        if expected_start is not None:
            try:
                extents = (free_list.allocate_at(expected_start, size),)
            except FragmentationError:
                # The adjacency attempt is rolled back; fall through to
                # the direction-ordered free-list scan.
                fallback = expected_start
        if extents is None:
            regular = instance == 0 or expected_start is None
            try:
                if direction == "high":
                    extents = (
                        free_list.allocate_high(size, best_fit=self.best_fit),
                    )
                else:
                    extents = (
                        free_list.allocate_low(size, best_fit=self.best_fit),
                    )
            except FragmentationError:
                try:
                    extents = free_list.allocate_split(
                        size, from_high=(direction == "high")
                    )
                except FragmentationError as error:
                    if fallback is not None:
                        self._unplaced = (
                            name, instance, fallback, size, direction
                        )
                    raise FragmentationError(
                        f"set{self.fb_set}: {name}#{instance}: {error}"
                    ) from error
        if len(extents) == 1:
            extent = extents[0]
            self._last_single_extent[name] = (instance, extent)
            if fallback is None and expected_start is not None and (
                self._extend(segments, instance, extent.start, pos,
                             cluster_index, direction)
            ):
                if self.debug_invariants:
                    free_list.check_invariants()
                return
            segment = Segment(
                name, instance, 1, cluster_index, direction, regular,
                extent.start, 0, size, None, self.step, 0, pos, fallback,
            )
        else:
            segment = Segment(
                name, instance, 1, cluster_index, direction, regular,
                extents[0].start, 0, size, extents, self.step, 0, pos,
                fallback,
            )
        if segments is None:
            self._live[name] = [segment]
        elif instance >= last.first + last.count:
            segments.append(segment)
        else:
            self._add_live(segments, segment)
        if self.debug_invariants:
            free_list.check_invariants()

    def _extend(self, segments: Optional[List[Segment]], instance: int,
                start: int, pos: int, cluster_index: int,
                direction: str) -> bool:
        """Book *instance*, placed right next to its previous instance
        at *start*, as the next instance of the object's last live
        segment when it continues that segment's affine pattern (same
        cluster, direction and load or output index, addresses and
        steps one stride apart); False, with nothing booked,
        otherwise."""
        if segments is None:
            return False
        last = segments[-1]
        count = last.count
        if (last.first + count != instance or last.extents is not None
                or not last.regular or last.fallback is not None
                or last.place_pos != pos
                or last.cluster_index != cluster_index
                or last.direction != direction):
            return False
        if count == 1:
            last.stride = start - last.start
            last.alloc_stride = self.step - last.alloc_step
        elif (start != last.start + count * last.stride
                or self.step != last.alloc_step + count * last.alloc_stride):
            return False
        last.count = count + 1
        return True

    def _is_live(self, name: str, instance: int) -> bool:
        """Whether *instance* of *name* is placed and not yet freed."""
        for segment in self._live.get(name, ()):
            first = segment.first
            if first + segment.closed <= instance < first + segment.count:
                return True
        return False

    def _add_live(self, segments: List[Segment], segment: Segment) -> None:
        """Insert *segment* (whose instances are not live) into one
        object's live list by instance.  A segment whose closed prefix
        covers the new instances is booked up to there first, so the
        list's instance ranges stay disjoint."""
        first = segment.first
        end = first + segment.count
        for other in segments:
            if other.closed and other.first < end and (
                first < other.first + other.closed
            ):
                self._book_closed(other)
        at = 0
        while at < len(segments) and segments[at].first < first:
            at += 1
        segments.insert(at, segment)

    # -- release -----------------------------------------------------------

    def _close(self, name: str, lo: int, hi: int, step: int, stride: int,
               pos: int, pieces: _Pieces) -> None:
        """Close the live instances ``lo..hi-1`` of *name*, instance
        ``i`` freed at step ``step + (i - lo) * stride`` in release
        order *pos*, and append their pieces (words not yet given back)
        to *pieces*, in instance order.

        A closure extends the closed prefix of its segment when it
        continues it affinely (same *pos*, steps in one arithmetic
        progression); otherwise the closed prefix is booked first.  A
        segment closed whole is booked in :attr:`AllocationMap.segments`.
        """
        segments = self._live.get(name)
        if segments is None:
            return
        index = 0
        while index < len(segments):
            segment = segments[index]
            first = segment.first
            if first >= hi:
                break
            begin = first + segment.closed
            end = first + segment.count
            a = lo if lo > begin else begin
            b = hi if hi < end else end
            if a >= b:
                index += 1
                continue
            if a > begin:
                # Closing past live instances: they keep a segment of
                # their own, in front of this one.
                back = segment.part(a - first, segment.count)
                back.closed = 0
                segment.count = a - first
                index += 1
                segments.insert(index, back)
                segment = back
            n = b - a
            free_step = step + (a - lo) * stride
            closed = segment.closed
            if closed:
                common = (free_step - segment.free_step if closed == 1
                          else segment.free_stride)
                if (segment.free_pos == pos
                        and free_step == segment.free_step + closed * common
                        and (n == 1 or stride == common)):
                    segment.free_stride = common
                else:
                    self._book_closed(segment)
                    closed = 0
            if not closed:
                segment.free_step = free_step
                segment.free_stride = stride
                segment.free_pos = pos
            segment.closed = closed + n
            k = a - segment.first
            pieces.append((
                name, a, n, segment.start + k * segment.stride,
                segment.stride, segment.size, segment.extents,
            ))
            if segment.closed == segment.count:
                del segments[index]
                self.map.segments.append(segment)
            else:
                index += 1
        if not segments:
            del self._live[name]

    def _book_closed(self, segment: Segment) -> None:
        """Book the closed prefix of a live segment as a segment of its
        own; the live one keeps the rest."""
        closed = segment.closed
        booked = segment.part(0, closed)
        booked.closed = closed
        self.map.segments.append(booked)
        segment.first += closed
        segment.count -= closed
        segment.start += closed * segment.stride
        segment.alloc_step += closed * segment.alloc_stride
        segment.closed = 0

    def _free_instances(self, name: str, count: int, pieces: _Pieces, *,
                        missing_ok: bool = False) -> None:
        """Close instances ``0..count-1`` of *name* at the current step,
        their pieces going to *pieces*.  An instance that is not live
        raises, unless *missing_ok* (a stored result served from the
        other set)."""
        before = len(pieces)
        self._close(name, 0, count, self.step, 0, self._frees, pieces)
        self._frees += 1
        if not missing_ok:
            closed = 0
            for _, instance, run, _, _, _, _ in pieces[before:]:
                if instance != closed:
                    break
                closed += run
            if closed < count:
                raise AllocationError(
                    f"free of unallocated region {name}#{closed}"
                )

    def _give_back(self, pieces: _Pieces) -> None:
        """Return the words of closed *pieces* to the free list: one
        free per run of adjacent words (the coalesced list depends
        only on the set of free words), a split placement extent by
        extent.  Callers give back a whole phase's pieces at once, so
        neighbouring objects' words coalesce too.

        When a run's single free fails, its instances are freed one by
        one instead, so the error names the instance at fault.
        """
        runs = []
        for piece in pieces:
            _, _, count, start, stride, size, extents = piece
            if extents is not None or (count > 1 and abs(stride) != size):
                self._return_each([piece])
                continue
            last = start + (count - 1) * stride
            if start < last:
                runs.append((start, last + size, piece))
            else:
                runs.append((last, start + size, piece))
        runs.sort(key=_FIRST)
        at = 0
        while at < len(runs):
            low, high, piece = runs[at]
            end = at + 1
            while end < len(runs) and runs[end][0] == high:
                high = runs[end][1]
                end += 1
            if high - low > piece[5]:
                try:
                    self.free_list.free(low, high - low)
                except AllocationError:
                    self._return_each([run[2] for run in runs[at:end]])
                else:
                    if self.debug_invariants:
                        self.free_list.check_invariants()
            else:
                self._return_each([piece])
            at = end

    def _return_each(self, pieces: _Pieces) -> None:
        """Give the words of *pieces* back one instance at a time."""
        for name, instance, count, start, stride, size, extents in pieces:
            if extents is not None:
                self._return_words(name, instance, 0, 0, extents)
                continue
            for k in range(count):
                self._return_words(name, instance + k, start + k * stride,
                                   size)

    def _return_words(self, name: str, instance: int, start: int,
                      size: int,
                      extents: Optional[Tuple[Extent, ...]] = None) -> None:
        """Give one instance's words (``[start, start+size)``, or its
        split *extents*) back to the free list; a free-list error is
        re-raised naming the set and the instance."""
        try:
            if extents is None:
                self.free_list.free(start, size)
            else:
                self.free_list.free_extents(extents)
        except AllocationError as error:
            raise AllocationError(
                f"set{self.fb_set}: {name}#{instance}: {error}"
            ) from error
        if self.debug_invariants:
            self.free_list.check_invariants()

    # -- derived views -----------------------------------------------------

    def _snapshot(self, label: str) -> None:
        """Note a snapshot of the live regions at this step under
        *label* (callers check :attr:`snapshots`, so no label is
        formatted otherwise); :func:`~repro.alloc.views.build_snapshots`
        fills it in at the end of the round."""
        self._labels.append((label, self.step))

    def _record_events(self) -> None:
        """Append the ``alloc.*`` events of every placement and free so
        far to :attr:`decisions`
        (:func:`~repro.alloc.views.decision_events`), and the
        ``alloc.fallback`` of a placement that failed after it.  After
        a failure, the dead inputs of the failing kernel run are not
        listed as freed: a run closes them when it ends."""
        from repro.alloc.views import decision_events

        segments = list(self.map.segments)
        for live in self._live.values():
            segments.extend(live)
        record = self.decisions.record
        for kind, name, detail in decision_events(segments, self.fb_set):
            record(kind, name, **detail)
        if self._unplaced is not None:
            name, instance, expected_start, size, direction = self._unplaced
            record(
                "alloc.fallback", name, instance=instance,
                fb_set=self.fb_set, step=self.step,
                expected_start=expected_start, size=size,
                direction=direction,
            )
