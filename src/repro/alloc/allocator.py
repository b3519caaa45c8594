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

Cost model: a placement costs one tuple.  A live instance is one
``(extents, direction, cluster_index, alloc_step, regular)`` entry in
``_SetAllocation._open`` and becomes one positional
:class:`AllocationRecord` (a ``NamedTuple``) at its free; each kernel's
outputs and dead inputs are resolved once per (cluster, kernel), and
decision events and snapshot labels are built only when a trace or
snapshots are attached.  ``_open`` is the one live-region table: it
rejects duplicate placements and frees of unplaced instances; the free
list rejects out-of-capacity extents and double frees.  Overlap is not
checked per placement.  A word can reach two live regions only through
a free-list bug, and then some free hits an already-free word, or some
word is still carved when the round ends; ``execute`` checks that the
list is whole again at the end.

Most of a round is chains: instance ``i`` of an object sits right next
to instance ``i - 1``.  So instances ``1..RF-1`` of an input, and of
every output of a kernel run, are carved in one ``allocate_at`` over
the whole range next to instance 0, when it is free; the slots are
taken from the extent the free list returns.  A kernel run's chains are
carved in output order at the start of iteration 1, which is the joint
check (a chain overlapping a sibling's is no longer free); if any
fails, the carved ones are freed and the run is walked per instance as
before.  The result is exact: ``allocate_at`` does not search, only
this kernel's outputs are allocated until the run ends, releases only
add free words, and the coalesced list depends only on the set of free
words.  In a chained run, dead inputs are retired per iteration (record
and event as in the walk) and their words go back after the run, one
free per input when its instances tile one range; the finish phase
frees a stored object's instances the same way.  A chained instance
still costs its ``_open`` entry, ``Extent`` and record, and the walk
still places about 30% of corpus placements.  There is no fork on a
decision trace, snapshots or ``debug_invariants``: events, ``_open``
and snapshots are filled per instance and iteration as in the walk, so
the golden test (trace and snapshots on) and the suite (invariant
checks on) run the chain path.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.arch.frame_buffer import Extent
from repro.alloc.free_list import FreeBlockList
from repro.core.dataflow import DataflowInfo
from repro.core.reuse import SharedData, SharedResult
from repro.errors import AllocationError, FragmentationError
from repro.schedule.plan import Schedule

__all__ = ["AllocationRecord", "Snapshot", "AllocationMap", "FrameBufferAllocator"]

#: Released instances of one object whose words are still to go back to
#: the free list: ``(instance, extents)`` in release order.
_Freed = List[Tuple[int, Tuple[Extent, ...]]]


class AllocationRecord(NamedTuple):
    """Lifetime and placement of one object instance.

    A ``NamedTuple`` rather than a frozen dataclass: the allocator mints
    one per placement (hundreds per corpus workload), so construction
    cost is on the hot path.  Use ``record._replace(...)`` for a
    modified copy.

    Attributes:
        name: object name.
        instance: iteration index within the round (``0 .. RF-1``).
        cluster_index: cluster whose activity allocated it.
        extents: the address ranges occupied (len > 1 means split).
        direction: ``"high"`` or ``"low"`` growth direction.
        alloc_step: logical step at which it was placed.
        free_step: logical step at which it was released.
        regular: placement was adjacent to the previous instance (always
            True for instance 0).
    """

    name: str
    instance: int
    cluster_index: int
    extents: Tuple[Extent, ...]
    direction: str
    alloc_step: int
    free_step: int
    regular: bool

    @property
    def size(self) -> int:
        return sum(extent.size for extent in self.extents)

    @property
    def split(self) -> bool:
        """True if the object was split across free blocks."""
        return len(self.extents) > 1


@dataclass(frozen=True)
class Snapshot:
    """FB-set contents at one labelled point (for Figure-5 rendering)."""

    label: str
    step: int
    regions: Tuple[Tuple[str, int, Tuple[Extent, ...]], ...]

    @property
    def occupied_words(self) -> int:
        return sum(
            extent.size for _, _, extents in self.regions for extent in extents
        )


@dataclass
class AllocationMap:
    """Complete placement of one FB set for one steady-state round."""

    fb_set: int
    capacity_words: int
    rf: int
    records: List[AllocationRecord] = field(default_factory=list)
    #: Filled only by ``FrameBufferAllocator(..., snapshots=True)``.
    snapshots: List[Snapshot] = field(default_factory=list)
    #: Placements made as part of a chain (instances ``1..RF-1`` of an
    #: object carved in one step next to its instance 0).
    chained: int = 0

    @property
    def splits(self) -> int:
        """Number of split placements (the paper reports zero)."""
        return sum(1 for record in self.records if record.split)

    @property
    def irregular_placements(self) -> int:
        """Placements that broke iteration adjacency."""
        return sum(1 for record in self.records if not record.regular)

    @property
    def peak_words(self) -> int:
        """Maximum simultaneous occupancy over the round."""
        events: List[Tuple[int, int]] = []
        for record in self.records:
            events.append((record.alloc_step, record.size))
            events.append((record.free_step, -record.size))
        events.sort(key=lambda pair: (pair[0], -pair[1]))
        best = 0
        current = 0
        for _, delta in events:
            current += delta
            best = max(best, current)
        return best

    @property
    def highest_address_used(self) -> int:
        """One past the highest word ever occupied."""
        return max(
            (extent.end for record in self.records for extent in record.extents),
            default=0,
        )

    def record_for(self, name: str, instance: int) -> AllocationRecord:
        """The record of one instance (there is exactly one per round)."""
        for record in self.records:
            if record.name == name and record.instance == instance:
                return record
        raise KeyError(f"no allocation record for {name}#{instance}")

    def overlaps(self) -> Iterator[Tuple[
        AllocationRecord, AllocationRecord, Extent, Extent
    ]]:
        """Every pair of lifetime-overlapping records that share words,
        as ``(first, second, extent_a, extent_b)``.

        Pairs come in :attr:`records` order — ``first`` at index ``i``,
        ``second`` at ``j > i``, ascending ``(i, j)``, then extents in
        record order — so the first pair reported is the first an
        all-pairs scan would find.  Records are swept by ``alloc_step``;
        each is compared only with the live extents that start within
        one widest extent below its own.
        """
        records = self.records
        widest = max(
            (extent.size for record in records for extent in record.extents),
            default=0,
        )
        live: List[Tuple[int, int, int]] = []  # (start, end, record), by start
        ending: List[Tuple[int, int]] = []  # heap of (free_step, record)
        clashes: Set[Tuple[int, int]] = set()
        for index in sorted(
            range(len(records)), key=lambda k: records[k].alloc_step
        ):
            record = records[index]
            # Steps only grow along the sweep: a record freed by now
            # overlaps nothing that comes later.
            while ending and ending[0][0] <= record.alloc_step:
                _, gone = heapq.heappop(ending)
                for extent in records[gone].extents:
                    del live[bisect_left(live, (extent.start, extent.end, gone))]
            spans = [
                (extent.start, extent.end, index) for extent in record.extents
            ]
            for start, end, _ in spans:
                low = bisect_left(live, (start - widest + 1,))
                high = bisect_left(live, (end,), low)
                for _, other_end, other in live[low:high]:
                    if (
                        other_end > start
                        and records[other].alloc_step < record.free_step
                    ):
                        clashes.add((min(other, index), max(other, index)))
            for span in spans:
                insort(live, span)
            heapq.heappush(ending, (record.free_step, index))
        for i, j in sorted(clashes):
            first, second = records[i], records[j]
            for extent_a in first.extents:
                for extent_b in second.extents:
                    if extent_a.overlaps(extent_b):
                        yield first, second, extent_a, extent_b

    def verify(self) -> None:
        """Re-check that lifetime-overlapping records never share words.

        The allocator guards this online through its free list (double
        frees raise, and the list must be whole at round end); this is
        an independent offline check used by the test suite.
        """
        for first, second, extent_a, extent_b in self.overlaps():
            raise AllocationError(
                f"{first.name}#{first.instance} and "
                f"{second.name}#{second.instance} overlap in "
                f"space ({extent_a} vs {extent_b}) and time"
            )


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
        #: Live instances: ``(name, instance) -> (extents, direction,
        #: cluster_index, alloc_step, regular)``, the record minus its
        #: free step, in placement order.  The one live-region table:
        #: liveness tests and snapshots read it directly.
        self._open: Dict[
            Tuple[str, int], Tuple[Tuple[Extent, ...], str, int, int, bool]
        ] = {}
        self._last_single_extent: Dict[str, Tuple[int, Extent]] = {}
        keeps = [k for k in schedule.keeps if k.fb_set == fb_set]
        self.kept_data: Dict[str, SharedData] = {
            k.name: k for k in keeps if isinstance(k, SharedData)
        }
        self.kept_results: Dict[str, SharedResult] = {
            k.name: k for k in keeps if isinstance(k, SharedResult)
        }

    # -- driver -----------------------------------------------------------

    def execute(self) -> AllocationMap:
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
        if self._open or free_words != self.capacity:
            live = ", ".join(f"{name}#{instance}" for name, instance in self._open)
            raise AllocationError(
                f"set{self.fb_set}: {free_words} of {self.capacity} words free "
                f"at end of round (still live: {live or 'none'})"
            )
        return self.map

    # -- phases ------------------------------------------------------------

    def _place_cluster_inputs(self, cluster) -> None:
        """Figure 4, input placement, in :meth:`Schedule.load_order`:
        shared data first (most distant consumer first), then kernel
        data from the last kernel down."""
        self.step += 1
        for name in self.schedule.load_order(cluster.index):
            info = self.dataflow[name]
            self._place_input(
                name, 1 if info.invariant else self.rf, cluster.index,
                info.size,
            )

    def _place_input(self, name: str, instances: int, cluster_index: int,
                     size: int) -> None:
        """Place an input's *instances* from upper addresses: instance 0
        by :meth:`_allocate`, then instances ``1..`` as one chain right
        below it when that whole range is free, else one by one.

        Nothing else is placed between an object's instances, so the
        chain succeeds exactly when every per-instance adjacency
        attempt would.
        """
        self._allocate(name, 0, cluster_index, size, "high")
        if instances == 1:
            return
        chain = self._carve_chain(name, size, "high", instances - 1)
        if chain is None:
            for instance in range(1, instances):
                self._allocate(name, instance, cluster_index, size, "high")
            return
        origin, stride = self._commit_chain(
            name, size, "high", instances - 1, chain
        )
        for instance in range(1, instances):
            self._place_chained(
                name, instance, origin + instance * stride, size, "high",
                cluster_index,
            )

    def _run_cluster(self, cluster) -> None:
        """Execution: kernels in order, each run ``RF`` times; results
        placed as produced, dead space released after each execution.

        Iteration 0 is walked.  At the start of iteration 1 every
        output's instances ``1..RF-1`` are carved as one chain each
        (:meth:`_carve_output_chains`); when that succeeds, the rest of
        the run only hands out chain slots, and the dead inputs' words
        go back once per input after the last iteration.  Otherwise
        the run is walked to its end.
        """
        for kernel_name in cluster.kernel_names:
            kernel = self.dataflow.application.kernel(kernel_name)
            outputs = self._kernel_outputs(cluster, kernel)
            release = self._dead_inputs(cluster, kernel)
            chains = None
            returned: Dict[str, _Freed] = {}
            for instance in range(self.rf):
                self.step += 1
                if instance == 1:
                    chains = self._carve_output_chains(outputs)
                    if chains is not None:
                        returned = {in_name: [] for in_name, _ in release}
                if chains is None:
                    for out_name, size, direction in outputs:
                        self._allocate(
                            out_name, instance, cluster.index, size, direction
                        )
                    self._release_dead(release, instance, None)
                else:
                    for out_name, size, direction, origin, stride in chains:
                        self._place_chained(
                            out_name, instance, origin + instance * stride,
                            size, direction, cluster.index,
                        )
                    self._release_dead(release, instance, returned)
                if self.snapshots:
                    self._snapshot(
                        f"after execution {instance + 1} of {kernel_name}"
                    )
            for in_name, freed in returned.items():
                if freed:
                    self._give_back(in_name, freed)

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
                      count: int, chain: Extent) -> Tuple[int, int]:
        """Book a carved chain and return its ``(origin, stride)``:
        instance ``i`` of the chain starts at ``origin + i * stride``.
        The walk's adjacency state ends at the chain's last instance,
        and its placements count as chained."""
        if direction == "high":
            origin, stride = chain.end, -size
        else:
            origin, stride = chain.start - size, size
        self._last_single_extent[name] = (
            count, Extent(origin + count * stride, size)
        )
        self.map.chained += count
        return origin, stride

    def _place_chained(self, name: str, instance: int, start: int,
                       size: int, direction: str, cluster_index: int) -> None:
        """Open one instance in a slot of an already carved chain: the
        same live entry and ``alloc.place`` event as a regular
        :meth:`_allocate`, with no free-list call."""
        key = (name, instance)
        if key in self._open:
            raise AllocationError(
                f"set{self.fb_set}: {name}#{instance} is already placed"
            )
        extents = (Extent(start, size),)
        if self.decisions is not None:
            self._record_alloc(
                "alloc.place", name, instance,
                cluster_index=cluster_index, size=size, direction=direction,
                regular=True, split=False, extents=extents,
            )
        self._open[key] = (extents, direction, cluster_index, self.step, True)

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

    def _release_dead(
        self,
        release: List[Tuple[str, bool]],
        instance: int,
        returned: Optional[Dict[str, _Freed]],
    ) -> None:
        """Paper's ``release(c, k, iter)`` over a :meth:`_dead_inputs`
        list.

        Each released instance is retired now (its record and
        ``alloc.free`` event carry this iteration's step).  Its words go
        back to the free list now when *returned* is ``None`` (a walked
        iteration), else they are collected there per input and given
        back after the chained run.
        """
        pop = self._open.pop
        for in_name, invariant in release:
            if invariant:
                # Single shared copy (instance 0): released only after
                # the last concurrent iteration used it.
                if instance != self.rf - 1:
                    continue
                key_instance = 0
            else:
                key_instance = instance
            opened = pop((in_name, key_instance), None)
            if opened is None:
                # Served from the other set (cross-set retention):
                # nothing was placed here.
                continue
            # Dead input or intermediate instance: released now.
            if returned is None:
                self._return_words(in_name, key_instance, opened[0])
            else:
                returned[in_name].append((key_instance, opened[0]))
            self._retire(in_name, key_instance, opened)

    def _finish_cluster(self, cluster) -> None:
        """Release stored results (their DMA stores complete before the
        next same-set cluster loads) and keeps whose span ends here."""
        plan = self.schedule.plan_for(cluster.index)
        self.step += 1
        for out_name in plan.stores:
            if out_name in self.kept_results:
                continue  # kept-and-stored: released at span end
            self._free_instances(out_name, self.rf, missing_ok=True)
        # Keeps whose span ended at (or, for cross-set consumers,
        # before) this cluster are released now.
        for keep in list(self.kept_data.values()):
            if keep.span[1] <= cluster.index and (keep.name, 0) in self._open:
                self._free_instances(
                    keep.name, 1 if keep.invariant else self.rf
                )
        for keep in list(self.kept_results.values()):
            if keep.span[1] <= cluster.index and (keep.name, 0) in self._open:
                self._free_instances(keep.name, self.rf)

    def _close_round(self, clusters) -> None:
        """Free anything that survives the round boundary.

        Final results of the last cluster were freed in its finish
        phase.  Keeps whose last consumer sits on the *other* set (the
        cross-set-retention extension) have no same-set finish phase
        after their span ends, so they are released here.  Anything
        else live at the end of :meth:`execute` is a bookkeeping bug.
        """
        self.step += 1
        for keep in list(self.kept_data.values()):
            if (keep.name, 0) in self._open:
                self._free_instances(
                    keep.name, 1 if keep.invariant else self.rf
                )
        for keep in list(self.kept_results.values()):
            if (keep.name, 0) in self._open:
                self._free_instances(keep.name, self.rf)

    # -- placement ---------------------------------------------------------

    def _allocate(
        self,
        name: str,
        instance: int,
        cluster_index: int,
        size: int,
        direction: str,
    ) -> None:
        key = (name, instance)
        if key in self._open:
            raise AllocationError(
                f"set{self.fb_set}: {name}#{instance} is already placed"
            )
        free_list = self.free_list
        extents: Optional[Tuple[Extent, ...]] = None
        regular = True
        expected_start = None
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
                if self.decisions is not None:
                    self._record_alloc(
                        "alloc.fallback", name, instance,
                        expected_start=expected_start, size=size,
                        direction=direction,
                    )
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
                    raise FragmentationError(
                        f"set{self.fb_set}: {name}#{instance}: {error}"
                    ) from error
                if self.decisions is not None:
                    self._record_alloc(
                        "alloc.split", name, instance, size=size,
                        direction=direction,
                        extents=extents,
                    )
        if self.decisions is not None:
            self._record_alloc(
                "alloc.place", name, instance,
                cluster_index=cluster_index, size=size, direction=direction,
                regular=regular, split=len(extents) > 1,
                extents=extents,
            )
        self._open[key] = (
            extents, direction, cluster_index, self.step, regular
        )
        if len(extents) == 1:
            self._last_single_extent[name] = (instance, extents[0])
        if self.debug_invariants:
            free_list.check_invariants()

    def _record_alloc(self, kind: str, name: str, instance: int,
                      **detail) -> None:
        """Append one ``alloc.*`` event to :attr:`decisions` (callers
        check that a trace is attached, so no keyword dict is built
        otherwise)."""
        extents = detail.get("extents")
        if extents is not None:
            detail["extents"] = [[e.start, e.end] for e in extents]
        self.decisions.record(
            kind, name, instance=instance, fb_set=self.fb_set,
            step=self.step, **detail,
        )

    def _free_instances(self, name: str, count: int, *,
                        missing_ok: bool = False) -> None:
        """Free instances ``0..count-1`` of *name* at the current step:
        each is retired in instance order, and their words go back in
        one :meth:`_give_back`.  An instance that is not live raises,
        unless *missing_ok* (a stored result served from the other
        set)."""
        pop = self._open.pop
        freed: _Freed = []
        for instance in range(count):
            opened = pop((name, instance), None)
            if opened is None:
                if missing_ok:
                    continue
                raise AllocationError(
                    f"free of unallocated region {name}#{instance}"
                )
            freed.append((instance, opened[0]))
            self._retire(name, instance, opened)
        if freed:
            self._give_back(name, freed)

    def _give_back(self, name: str, freed: _Freed) -> None:
        """Return the words of retired ``(instance, extents)`` of *name*
        to the free list: one free when they tile one range (a chain),
        else one per instance.

        When the single free fails, the per-instance frees run instead,
        so the error names the instance at fault.
        """
        low = high = -1
        for _, extents in freed:
            if len(extents) != 1:
                break
            extent = extents[0]
            if low < 0:
                low, high = extent.start, extent.end
            elif extent.end == low:
                low = extent.start
            elif extent.start == high:
                high = extent.end
            else:
                break
        else:
            if len(freed) > 1:
                try:
                    self.free_list.free(low, high - low)
                except AllocationError:
                    pass
                else:
                    if self.debug_invariants:
                        self.free_list.check_invariants()
                    return
        for instance, extents in freed:
            self._return_words(name, instance, extents)

    def _return_words(self, name: str, instance: int,
                      extents: Tuple[Extent, ...]) -> None:
        """Give one instance's words back to the free list; a free-list
        error is re-raised naming the set and the instance."""
        try:
            if len(extents) == 1:
                extent = extents[0]
                self.free_list.free(extent.start, extent.size)
            else:
                self.free_list.free_extents(extents)
        except AllocationError as error:
            raise AllocationError(
                f"set{self.fb_set}: {name}#{instance}: {error}"
            ) from error
        if self.debug_invariants:
            self.free_list.check_invariants()

    def _retire(self, name: str, instance: int,
                opened: Tuple[Tuple[Extent, ...], str, int, int, bool]) -> None:
        """Close a released instance: its ``alloc.free`` event and its
        :class:`AllocationRecord`, freed at the current step."""
        extents, direction, cluster_index, alloc_step, regular = opened
        if self.decisions is not None:
            self._record_alloc("alloc.free", name, instance, extents=extents)
        self.map.records.append(AllocationRecord(
            name, instance, cluster_index, extents, direction, alloc_step,
            self.step, regular,
        ))

    def _snapshot(self, label: str) -> None:
        """Copy the live regions under *label* (callers check
        :attr:`snapshots`, so no label is formatted otherwise)."""
        regions = tuple(
            (name, instance, opened[0])
            for (name, instance), opened in self._open.items()
        )
        self.map.snapshots.append(
            Snapshot(label=label, step=self.step, regions=regions)
        )
