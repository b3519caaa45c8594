"""Incremental ``DS(C_c)`` occupancy engine.

The Complete Data Scheduler's two questions both reduce to "does every
cluster of a frame-buffer set still fit?":

* the highest common RF is the largest ``rf`` at which every cluster
  fits with no keeps;
* greedy TF-ordered keep acceptance re-checks the candidate's set after
  every trial.

Recomputed from scratch (``cluster_data_size`` per cluster per check)
that is ``O(candidates * clusters * kernels)``.  The engine exploits
three structural facts instead:

1. ``DS(C_c, rf, keeps)`` splits into a *resident* term (kept items
   whose span covers the cluster) plus a *sweep peak* that depends on
   the keeps only through the set of kept names local to the cluster.
2. Both are affine pieces in ``rf``: the sweep peak is the maximum of
   a few lines ``a * rf + b``
   (:func:`repro.core.metrics.cluster_sweep_pieces`) and the resident
   term adds ``rf * size`` (or ``size``, invariant) per keep.  The
   pieces are memoised per ``(cluster, local-kept-names)``, not per
   ``rf``, so one memo entry answers every reuse factor, and the
   highest common RF is arithmetic on them
   (:func:`repro.schedule.rf.common_rf_bound`), with no search.
3. Accepting a keep only changes the occupancy of clusters inside its
   residency span (same set) or among its cross-set consumers — so a
   trial re-evaluates **O(affected clusters)**, while per-set "unfit"
   bookkeeping answers for all untouched clusters in O(1).

The engine is exact, not approximate: every accept/reject decision,
every reported occupancy and the common RF equal the naive
recomputation bit for bit.  :class:`ReferenceOccupancy` is that
recomputation behind the same interface; the equivalence tests
(``tests/schedule/test_occupancy_equivalence.py``,
``tests/schedule/test_sweep_pieces.py``) and the ``engine`` fuzz oracle
swap it in by subclassing a scheduler with
``occupancy_cls = ReferenceOccupancy``.

One engine instance serves one ``DataflowInfo``; ``rf_policy="joint"``
re-enters keep selection once per candidate RF and evaluates the same
pieces at each.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.core.dataflow import DataflowInfo
from repro.core.metrics import (
    KeepDecision,
    SweepPiece,
    cluster_data_size_naive,
    cluster_sweep_pieces,
    resident_keep_line,
)
from repro.schedule.rf import common_rf_bound, max_common_rf

__all__ = ["OccupancyEngine", "ReferenceOccupancy"]

_NO_KEEPS: FrozenSet[str] = frozenset()


class OccupancyEngine:
    """Shared occupancy state for one dataflow at one FB-set capacity."""

    def __init__(self, dataflow: DataflowInfo, fb_set_words: int):
        self.dataflow = dataflow
        self.fb_set_words = fb_set_words
        #: Optional :class:`~repro.obs.events.DecisionTrace`; when set,
        #: the ``rf.bound`` behind each common RF and keep
        #: accept/reject verdicts (with the occupancy numbers behind
        #: them) are recorded.  Never changes a decision.
        self.recorder = None
        self._clusters = list(dataflow.clustering)
        self._pieces: Dict[Tuple[int, FrozenSet[str]],
                           Tuple[SweepPiece, ...]] = {}
        # Keep-selection session state (begin_keep_selection resets it).
        self._rf = 0
        self._accepted: List[KeepDecision] = []
        self._resident: Dict[int, int] = {}
        self._local: Dict[int, Set[str]] = {}
        self._occupancy: Dict[int, int] = {}
        self._unfit: Dict[int, Set[int]] = {}

    # -- stateless queries (memoised pieces) ----------------------------

    def pieces(self, cluster_index: int,
               local_kept: FrozenSet[str]) -> Tuple[SweepPiece, ...]:
        """The cluster's sweep-peak lines with *local_kept* excluded."""
        key = (cluster_index, local_kept)
        found = self._pieces.get(key)
        if found is None:
            found = cluster_sweep_pieces(
                self.dataflow, cluster_index, local_kept
            )
            self._pieces[key] = found
        return found

    def sweep_peak(self, cluster_index: int, rf: int,
                   local_kept: FrozenSet[str]) -> int:
        return max(
            a * rf + b for a, b, _ in self.pieces(cluster_index, local_kept)
        )

    def occupancy(self, cluster_index: int, rf: int,
                  keeps: Sequence[KeepDecision] = ()) -> int:
        """``DS(C_c, rf, keeps)`` — same contract as
        :func:`repro.core.metrics.cluster_data_size`."""
        if rf < 1:
            raise ValueError(f"rf must be >= 1, got {rf}")
        slope, intercept, local = resident_keep_line(
            self.dataflow, cluster_index, keeps
        )
        return slope * rf + intercept + self.sweep_peak(
            cluster_index, rf, frozenset(local)
        )

    def max_common_rf(self, keeps: Sequence[KeepDecision] = (),
                      max_rf: int = 0) -> int:
        """Highest common reuse factor (0 if ``RF = 1`` does not fit),
        in closed form over the memoised pieces
        (:func:`repro.schedule.rf.common_rf_bound`).  With a recorder
        attached, one ``rf.bound`` event names the cluster line (or the
        cap) that bounds it."""
        dataflow = self.dataflow
        cap = max_rf if max_rf > 0 else dataflow.application.total_iterations
        if keeps:
            clusters = []
            for cluster in self._clusters:
                slope, intercept, local = resident_keep_line(
                    dataflow, cluster.index, keeps
                )
                clusters.append((
                    cluster.index, slope, intercept,
                    self.pieces(cluster.index, frozenset(local)),
                ))
        else:
            clusters = [
                (cluster.index, 0, 0, self.pieces(cluster.index, _NO_KEEPS))
                for cluster in self._clusters
            ]
        bound = common_rf_bound(clusters, self.fb_set_words, cap)
        if self.recorder is not None:
            self.recorder.record(
                "rf.bound", **bound.detail(dataflow, self.fb_set_words)
            )
        return bound.rf

    # -- incremental keep selection -------------------------------------

    def begin_keep_selection(self, rf: int) -> None:
        """Start a greedy acceptance session at a fixed ``rf``.

        Initialises per-cluster running totals (``DS(C_c)`` with no
        keeps) and the per-set unfit bookkeeping.
        """
        if rf < 1:
            raise ValueError(f"rf must be >= 1, got {rf}")
        self._rf = rf
        self._accepted = []
        self._resident = {}
        self._local = {}
        self._occupancy = {}
        self._unfit = {}
        for cluster in self._clusters:
            index = cluster.index
            self._resident[index] = 0
            self._local[index] = set()
            occ = self.sweep_peak(index, rf, _NO_KEEPS)
            self._occupancy[index] = occ
            self._unfit.setdefault(cluster.fb_set, set())
            if occ > self.fb_set_words:
                self._unfit[cluster.fb_set].add(index)

    @property
    def accepted(self) -> Tuple[KeepDecision, ...]:
        return tuple(self._accepted)

    def try_keep(self, candidate: KeepDecision) -> bool:
        """Trial-accept one candidate; commit and return True iff every
        cluster of its FB set still fits (paper section 4's greedy
        acceptance), touching only the affected clusters."""
        if self._rf < 1:
            raise RuntimeError("begin_keep_selection() must run first")
        rf = self._rf
        fb_set = candidate.fb_set
        invariant = getattr(candidate, "invariant", False)
        added_words = candidate.size if invariant else rf * candidate.size

        trial: List[Tuple[int, int, Set[str], int]] = []
        for cluster in self.dataflow.clustering.on_set(fb_set):
            index = cluster.index
            if not candidate.resident_for(index):
                continue
            resident = self._resident[index] + added_words
            local = self._local[index] | {candidate.name}
            occ = resident + self.sweep_peak(index, rf, frozenset(local))
            trial.append((index, resident, local, occ))

        affected = {index for index, _, _, _ in trial}
        # Untouched clusters keep their occupancy: the set fits iff none
        # of them is currently unfit and every affected cluster fits.
        blocking = sorted(self._unfit.get(fb_set, set()) - affected)
        if blocking:
            self._record_keep(
                "keep.reject", candidate, rf,
                {index: self._occupancy[index] for index in blocking},
                reason="set already unfit without this keep",
            )
            return False
        overflow = {
            index: occ for index, _, _, occ in trial
            if occ > self.fb_set_words
        }
        if overflow:
            self._record_keep(
                "keep.reject", candidate, rf, overflow,
                reason="DS(C_c) > FBS with this keep",
            )
            return False

        for index, resident, local, occ in trial:
            self._resident[index] = resident
            self._local[index] = local
            self._occupancy[index] = occ
            self._unfit[fb_set].discard(index)
        # Cross-set consumers are served without occupying words here,
        # but the kept name leaves their local sweeps.
        consumers = getattr(candidate, "clusters", None)
        if consumers is None:
            consumers = candidate.consumer_clusters
        for index in consumers:
            cluster = self.dataflow.clustering[index]
            if cluster.fb_set == fb_set:
                continue
            self._local[index].add(candidate.name)
            occ = self._resident[index] + self.sweep_peak(
                index, rf, frozenset(self._local[index])
            )
            self._occupancy[index] = occ
            unfit = self._unfit.setdefault(cluster.fb_set, set())
            if occ > self.fb_set_words:
                unfit.add(index)
            else:
                unfit.discard(index)
        self._accepted.append(candidate)
        self._record_keep(
            "keep.accept", candidate, rf,
            {index: occ for index, _, _, occ in trial},
            reason="fits every cluster of the set",
        )
        return True

    def _record_keep(self, kind: str, candidate: KeepDecision, rf: int,
                     occupancies: Dict[int, int], *, reason: str) -> None:
        if self.recorder is None:
            return
        self.recorder.record(
            kind,
            candidate.name,
            keep=candidate.label,
            fb_set=candidate.fb_set,
            rf=rf,
            size=candidate.size,
            words_avoided=candidate.words_avoided,
            occupancies=occupancies,
            fb_set_words=self.fb_set_words,
            reason=reason,
        )


class ReferenceOccupancy:
    """Naive drop-in for :class:`OccupancyEngine`: every ``DS(C_c)``
    recomputed from scratch with the reference event sweep
    (:func:`~repro.core.metrics.cluster_data_size_naive`).

    No product path uses it.  It offers the members the greedy
    schedulers call (``occupancy``, ``max_common_rf``,
    ``begin_keep_selection``, ``try_keep``, ``accepted``) plus the
    ``recorder`` slot, so a scheduler subclass with
    ``occupancy_cls = ReferenceOccupancy`` must reproduce the product
    schedule exactly.  It finds the common RF by the plain search of
    :func:`repro.schedule.rf.max_common_rf` and records the same
    ``keep.accept``/``keep.reject`` events, but no ``rf.bound``: it has
    no lines to name.
    """

    def __init__(self, dataflow: DataflowInfo, fb_set_words: int):
        self.dataflow = dataflow
        self.fb_set_words = fb_set_words
        self.recorder = None
        self._rf = 0
        self._accepted: List[KeepDecision] = []

    def occupancy(self, cluster_index: int, rf: int,
                  keeps: Sequence[KeepDecision] = ()) -> int:
        return cluster_data_size_naive(self.dataflow, cluster_index, rf, keeps)

    def max_common_rf(self, keeps: Sequence[KeepDecision] = (),
                      max_rf: int = 0) -> int:
        return max_common_rf(
            self.dataflow, self.fb_set_words, keeps=keeps, max_rf=max_rf,
            occupancy_fn=cluster_data_size_naive,
        )

    def begin_keep_selection(self, rf: int) -> None:
        if rf < 1:
            raise ValueError(f"rf must be >= 1, got {rf}")
        self._rf = rf
        self._accepted = []

    @property
    def accepted(self) -> Tuple[KeepDecision, ...]:
        return tuple(self._accepted)

    def try_keep(self, candidate: KeepDecision) -> bool:
        """Accept *candidate* iff ``DS(C_c) <= FBS`` for every cluster
        of its FB set with the accepted keeps plus this one.  Clusters
        of the other set are unaffected by a keep on this set, so only
        this set is re-checked."""
        if self._rf < 1:
            raise RuntimeError("begin_keep_selection() must run first")
        rf = self._rf
        trial = self._accepted + [candidate]
        occupancies = {
            cluster.index: self.occupancy(cluster.index, rf, trial)
            for cluster in self.dataflow.clustering.on_set(candidate.fb_set)
        }
        fits = all(occ <= self.fb_set_words for occ in occupancies.values())
        if self.recorder is not None:
            self.recorder.record(
                "keep.accept" if fits else "keep.reject",
                candidate.name,
                keep=candidate.label,
                fb_set=candidate.fb_set,
                rf=rf,
                size=candidate.size,
                words_avoided=candidate.words_avoided,
                occupancies=occupancies,
                fb_set_words=self.fb_set_words,
                reason=(
                    "fits every cluster of the set" if fits
                    else "DS(C_c) > FBS with this keep"
                ),
            )
        if fits:
            self._accepted.append(candidate)
        return fits
