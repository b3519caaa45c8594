"""Incremental ``DS(C_c)`` occupancy engine.

The Complete Data Scheduler's two hot loops both reduce to the same
question — "does every cluster of a frame-buffer set still fit after
this decision?":

* the common-RF search probes ``fits(rf)`` along a gallop + bisection;
* greedy TF-ordered keep acceptance re-checks the candidate's set after
  every trial.

Recomputed from scratch (``cluster_data_size`` per cluster per probe)
that is ``O(candidates * clusters * kernels)``.  The engine exploits
two structural facts instead:

1. ``DS(C_c, rf, keeps)`` splits into a *resident* constant (kept items
   whose span covers the cluster) plus a *sweep peak* that depends on
   the keeps only through the set of kept names local to the cluster
   (:func:`repro.core.metrics.cluster_sweep_peak`).  Sweep peaks are
   memoised on ``(cluster, rf, local-kept-names)``.
2. Accepting a keep only changes the occupancy of clusters inside its
   residency span (same set) or among its cross-set consumers — so a
   trial re-evaluates **O(affected clusters)**, while per-set "unfit"
   bookkeeping answers for all untouched clusters in O(1).

The engine is exact, not approximate: every accept/reject decision and
every reported occupancy equals the naive recomputation bit for bit.
:class:`ReferenceOccupancy` is that recomputation behind the same
interface; the equivalence tests
(``tests/schedule/test_occupancy_equivalence.py``) and the ``engine``
fuzz oracle swap it in by subclassing a scheduler with
``occupancy_cls = ReferenceOccupancy``.

One engine instance serves one ``DataflowInfo``; ``rf_policy="joint"``
re-enters keep selection once per candidate RF and shares the same
sweep memo across all of them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.core.dataflow import DataflowInfo
from repro.core.metrics import (
    KeepDecision,
    cluster_data_size_naive,
    cluster_sweep_peak,
    resident_keep_words,
)
from repro.schedule.rf import largest_feasible_rf, max_common_rf

__all__ = ["OccupancyEngine", "ReferenceOccupancy"]


class OccupancyEngine:
    """Shared occupancy state for one dataflow at one FB-set capacity."""

    def __init__(self, dataflow: DataflowInfo, fb_set_words: int):
        self.dataflow = dataflow
        self.fb_set_words = fb_set_words
        #: Optional :class:`~repro.obs.events.DecisionTrace`; when set,
        #: RF probes and keep accept/reject verdicts (with the
        #: occupancy numbers behind them) are recorded.  Never changes
        #: a decision.
        self.recorder = None
        self._clusters = list(dataflow.clustering)
        self._sweep_memo: Dict[Tuple[int, int, FrozenSet[str]], int] = {}
        # RF feasibility verdicts per (keep-set fingerprint, rf): the
        # gallop/bisection hand-offs and repeated searches over the same
        # keep set never re-run a full fits() sweep.  One keep per
        # object name, so the name set identifies the keep set.
        self._probe_memo: Dict[Tuple[FrozenSet[str], int], bool] = {}
        #: Full fits() sweeps actually evaluated by :meth:`max_common_rf`
        #: (memo misses).  Tests assert this never exceeds the number of
        #: distinct ``(keep set, rf)`` probes.
        self.probe_evaluations = 0
        # Keep-selection session state (begin_keep_selection resets it).
        self._rf = 0
        self._accepted: List[KeepDecision] = []
        self._resident: Dict[int, int] = {}
        self._local: Dict[int, Set[str]] = {}
        self._occupancy: Dict[int, int] = {}
        self._unfit: Dict[int, Set[int]] = {}

    # -- stateless queries (memoised sweeps) ----------------------------

    def sweep_peak(self, cluster_index: int, rf: int,
                   local_kept: FrozenSet[str]) -> int:
        key = (cluster_index, rf, local_kept)
        found = self._sweep_memo.get(key)
        if found is None:
            found = cluster_sweep_peak(
                self.dataflow, cluster_index, rf, local_kept
            )
            self._sweep_memo[key] = found
        return found

    def occupancy(self, cluster_index: int, rf: int,
                  keeps: Sequence[KeepDecision] = ()) -> int:
        """``DS(C_c, rf, keeps)`` — same contract as
        :func:`repro.core.metrics.cluster_data_size`."""
        if rf < 1:
            raise ValueError(f"rf must be >= 1, got {rf}")
        resident, local = resident_keep_words(
            self.dataflow, cluster_index, rf, keeps
        )
        return resident + self.sweep_peak(cluster_index, rf, frozenset(local))

    def fits(self, rf: int, keeps: Sequence[KeepDecision] = ()) -> bool:
        """True if every cluster's occupancy fits one FB set."""
        return all(
            self.occupancy(cluster.index, rf, keeps) <= self.fb_set_words
            for cluster in self._clusters
        )

    def max_common_rf(self, keeps: Sequence[KeepDecision] = (),
                      max_rf: int = 0) -> int:
        """Highest common reuse factor — the gallop + bisection of
        :func:`repro.schedule.rf.largest_feasible_rf`, with every
        cluster sweep served from the memo.

        Probe verdicts are memoised per ``(keep set, rf)``: a repeated
        search over the same keep set (the joint-RF sweep re-enters
        here per candidate level) never re-evaluates a bound the gallop
        or an earlier search already proved.  Memo hits record no
        ``rf.probe`` event — the trace lists each actual evaluation
        once, which is what the ``probes`` fuzz oracle asserts.
        """
        fingerprint = frozenset(keep.name for keep in keeps)

        def check(rf: int) -> bool:
            key = (fingerprint, rf)
            ok = self._probe_memo.get(key)
            if ok is None:
                ok = self.fits(rf, keeps)
                self._probe_memo[key] = ok
                self.probe_evaluations += 1
                if self.recorder is not None:
                    self.recorder.record("rf.probe", rf=rf, fits=ok)
            return ok

        cap = (
            max_rf if max_rf > 0
            else self.dataflow.application.total_iterations
        )
        return largest_feasible_rf(check, cap)

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
            occ = self.sweep_peak(index, rf, frozenset())
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
    ``recorder`` slot, and records the same ``rf.probe`` and
    ``keep.accept``/``keep.reject`` events, so a scheduler subclass
    with ``occupancy_cls = ReferenceOccupancy`` must reproduce the
    product schedule exactly.
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
        recorder = self.recorder

        def probe(rf: int, ok: bool) -> None:
            if recorder is not None:
                recorder.record("rf.probe", rf=rf, fits=ok)

        return max_common_rf(
            self.dataflow, self.fb_set_words, keeps=keeps, max_rf=max_rf,
            occupancy_fn=cluster_data_size_naive, probe=probe,
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
