"""Peak frame-buffer occupancy ``DS(C_c)`` and related size metrics.

Section 3 of the paper defines the *maximum data size* of a cluster::

    DS(C_c) = MAX_{i=1..n} [ sum_{j=i..n} d_j  +  sum_{j=1..i} rout_j
                             + sum_{j<=i} sum_{t>=i} r_jt ]

i.e. the worst-case simultaneous occupancy over the execution of the
cluster's kernels, where

* ``d_j``   — input data whose **last** use inside the cluster is kernel
  ``k_j`` (each input is charged until its last local consumer, because
  the Data Scheduler *replaces* dead data with new results);
* ``rout_j`` — results of ``k_j`` that leave the cluster (final outputs
  and results consumed by later clusters), which accumulate until the
  cluster finishes;
* ``r_jt``  — intermediate results produced by ``k_j`` and last consumed
  by ``k_t`` within the cluster.

This module provides three related quantities:

* :func:`cluster_data_size` — the exact peak, for any reuse factor
  ``RF`` and any set of inter-cluster *keep* decisions (the quantity
  the Complete Data Scheduler checks against ``FBS``), evaluated from
  :func:`cluster_sweep_pieces`: ``DS(C_c)`` is the maximum of a few
  lines ``a * RF + b``, which is also what makes the highest common
  ``RF`` a closed form;
* :func:`cluster_data_size_formula` — the paper's closed form, for
  ``RF = 1`` without keeps (cross-checked against the sweep in tests);
* :func:`cluster_footprint` — the Basic Scheduler's occupancy, with no
  replacement at all (every input and every result of the cluster is
  simultaneously resident).
"""

from __future__ import annotations

from typing import (
    AbstractSet, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union,
)

from repro.core.dataflow import DataflowInfo, ObjectClass
from repro.core.reuse import SharedData, SharedResult

__all__ = [
    "KeepDecision",
    "SweepPiece",
    "cluster_data_size",
    "cluster_data_size_naive",
    "cluster_data_size_formula",
    "cluster_footprint",
    "cluster_sweep_peak",
    "cluster_sweep_pieces",
    "max_cluster_data_size",
    "resident_keep_line",
    "total_data_size",
]

KeepDecision = Union[SharedData, SharedResult]


def total_data_size(dataflow: DataflowInfo) -> int:
    """``TDS`` — total data and result size of the application, per
    iteration (the normaliser in the paper's TF formulas)."""
    return sum(info.size for info in dataflow)


def cluster_footprint(dataflow: DataflowInfo, cluster_index: int) -> int:
    """Occupancy of the Basic Scheduler [3] for one cluster iteration.

    The Basic Scheduler performs no replacement: all input data plus all
    results of the cluster are simultaneously resident in the FB set.
    """
    inputs = dataflow.inputs_of_cluster(cluster_index)
    produced = dataflow.produced_by_cluster(cluster_index)
    return sum(dataflow[name].size for name in inputs) + sum(
        dataflow[name].size for name in produced
    )


def resident_keep_line(
    dataflow: DataflowInfo,
    cluster_index: int,
    keeps: Sequence[KeepDecision],
) -> Tuple[int, int, Set[str]]:
    """Words of kept items resident during the cluster, as the line
    ``a * rf + b``, and the set of kept object names relevant to this
    cluster's FB set.

    A kept item contributes ``RF * size`` words (``a``) for every
    same-set cluster inside its residency span (it holds one instance
    per concurrent iteration), or just ``size`` (``b``) if it is
    invariant.  The item also stays resident through the cluster that
    loads/produces it and the cluster that last consumes it, so
    inputs/outputs of this cluster that are kept must not be
    double-counted by the sweep — they are returned in the third
    element so the sweep can skip them.
    """
    clustering = dataflow.clustering
    fb_set = clustering[cluster_index].fb_set
    slope = 0
    intercept = 0
    local_kept: Set[str] = set()
    for keep in keeps:
        if keep.fb_set == fb_set:
            if keep.resident_for(cluster_index):
                if getattr(keep, "invariant", False):
                    intercept += keep.size
                else:
                    slope += keep.size
                local_kept.add(keep.name)
            continue
        # A keep homed in the *other* set can still serve this cluster
        # (cross-set retention): the object then occupies no space here
        # but must not be double-counted as a local input/output.
        consumers = getattr(keep, "clusters", None)
        if consumers is None:
            consumers = keep.consumer_clusters
        if cluster_index in consumers:
            local_kept.add(keep.name)
    return slope, intercept, local_kept


class SweepPiece(NamedTuple):
    """One affine piece ``a * rf + b`` of a cluster's sweep peak.

    ``kernel`` names the kernel executing at that candidate peak; it is
    ``None`` for the piece "every input loaded, before the first
    kernel runs".
    """

    a: int
    b: int
    kernel: Optional[str]


def cluster_sweep_pieces(
    dataflow: DataflowInfo,
    cluster_index: int,
    local_kept: AbstractSet[str],
) -> Tuple[SweepPiece, ...]:
    """The load/execute/release sweep peak of one cluster, excluding
    kept-resident words, as lines in ``rf``: for every ``rf >= 1``,
    ``cluster_sweep_peak(..., rf, ...) == max(a * rf + b)`` over the
    returned pieces.

    Why it is exact.  Within one kernel's ``RF`` consecutive executions
    the occupancy trace is affine in the iteration index: every
    iteration allocates the kernel's (non-kept) outputs ``out`` and
    releases the same set of dead instances — non-invariant inputs
    whose last local use is this kernel, plus intermediates whose last
    consumer is this kernel — so it moves by ``d = out - released`` per
    iteration.  The per-kernel peak is therefore reached at the first
    or the last iteration: ``occ_k(rf) + out + max(0, (rf - 1) * d)``,
    where ``occ_k(rf)``, the occupancy before kernel ``k``, is itself
    affine in ``rf`` (the inputs load ``rf * size`` words each, or
    ``size`` if invariant; every earlier kernel adds ``rf * d`` and
    drops its invariant inputs once).  For ``rf >= 1`` that maximum is
    the larger of two lines, ``occ_k(rf) + out`` and ``occ_k(rf) + out
    + (rf - 1) * d``, so the sweep peak is the maximum of at most
    ``2 * kernels + 1`` lines ``a * rf + b`` (the second line of a
    kernel is left out when ``d == 0``: it equals the first).  Resident
    keeps add ``rf * size``, or ``size`` for an invariant keep, to every
    line (:func:`resident_keep_line`), which keeps ``DS(C_c)`` a
    maximum of lines.

    Suppose ``DS(1) <= FBS``.  Then every line with ``a <= 0`` holds
    for all ``rf >= 1``, so the feasible reuse factors form a prefix
    ``1..R`` with ``R = min(cap, min over lines with a > 0 of
    floor((FBS - b) / a))`` — the closed form behind
    :func:`repro.schedule.rf.common_rf_bound`.  If ``DS(1) > FBS`` no
    reuse factor fits.  As a maximum of lines, ``DS`` is also convex in
    ``rf``.  The naive ``O(kernels * rf)`` event sweep
    (:func:`cluster_data_size_naive`) stays the property-tested
    reference.
    """
    kernel_names = dataflow.clustering[cluster_index].kernel_names
    position = {name: idx for idx, name in enumerate(kernel_names)}
    # Per-kernel totals, each charged once per iteration:
    #   out_at — non-kept output words allocated;
    #   released_at — words released after the peak check (dead
    #       non-invariant inputs with last local use here, plus
    #       intermediates whose last in-cluster consumer is here);
    #   invariant_at — invariant inputs released only on the final
    #       iteration.
    out_at = [0] * len(kernel_names)
    released_at = [0] * len(kernel_names)
    invariant_at = [0] * len(kernel_names)

    # Occupancy before the current kernel is slope * rf + intercept;
    # before the first one it is every non-kept input.
    slope = 0
    intercept = 0
    for obj_name in dataflow.inputs_of_cluster(cluster_index):
        if obj_name in local_kept:
            continue
        last = dataflow.last_use_in_cluster(obj_name, cluster_index)
        assert last is not None, (obj_name, cluster_index)
        info = dataflow[obj_name]
        if info.invariant:
            intercept += info.size
            invariant_at[position[last]] += info.size
        else:
            slope += info.size
            released_at[position[last]] += info.size
    for k_idx, kernel_name in enumerate(kernel_names):
        for out_name in dataflow.application.kernel(kernel_name).outputs:
            if out_name in local_kept:
                continue
            info = dataflow[out_name]
            out_at[k_idx] += info.size
            if info.object_class is ObjectClass.INTERMEDIATE_RESULT:
                consumer_pos = max(
                    position[c] for c in info.consumers if c in position
                )
                released_at[consumer_pos] += info.size

    pieces = [SweepPiece(slope, intercept, None)]
    for k_idx, kernel_name in enumerate(kernel_names):
        out_words = out_at[k_idx]
        delta = out_words - released_at[k_idx]
        # First iteration: occ_k + out; last: occ_k + out + (rf-1)*d.
        pieces.append(SweepPiece(slope, intercept + out_words, kernel_name))
        if delta:
            pieces.append(SweepPiece(
                slope + delta, intercept + out_words - delta, kernel_name,
            ))
        slope += delta
        intercept -= invariant_at[k_idx]
    return tuple(pieces)


def cluster_sweep_peak(
    dataflow: DataflowInfo,
    cluster_index: int,
    rf: int,
    local_kept: AbstractSet[str],
) -> int:
    """Peak of the load/execute/release sweep, excluding kept-resident
    words, in ``O(kernels)`` regardless of ``rf``: the largest of the
    :func:`cluster_sweep_pieces` lines at ``rf``.  Equal to the naive
    sweep (:func:`cluster_data_size_naive`) — property-tested."""
    return max(
        a * rf + b
        for a, b, _ in cluster_sweep_pieces(dataflow, cluster_index, local_kept)
    )


def cluster_data_size(
    dataflow: DataflowInfo,
    cluster_index: int,
    rf: int = 1,
    keeps: Sequence[KeepDecision] = (),
) -> int:
    """Exact peak FB-set occupancy of one cluster round (``RF`` fissioned
    iterations), in words.

    Model (paper sections 3-5):

    * all input instances for the ``RF`` iterations are loaded before the
      cluster starts (Figure 4 allocates kernel data ``RF`` times up
      front); a non-kept input instance is released after the last local
      kernel consuming it executes that iteration;
    * results bound for outside the cluster (final outputs, shared
      results) accumulate until the cluster finishes (their stores are
      overlapped with the next cluster's computation);
    * an intermediate result instance lives from its producing kernel's
      execution of that iteration to its last consuming kernel's
      execution of the same iteration;
    * kept items (``keeps``) resident during this cluster contribute a
      constant ``RF * size`` each for the whole round, and are excluded
      from the load/release sweep.

    Computed via the ``O(kernels)`` closed form
    (:func:`cluster_sweep_peak`); :func:`cluster_data_size_naive` keeps
    the original event sweep as the property-tested reference.

    Args:
        dataflow: output of :func:`repro.core.dataflow.analyze_dataflow`.
        cluster_index: which cluster.
        rf: reuse (loop fission) factor, >= 1.
        keeps: inter-cluster retention decisions in effect.

    Returns:
        Peak occupancy in words.
    """
    if rf < 1:
        raise ValueError(f"rf must be >= 1, got {rf}")
    slope, intercept, local_kept = resident_keep_line(
        dataflow, cluster_index, keeps
    )
    return slope * rf + intercept + cluster_sweep_peak(
        dataflow, cluster_index, rf, local_kept
    )


def cluster_data_size_naive(
    dataflow: DataflowInfo,
    cluster_index: int,
    rf: int = 1,
    keeps: Sequence[KeepDecision] = (),
) -> int:
    """Reference implementation of :func:`cluster_data_size`.

    The original ``O(kernels * rf)`` event sweep, retained verbatim so
    property tests can assert the closed form and the incremental
    occupancy engine reproduce it exactly.
    """
    if rf < 1:
        raise ValueError(f"rf must be >= 1, got {rf}")
    cluster = dataflow.clustering[cluster_index]
    slope, intercept, local_kept = resident_keep_line(
        dataflow, cluster_index, keeps
    )
    kept_resident = slope * rf + intercept

    inputs = [
        name for name in dataflow.inputs_of_cluster(cluster_index)
        if name not in local_kept
    ]
    kernel_names = list(cluster.kernel_names)
    position = {name: idx for idx, name in enumerate(kernel_names)}

    last_local_use: Dict[str, int] = {}
    for obj_name in inputs:
        last = dataflow.last_use_in_cluster(obj_name, cluster_index)
        assert last is not None, (obj_name, cluster_index)
        last_local_use[obj_name] = position[last]

    occupancy = kept_resident + sum(
        dataflow[name].words_for(rf) for name in inputs
    )
    peak = occupancy

    # Sweep: iterations outer-to-inner per kernel?  Loop fission executes
    # kernel k RF times, then kernel k+1 RF times (Figure 3b).  The sweep
    # follows that order.
    outbound_accumulated = 0  # final + shared results, never released here
    live_intermediate: Dict[Tuple[str, int], int] = {}

    for k_idx, kernel_name in enumerate(kernel_names):
        kernel = dataflow.application.kernel(kernel_name)
        for iteration in range(rf):
            # Allocate this kernel's outputs for this iteration.
            for out_name in kernel.outputs:
                info = dataflow[out_name]
                if out_name in local_kept:
                    # Already charged as a kept-resident instance.
                    continue
                occupancy += info.size
                if info.object_class is ObjectClass.INTERMEDIATE_RESULT:
                    consumer_pos = max(
                        position[c] for c in info.consumers
                        if c in position
                    )
                    live_intermediate[(out_name, iteration)] = consumer_pos
                else:
                    outbound_accumulated += info.size
            peak = max(peak, occupancy)
            # Release dead inputs (this iteration's instances).
            for in_name in kernel.inputs:
                if in_name in local_kept:
                    continue
                if in_name in last_local_use and last_local_use[in_name] == k_idx:
                    info = dataflow[in_name]
                    if info.invariant:
                        # One shared copy: released only after the last
                        # concurrent iteration's use.
                        if iteration == rf - 1:
                            occupancy -= info.size
                    elif _releasable_input(dataflow, info, cluster_index):
                        occupancy -= info.size
                key = (in_name, iteration)
                if key in live_intermediate and live_intermediate[key] == k_idx:
                    occupancy -= dataflow[in_name].size
                    del live_intermediate[key]
    return peak


def _releasable_input(dataflow: DataflowInfo, info, cluster_index: int) -> bool:
    """A non-kept input instance can be released after its last local
    use.  This holds for external data (later clusters reload their own
    copy) and for imported results (they were loaded from external
    memory, the external copy persists)."""
    del dataflow, cluster_index  # uniform signature; decision is local
    return True


def cluster_data_size_formula(dataflow: DataflowInfo, cluster_index: int) -> int:
    """The paper's closed-form ``DS(C_c)`` for ``RF = 1`` and no keeps.

    ``MAX_i [ sum_{j>=i} d_j + sum_{j<=i} rout_j + live intermediates at i ]``
    evaluated at the moment kernel ``k_i`` executes (its outputs already
    allocated, its dead inputs not yet released).
    """
    cluster = dataflow.clustering[cluster_index]
    kernel_names = list(cluster.kernel_names)
    position = {name: idx for idx, name in enumerate(kernel_names)}
    inputs = dataflow.inputs_of_cluster(cluster_index)

    # d_j: input charged at its last local consumer.
    d_at: List[int] = [0] * len(kernel_names)
    for obj_name in inputs:
        last = dataflow.last_use_in_cluster(obj_name, cluster_index)
        d_at[position[last]] += dataflow[obj_name].size

    # rout_j: outbound results (final or consumed by later clusters).
    rout_at: List[int] = [0] * len(kernel_names)
    # r_jt: intermediates, keyed by (producer pos, last consumer pos).
    intermediates: List[Tuple[int, int, int]] = []  # (j, t, size)
    for k_idx, kernel_name in enumerate(kernel_names):
        kernel = dataflow.application.kernel(kernel_name)
        for out_name in kernel.outputs:
            info = dataflow[out_name]
            if info.object_class is ObjectClass.INTERMEDIATE_RESULT:
                consumer_pos = max(position[c] for c in info.consumers)
                intermediates.append((k_idx, consumer_pos, info.size))
            else:
                rout_at[k_idx] += info.size

    best = 0
    for i in range(len(kernel_names)):
        live_inputs = sum(d_at[j] for j in range(i, len(kernel_names)))
        outbound = sum(rout_at[j] for j in range(0, i + 1))
        live_inter = sum(
            size for (j, t, size) in intermediates if j <= i <= t
        )
        best = max(best, live_inputs + outbound + live_inter)
    return best


def max_cluster_data_size(
    dataflow: DataflowInfo,
    rf: int = 1,
    keeps: Sequence[KeepDecision] = (),
    fb_set: Optional[int] = None,
) -> int:
    """Maximum ``DS(C_c)`` over all clusters (optionally of one set)."""
    clusters = (
        dataflow.clustering.clusters if fb_set is None
        else dataflow.clustering.on_set(fb_set)
    )
    return max(
        cluster_data_size(dataflow, cluster.index, rf, keeps)
        for cluster in clusters
    )
