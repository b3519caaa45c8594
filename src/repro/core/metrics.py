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

* :func:`cluster_data_size` — the exact peak via an event sweep, for any
  reuse factor ``RF`` and any set of inter-cluster *keep* decisions
  (the quantity the Complete Data Scheduler checks against ``FBS``);
* :func:`cluster_data_size_formula` — the paper's closed form, for
  ``RF = 1`` without keeps (cross-checked against the sweep in tests);
* :func:`cluster_footprint` — the Basic Scheduler's occupancy, with no
  replacement at all (every input and every result of the cluster is
  simultaneously resident).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.dataflow import DataflowInfo, ObjectClass
from repro.core.reuse import SharedData, SharedResult

__all__ = [
    "KeepDecision",
    "cluster_data_size",
    "cluster_data_size_naive",
    "cluster_data_size_formula",
    "cluster_footprint",
    "cluster_sweep_peak",
    "max_cluster_data_size",
    "resident_keep_words",
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


def _resident_keep_words(
    dataflow: DataflowInfo,
    cluster_index: int,
    rf: int,
    keeps: Sequence[KeepDecision],
) -> Tuple[int, Set[str]]:
    """Constant occupancy contributed by kept items resident during the
    cluster, and the set of kept object names relevant to this cluster's
    FB set.

    A kept item contributes ``RF * size`` words for every same-set
    cluster inside its residency span (it holds one instance per
    concurrent iteration).  The item also stays resident through the
    cluster that loads/produces it and the cluster that last consumes
    it, so inputs/outputs of this cluster that are kept must not be
    double-counted by the sweep — they are returned in the second
    element so the sweep can skip them.
    """
    clustering = dataflow.clustering
    fb_set = clustering[cluster_index].fb_set
    resident_words = 0
    local_kept: Set[str] = set()
    for keep in keeps:
        if keep.fb_set == fb_set:
            if keep.resident_for(cluster_index):
                if getattr(keep, "invariant", False):
                    resident_words += keep.size
                else:
                    resident_words += rf * keep.size
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
    return resident_words, local_kept


#: Public alias used by the incremental occupancy engine.
resident_keep_words = _resident_keep_words


def cluster_sweep_peak(
    dataflow: DataflowInfo,
    cluster_index: int,
    rf: int,
    local_kept: Set[str],
) -> int:
    """Peak of the load/execute/release sweep, excluding kept-resident
    words, in ``O(kernels)`` regardless of ``rf``.

    Within one kernel's ``RF`` consecutive executions the occupancy
    trace is affine in the iteration index: every iteration allocates
    the kernel's (non-kept) outputs and releases the same set of dead
    instances — non-invariant inputs whose last local use is this
    kernel, plus intermediates whose last consumer is this kernel.  The
    per-kernel peak is therefore reached at either the first or the
    last iteration, which collapses the naive ``O(kernels * rf)`` sweep
    (:func:`cluster_data_size_naive`) to a closed form evaluated once
    per kernel.  Both paths produce identical integers — the
    equivalence is property-tested.
    """
    cluster = dataflow.clustering[cluster_index]
    kernel_names = list(cluster.kernel_names)
    position = {name: idx for idx, name in enumerate(kernel_names)}

    inputs = [
        name for name in dataflow.inputs_of_cluster(cluster_index)
        if name not in local_kept
    ]
    last_local_use: Dict[str, int] = {}
    for obj_name in inputs:
        last = dataflow.last_use_in_cluster(obj_name, cluster_index)
        assert last is not None, (obj_name, cluster_index)
        last_local_use[obj_name] = position[last]

    occupancy = sum(dataflow[name].words_for(rf) for name in inputs)
    peak = occupancy

    # Per-kernel totals, each charged once per iteration:
    #   out_k — non-kept output words allocated;
    #   rel_k — words released after the peak check (dead non-invariant
    #           inputs with last local use here, plus intermediates
    #           whose last in-cluster consumer is here);
    #   inv_k — invariant inputs released only on the final iteration.
    intermediate_release_at: Dict[int, int] = {}
    for k_idx, kernel_name in enumerate(kernel_names):
        kernel = dataflow.application.kernel(kernel_name)
        for out_name in kernel.outputs:
            info = dataflow[out_name]
            if out_name in local_kept:
                continue
            if info.object_class is ObjectClass.INTERMEDIATE_RESULT:
                consumer_pos = max(
                    position[c] for c in info.consumers if c in position
                )
                intermediate_release_at[consumer_pos] = (
                    intermediate_release_at.get(consumer_pos, 0) + info.size
                )

    for k_idx, kernel_name in enumerate(kernel_names):
        kernel = dataflow.application.kernel(kernel_name)
        out_words = sum(
            dataflow[name].size for name in kernel.outputs
            if name not in local_kept
        )
        released = intermediate_release_at.get(k_idx, 0)
        invariant_words = 0
        for in_name in kernel.inputs:
            if in_name in local_kept:
                continue
            if last_local_use.get(in_name) == k_idx:
                info = dataflow[in_name]
                if info.invariant:
                    invariant_words += info.size
                else:
                    released += info.size
        # Affine trace: occupancy after allocating iteration i's outputs
        # is start + (i+1)*out - i*released, maximal at i=0 or i=rf-1.
        peak = max(
            peak,
            occupancy + out_words + max(0, (rf - 1) * (out_words - released)),
        )
        occupancy += rf * (out_words - released) - invariant_words
    return peak


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
    kept_resident, local_kept = _resident_keep_words(
        dataflow, cluster_index, rf, keeps
    )
    return kept_resident + cluster_sweep_peak(
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
    kept_resident, local_kept = _resident_keep_words(
        dataflow, cluster_index, rf, keeps
    )

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
