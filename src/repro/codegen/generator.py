"""Lowering a :class:`Schedule` to a :class:`Program`.

For every round and cluster the generator emits one :class:`VisitOps`:

* context loads for all of the cluster's kernels (one CM block per
  visit, alternating);
* data loads for each object in the cluster plan's ``loads``, one per
  iteration of the round.  Kept inputs produce **no** load — that is
  the Complete Data Scheduler's saving made concrete;
* kernel launches in loop-fission order (kernel-outer,
  iteration-inner);
* stores for each object in the plan's ``stores``, one per iteration.

Loads are emitted in first-use order (shared data with the most
distant consumer first, then inputs by their last consuming kernel,
mirroring the allocator's placement order) so the DMA delivers data in
the order the cluster needs it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.codegen.ops import LoadContext, LoadData, RunKernel, StoreData, Visit, VisitOps
from repro.codegen.program import Program
from repro.errors import CodegenError
from repro.schedule.plan import Schedule

__all__ = ["generate_program", "cluster_codegen_facts"]

ENGINES = ("auto", "templated", "reference")


def generate_program(
    schedule: Schedule,
    *,
    reuse_resident_contexts: bool = False,
    engine: str = "auto",
) -> Program:
    """Lower *schedule* into an executable :class:`Program`.

    Args:
        schedule: the schedule to lower.
        reuse_resident_contexts: skip a visit's context loads when its
            CM block still holds exactly that cluster's contexts from
            two visits ago (possible for applications with one or two
            clusters, where the blocks never get displaced).  Off by
            default — the paper's accounting assumes contexts are
            loaded once per visit (``n/RF`` times per kernel).
        engine: ``"templated"`` compiles each cluster once and stamps
            visits lazily (:mod:`repro.codegen.templated`);
            ``"reference"`` emits every op eagerly.  ``"auto"`` (the
            default) selects the templated backend — the two are
            byte-identical (enforced by the equivalence suite and the
            ``progequiv`` fuzz oracle).
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown codegen engine {engine!r}; expected one of {ENGINES}"
        )
    if engine != "reference":
        from repro.codegen.templated import generate_templated_program

        return generate_templated_program(
            schedule, reuse_resident_contexts=reuse_resident_contexts
        )

    visits: List[VisitOps] = []
    clustering = schedule.clustering
    application = schedule.application
    dataflow = schedule.dataflow

    # Round-invariant per-cluster facts, computed once.  Only the visit
    # index, the iteration window and the CM-block parity change between
    # a cluster's visits.
    facts: Dict[int, Tuple[Tuple[str, ...], Tuple[Tuple[LoadContext, ...], ...]]] = {
        cluster.index: cluster_codegen_facts(schedule, cluster)
        for cluster in clustering
    }
    load_order = {index: fact[0] for index, fact in facts.items()}

    visit_index = 0
    next_iteration = 0
    block_holds: List[Optional[int]] = [None, None]  # cluster per CM block
    for round_index in range(schedule.rounds):
        round_iterations = schedule.iterations_in_round(round_index)
        iterations = tuple(
            range(next_iteration, next_iteration + round_iterations)
        )
        next_iteration += round_iterations
        for cluster in clustering:
            plan = schedule.plan_for(cluster.index)
            visit = Visit(
                index=visit_index,
                round_index=round_index,
                cluster_index=cluster.index,
                fb_set=cluster.fb_set,
                iterations=iterations,
            )
            visit_index += 1

            if (
                reuse_resident_contexts
                and block_holds[visit.cm_block] == cluster.index
            ):
                context_loads = ()
            else:
                context_loads = facts[cluster.index][1][visit.cm_block]
                block_holds[visit.cm_block] = cluster.index

            # Leaf ops are built with ``tuple.__new__`` to skip the
            # validating constructors: sizes, cycles and iteration
            # indices here come from already-validated Kernel /
            # DataflowInfo objects and ``range``.
            fb_set = cluster.fb_set
            new = tuple.__new__
            data_loads = []
            for name in load_order[cluster.index]:
                info = dataflow[name]
                size = info.size
                if info.invariant:
                    # One shared copy serves every concurrent iteration;
                    # instance 0 is the conventional index.
                    data_loads.append(
                        new(LoadData, (name, 0, size, fb_set))
                    )
                else:
                    data_loads.extend(
                        new(LoadData, (name, iteration, size, fb_set))
                        for iteration in iterations
                    )
            data_loads = tuple(data_loads)

            compute = tuple(
                new(RunKernel, (kernel.name, iteration, kernel.cycles, fb_set))
                for kernel in clustering.kernels_of(cluster)
                for iteration in iterations
            )
            if not compute:
                raise CodegenError(
                    f"cluster {cluster.name} generates no compute"
                )

            stores = tuple(
                new(StoreData, (name, iteration, dataflow[name].size, fb_set))
                for name in plan.stores
                for iteration in iterations
            )

            visits.append(
                VisitOps(
                    visit=visit,
                    context_loads=context_loads,
                    data_loads=data_loads,
                    compute=compute,
                    stores=stores,
                )
            )
    return Program(schedule=schedule, visits=tuple(visits))


def cluster_codegen_facts(
    schedule: Schedule, cluster
) -> Tuple[Tuple[str, ...], Tuple[Tuple[LoadContext, ...], ...]]:
    """``(load_order, context_loads_per_cm_block)`` for one cluster."""
    order = _load_order(schedule, cluster)
    context_loads = tuple(
        tuple(
            LoadContext(
                kernel=kernel.name,
                words=kernel.context_words,
                cm_block=block,
            )
            for kernel in schedule.clustering.kernels_of(cluster)
        )
        for block in (0, 1)
    )
    return order, context_loads


def _load_order(schedule: Schedule, cluster) -> Tuple[str, ...]:
    """Plan loads ordered the way the allocator places them: kept shared
    data (most distant last consumer first), then other inputs from the
    last kernel's down to the first kernel's."""
    plan = schedule.plan_for(cluster.index)
    dataflow = schedule.dataflow
    kept_by_name = {
        keep.name: keep
        for keep in schedule.keeps
        if keep.fb_set == cluster.fb_set
    }
    kept_first = [
        name for name in plan.loads
        if name in kept_by_name
        and getattr(kept_by_name[name], "clusters", (None,))[0] == cluster.index
    ]
    kept_first.sort(key=lambda name: (-kept_by_name[name].span[1], name))
    rest = [name for name in plan.loads if name not in kept_first]
    ordered_rest: List[str] = []
    for kernel_name in reversed(cluster.kernel_names):
        for name in rest:
            if name in ordered_rest:
                continue
            if dataflow.last_use_in_cluster(name, cluster.index) == kernel_name:
                ordered_rest.append(name)
    leftovers = [name for name in rest if name not in ordered_rest]
    return tuple(kept_first + ordered_rest + leftovers)
