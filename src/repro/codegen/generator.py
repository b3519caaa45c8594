"""Lowering a :class:`Schedule` to a :class:`Program`.

The program holds one :class:`VisitOps` per round and cluster:

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

from typing import List, Tuple

from repro.codegen.ops import LoadContext
from repro.codegen.program import Program
from repro.codegen.templated import generate_templated_program
from repro.schedule.plan import Schedule

__all__ = ["generate_program", "cluster_codegen_facts"]


def generate_program(schedule: Schedule) -> Program:
    """Lower *schedule* into an executable :class:`Program`.

    Each cluster is compiled once into a template and its visits are
    stamped lazily (:mod:`repro.codegen.templated`); the program is
    byte-identical to the eager reference generator's
    (:mod:`repro.codegen.reference`, enforced by the equivalence suite
    and the ``progequiv`` fuzz oracle).  Every visit loads its
    cluster's contexts into CM block ``index % 2`` — the paper's
    accounting, ``n/RF`` context loads per kernel.
    """
    return generate_templated_program(schedule)


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
