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

Loads are emitted in :meth:`Schedule.load_order` (shared data with the
most distant consumer first, then inputs by their last consuming
kernel), the order the allocator places them in, so the DMA delivers
data in the order the cluster needs it.
"""

from __future__ import annotations

from typing import Tuple

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
    order = schedule.load_order(cluster.index)
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
