"""Eager reference program generator (the equivalence oracle).

This is the original body of :func:`repro.codegen.generator.generate_program`,
kept verbatim after the product path moved to the template-compiled
backend (:mod:`repro.codegen.templated`).  It emits every leaf op of
every visit up front — ``rounds x clusters`` stamped visits — which
makes it easy to audit and therefore the oracle the ``progequiv`` fuzz
oracle and ``tests/codegen/test_templated_equivalence.py`` drive against
the templated backend.

No product path uses this function; :func:`generate_program` is
byte-identical and compiles each cluster only once.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.codegen.generator import cluster_codegen_facts
from repro.codegen.ops import LoadContext, LoadData, RunKernel, StoreData, Visit, VisitOps
from repro.codegen.program import Program
from repro.errors import CodegenError
from repro.schedule.plan import Schedule

__all__ = ["reference_generate_program"]


def reference_generate_program(schedule: Schedule) -> Program:
    """Lower *schedule* eagerly into a :class:`Program` whose ``visits``
    is a plain tuple of :class:`VisitOps`."""
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
                    context_loads=facts[cluster.index][1][visit.cm_block],
                    data_loads=data_loads,
                    compute=compute,
                    stores=stores,
                )
            )
    return Program(schedule=schedule, visits=tuple(visits))
