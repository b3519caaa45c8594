"""Template-compiled program generation.

Visits are round-invariant per cluster: between two visits of the same
cluster only the visit index, the iteration window and the CM-block
parity change.  The reference generator (:mod:`repro.codegen.reference`)
still re-emits every leaf op ``rounds x clusters`` times; this backend
compiles each cluster **once** into a :class:`ClusterTemplate` — load
order, context loads, kernel launches and stores as small per-cluster
tables — and stamps the template per visit on demand.

``generate_templated_program`` returns an ordinary :class:`Program`
whose ``visits`` field is a :class:`TemplateVisits` lazy sequence:
downstream consumers (simulator, verifier, hazard IR, tests that slice
``program.visits``) see exactly the tuple of :class:`VisitOps` the
reference generator would have produced — materialized on first access
and byte-identical (the golden suite and the ``progequiv`` fuzz oracle
enforce this).  Consumers that never touch the ops — the fast
verifier (:mod:`repro.codegen.fastverify`) and untraced accounting
runs of the simulator (:mod:`repro.sim.engine`) — read the templates
directly and skip materialization entirely.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import List, Optional, Tuple

from repro.codegen.ops import LoadContext, LoadData, RunKernel, StoreData, Visit, VisitOps
from repro.codegen.program import Program
from repro.errors import CodegenError
from repro.schedule.plan import Schedule

__all__ = ["ClusterTemplate", "TemplateVisits", "generate_templated_program"]


class ClusterTemplate:
    """Round-invariant codegen facts for one cluster.

    Attributes:
        cluster_index: the cluster this template stamps visits for.
        fb_set: frame-buffer set the cluster executes from.
        context_loads: the context-load op tuple per CM block parity
            (index 0 and 1) — complete, validated ops shared by every
            stamped visit of matching parity.
        context_total: context words one full refill moves.
        loads: ``(name, words, fixed_iterations)`` per planned load, in
            the allocator's placement order; ``fixed_iterations`` is
            ``(0,)`` for iteration-invariant objects (always moved as
            instance 0, truthy) and ``None`` for per-iteration objects
            (falsy — stamp over the visit's window).
        compute: ``(kernel_name, cycles)`` per kernel, execution order.
        stores: ``(name, words)`` per planned store.
    """

    __slots__ = (
        "cluster_index", "fb_set", "context_loads", "context_total",
        "loads", "compute", "stores",
    )

    def __init__(
        self,
        cluster_index: int,
        fb_set: int,
        context_loads: Tuple[Tuple[LoadContext, ...], Tuple[LoadContext, ...]],
        loads: Tuple[Tuple[str, int, Optional[Tuple[int, ...]]], ...],
        compute: Tuple[Tuple[str, int], ...],
        stores: Tuple[Tuple[str, int], ...],
    ) -> None:
        self.cluster_index = cluster_index
        self.fb_set = fb_set
        self.context_loads = context_loads
        self.context_total = sum(load.words for load in context_loads[0])
        self.loads = loads
        self.compute = compute
        self.stores = stores


def build_templates(schedule: Schedule) -> Tuple[ClusterTemplate, ...]:
    """Compile every cluster of *schedule* into its template, in
    clustering order.  Raises :class:`CodegenError` exactly where the
    reference generator would (a cluster with no compute)."""
    from repro.codegen.generator import cluster_codegen_facts

    dataflow = schedule.dataflow
    templates: List[ClusterTemplate] = []
    for cluster in schedule.clustering:
        if not cluster.kernel_names:
            raise CodegenError(f"cluster {cluster.name} generates no compute")
        plan = schedule.plan_for(cluster.index)
        load_order, context_loads = cluster_codegen_facts(schedule, cluster)
        loads = tuple(
            (
                name,
                dataflow[name].size,
                (0,) if dataflow[name].invariant else None,
            )
            for name in load_order
        )
        compute = tuple(
            (kernel.name, kernel.cycles)
            for kernel in schedule.clustering.kernels_of(cluster)
        )
        stores = tuple(
            (name, dataflow[name].size) for name in plan.stores
        )
        templates.append(
            ClusterTemplate(
                cluster.index, cluster.fb_set, context_loads,
                loads, compute, stores,
            )
        )
    return tuple(templates)


class TemplateVisits(Sequence):
    """Lazy visit sequence of a template-compiled program.

    Behaves exactly like the tuple of :class:`VisitOps` the reference
    generator produces — equality, hashing, indexing and slicing all
    materialize on demand and compare by value, so ``Program`` equality
    across engines holds.  Slices return plain tuples (callers splice
    mutated visits back together as tuples).
    """

    __slots__ = ("schedule", "templates", "_count", "_ops")

    def __init__(
        self,
        schedule: Schedule,
        templates: Tuple[ClusterTemplate, ...],
    ) -> None:
        self.schedule = schedule
        self.templates = templates
        self._count = schedule.rounds * len(templates)
        self._ops: Optional[Tuple[VisitOps, ...]] = None

    # -- materialization ---------------------------------------------------

    def materialize(self) -> Tuple[VisitOps, ...]:
        """The full op tuple, stamped from the templates (cached)."""
        ops = self._ops
        if ops is None:
            ops = self._ops = self._stamp()
            # The templates have served their purpose; the cached tuple
            # now answers every access.
        return ops

    def _stamp(self) -> Tuple[VisitOps, ...]:
        # Stamping is correct by construction — windows are non-empty
        # ascending ranges and the template tables are pre-validated —
        # so the frozen-dataclass constructors (generated __init__,
        # per-field object.__setattr__, __post_init__ re-validation)
        # are bypassed with direct __dict__ assignment, and the leaf
        # ops skip their validating __new__ the same way.
        schedule = self.schedule
        templates = self.templates
        new = tuple.__new__
        obj_new = object.__new__
        visits: List[VisitOps] = []
        append = visits.append
        visit_index = 0
        next_iteration = 0
        for round_index in range(schedule.rounds):
            round_iterations = schedule.iterations_in_round(round_index)
            iterations = tuple(
                range(next_iteration, next_iteration + round_iterations)
            )
            next_iteration += round_iterations
            for template in templates:
                fb_set = template.fb_set
                context_loads = template.context_loads[visit_index % 2]
                visit = obj_new(Visit)
                # Frozen dataclasses veto __setattr__, but mutating
                # the instance dict directly is allowed — and skips
                # the generated __init__ entirely.
                visit.__dict__.update(
                    index=visit_index,
                    round_index=round_index,
                    cluster_index=template.cluster_index,
                    fb_set=fb_set,
                    iterations=iterations,
                )
                visit_index += 1
                ops = obj_new(VisitOps)
                ops.__dict__.update(
                    visit=visit,
                    context_loads=context_loads,
                    data_loads=tuple([
                        new(LoadData, (name, iteration, size, fb_set))
                        for name, size, fixed in template.loads
                        for iteration in (fixed or iterations)
                    ]),
                    compute=tuple([
                        new(RunKernel, (kernel, iteration, cycles, fb_set))
                        for kernel, cycles in template.compute
                        for iteration in iterations
                    ]),
                    stores=tuple([
                        new(StoreData, (name, iteration, size, fb_set))
                        for name, size in template.stores
                        for iteration in iterations
                    ]),
                )
                append(ops)
        return tuple(visits)

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return iter(self.materialize())

    def __getitem__(self, index):
        # Slices return plain tuples: callers splice visit tuples
        # together (``visits[:i] + (mutated,) + visits[i + 1:]``).
        return self.materialize()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TemplateVisits):
            return self.materialize() == other.materialize()
        if isinstance(other, tuple):
            return self.materialize() == other
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash(self.materialize())

    def __repr__(self) -> str:
        return repr(self.materialize())

    def __reduce__(self):
        # Pickle (and deepcopy) as the plain tuple: transported
        # programs are indistinguishable from reference ones.
        return (tuple, (self.materialize(),))


def generate_templated_program(schedule: Schedule) -> Program:
    """Template-compiled equivalent of the eager
    :func:`repro.codegen.reference.reference_generate_program`."""
    return Program(
        schedule=schedule,
        visits=TemplateVisits(schedule, build_templates(schedule)),
    )
