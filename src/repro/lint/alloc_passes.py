"""Allocation-map lint passes (rule codes ``ALLOC*``).

The Figure-4 allocator is deterministic and self-checking online; these
passes re-verify its output offline so a corrupted or hand-built
:class:`~repro.alloc.allocator.AllocationMap` cannot silently reach
code generation:

* no two lifetime-overlapping records share words (ALLOC001);
* every extent lies inside the frame-buffer set (ALLOC002);
* growth directions follow Figure 4 — long-lived inputs and kept items
  from upper addresses, results from lower addresses (ALLOC003);
* splits and broken iteration adjacency are surfaced as the
  quality-of-result deviations the paper reports on (ALLOC004/5);
* the peak fits the capacity and lifetimes are well-formed
  (ALLOC006/7).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.reuse import SharedData, SharedResult
from repro.lint.diagnostics import Severity
from repro.lint.registry import Emitter, LintContext, lint_pass, register_rule

__all__: List[str] = []

register_rule(
    "ALLOC001", "allocation", Severity.ERROR,
    "records overlapping in lifetime never overlap in address space",
    "section 5: each data or result gets its own frame-buffer region",
)
register_rule(
    "ALLOC002", "allocation", Severity.ERROR,
    "every extent lies inside the frame-buffer set",
    "section 2: one FB set is a fixed-size data cache",
)
register_rule(
    "ALLOC003", "allocation", Severity.WARNING,
    "placements follow Figure 4's growth directions (inputs and kept "
    "items from upper addresses, results from lower addresses)",
    "figure 4: shared data are placed first from upper addresses to "
    "minimise fragmentation",
)
register_rule(
    "ALLOC004", "allocation", Severity.WARNING,
    "no object is split across free blocks",
    "section 5: the paper reports zero splits across all experiments",
)
register_rule(
    "ALLOC005", "allocation", Severity.INFO,
    "iteration instances are placed adjacent to the previous instance",
    "section 5: data and results are allocated from the addresses "
    "where the previous iteration of them was placed",
)
register_rule(
    "ALLOC006", "allocation", Severity.ERROR,
    "peak occupancy of the round fits the set capacity",
    "section 4: DS(C_c) <= FBS must hold through execution",
)
register_rule(
    "ALLOC007", "allocation", Severity.ERROR,
    "record lifetimes are well-formed and unique per instance",
    "figure 4: allocate on production/load, release(c, k, iter) once "
    "dead",
)


@lint_pass(
    "alloc-lifetimes",
    layer="allocation",
    requires=("allocations",),
    rules=("ALLOC002", "ALLOC006", "ALLOC007"),
)
def check_lifetimes(context: LintContext, emit: Emitter) -> None:
    for allocation in context.allocations:
        set_location = f"fb_set {allocation.fb_set}"
        if allocation.peak_words > allocation.capacity_words:
            emit(
                "ALLOC006",
                f"round peak {allocation.peak_words} words exceeds the "
                f"set capacity {allocation.capacity_words}",
                location=set_location,
                cost_words=allocation.peak_words
                - allocation.capacity_words,
            )
        # The same (name, instance) may be loaded and released again in
        # a later cluster (nothing kept) — a *duplicate* means two
        # records for one instance alive at the same time.
        live: Dict[Tuple[str, int], List[Tuple[int, int]]] = {}
        for record in allocation.records:
            location = f"{set_location}:{record.name}#{record.instance}"
            key = (record.name, record.instance)
            span = (record.alloc_step, record.free_step)
            for other in live.get(key, ()):
                if span[0] < other[1] and other[0] < span[1]:
                    emit(
                        "ALLOC007",
                        f"duplicate allocation record for "
                        f"{record.name}#{record.instance}: two live "
                        f"copies over steps {other} and {span}",
                        location=location,
                    )
            live.setdefault(key, []).append(span)
            if record.free_step <= record.alloc_step:
                emit(
                    "ALLOC007",
                    f"record freed at step {record.free_step}, not after "
                    f"its allocation at step {record.alloc_step}",
                    location=location,
                )
            for extent in record.extents:
                if extent.start < 0 or extent.end > allocation.capacity_words:
                    emit(
                        "ALLOC002",
                        f"extent [{extent.start}..{extent.end}) lies "
                        f"outside the set capacity "
                        f"{allocation.capacity_words}",
                        location=location,
                        cost_words=max(
                            0, extent.end - allocation.capacity_words
                        ) + max(0, -extent.start),
                    )


@lint_pass(
    "alloc-overlap",
    layer="allocation",
    requires=("allocations",),
    rules=("ALLOC001",),
)
def check_overlap(context: LintContext, emit: Emitter) -> None:
    """Offline re-check of the allocator's online exclusion property."""
    for allocation in context.allocations:
        for first, second, extent_a, extent_b in allocation.overlaps():
            overlap = min(extent_a.end, extent_b.end) - max(
                extent_a.start, extent_b.start
            )
            emit(
                "ALLOC001",
                f"{first.name}#{first.instance} and "
                f"{second.name}#{second.instance} overlap "
                f"in space ({extent_a} vs {extent_b}) "
                f"while both live",
                location=f"fb_set {allocation.fb_set}",
                cost_words=max(0, overlap),
            )


@lint_pass(
    "alloc-placement-policy",
    layer="allocation",
    requires=("allocations", "schedule", "dataflow"),
    rules=("ALLOC003", "ALLOC004", "ALLOC005"),
)
def check_placement_policy(context: LintContext, emit: Emitter) -> None:
    schedule = context.schedule
    dataflow = context.dataflow
    assert schedule is not None and dataflow is not None

    kept_high: Set[str] = set()
    for keep in schedule.keeps:
        if isinstance(keep, (SharedData, SharedResult)):
            kept_high.add(keep.name)

    # Expected direction per (cluster, object): inputs "high",
    # produced results "low" unless kept (Figure 4).
    expected: Dict[Tuple[int, str], str] = {}
    for plan in schedule.cluster_plans:
        if plan.cluster_index >= len(schedule.clustering):
            continue
        for obj_name in plan.loads + plan.kept_inputs:
            expected[(plan.cluster_index, obj_name)] = "high"
        for obj_name in dataflow.produced_by_cluster(plan.cluster_index):
            if obj_name in kept_high:
                expected[(plan.cluster_index, obj_name)] = "high"
            else:
                expected[(plan.cluster_index, obj_name)] = "low"

    for allocation in context.allocations:
        for record in allocation.records:
            location = (
                f"fb_set {allocation.fb_set}:"
                f"{record.name}#{record.instance}"
            )
            if record.split:
                emit(
                    "ALLOC004",
                    f"placement split across {len(record.extents)} free "
                    f"blocks (the paper reports zero splits)",
                    location=location,
                    cost_words=record.size,
                )
            if not record.regular:
                emit(
                    "ALLOC005",
                    "placement broke iteration adjacency (irregular "
                    "addressing for the RC array)",
                    location=location,
                )
            want = expected.get((record.cluster_index, record.name))
            if want is not None and record.direction != want:
                emit(
                    "ALLOC003",
                    f"placed growing {record.direction!r}; Figure 4 "
                    f"places this object growing {want!r}",
                    location=location,
                )
