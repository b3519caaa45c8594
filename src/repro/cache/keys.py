"""Content-hash keys for the persistent pipeline cache.

Every key digests *content*, never object identity or discovery order:
two processes that build structurally identical workloads under the
same architecture and options derive the same key, which is what lets
the on-disk store in :mod:`repro.cache.store` be shared across worker
processes and across runs.  :func:`workload_fingerprint` is the
canonical workload description; the keys combine it with the full
option set and the simulation-side knobs (DMA policy, tracing) so a hit
guarantees a byte-identical :class:`~repro.sim.report.SimulationReport`,
not just a byte-identical schedule.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from repro.arch.params import Architecture
from repro.core.application import Application
from repro.core.cluster import Clustering
from repro.schedule.base import ScheduleOptions

if TYPE_CHECKING:  # pragma: no cover
    from repro.fuzz.case import FuzzCase

__all__ = [
    "arch_fingerprint",
    "case_key",
    "digest",
    "options_fingerprint",
    "outcome_key",
    "workload_fingerprint",
]


def digest(payload: tuple) -> str:
    """SHA-256 hex digest of a canonical payload tuple.

    The payload must already be canonical (plain data, deterministic
    order); ``repr`` of such tuples is stable across processes.
    """
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def workload_fingerprint(
    application: Application, clustering: Clustering
) -> tuple:
    """Canonical, identity-free description of a (app, clustering) pair."""
    kernels = tuple(
        (
            kernel.name,
            kernel.context_words,
            kernel.cycles,
            tuple(kernel.inputs),
            tuple(kernel.outputs),
        )
        for kernel in application.kernels
    )
    objects = tuple(
        sorted(
            (obj.name, obj.size, obj.invariant)
            for obj in application.objects.values()
        )
    )
    clusters = tuple(
        (cluster.index, tuple(cluster.kernel_names), cluster.fb_set)
        for cluster in clustering
    )
    return (
        application.name,
        application.total_iterations,
        kernels,
        objects,
        tuple(sorted(application.final_outputs)),
        clusters,
    )


def arch_fingerprint(architecture: Architecture) -> tuple:
    """Every architecture parameter the pipeline reads."""
    timing = architecture.timing
    return (
        architecture.fb_set_words,
        architecture.rc_rows,
        architecture.rc_cols,
        architecture.fb_sets,
        architecture.context_block_words,
        architecture.context_blocks,
        architecture.fb_cross_set_access,
        timing.data_word_cycles,
        timing.context_word_cycles,
        timing.dma_setup_cycles,
    )


def options_fingerprint(options: ScheduleOptions) -> tuple:
    """Every :class:`ScheduleOptions` field, in declaration order.

    The persistent cache digests *all* fields, even those that cannot
    change the plan: a hit must reproduce the full outcome (including
    attached decision traces and lint behaviour), and a new field added
    without updating this fingerprint would poison caches silently.
    """
    return (
        options.rf_cap,
        options.keep_policy,
        options.rf_policy,
        options.cross_set_retention,
        options.strict_lint,
        options.strict_hazards,
        options.decision_trace,
    )


def outcome_key(
    scheduler_name: str,
    application: Application,
    clustering: Clustering,
    architecture: Architecture,
    *,
    options: ScheduleOptions,
    dma_policy: str = "contexts_first",
    trace: bool = False,
) -> str:
    """Key for one full pipeline outcome (schedule + program + report).

    Digests everything the compile+simulate pipeline reads: workload
    structure, architecture, the complete option set, the DMA ordering
    policy and whether the per-transfer trace was recorded (traced and
    untraced reports differ in their ``transfers`` payload).
    """
    return digest((
        "outcome",
        scheduler_name,
        workload_fingerprint(application, clustering),
        arch_fingerprint(architecture),
        options_fingerprint(options),
        dma_policy,
        trace,
    ))


def case_key(case: "FuzzCase") -> str:
    """Content key for one fuzz case.

    Digests the workload and architecture payload of a
    :class:`~repro.fuzz.case.FuzzCase` but *not* its name, provenance
    (regime/seed) or corpus markers: a renamed reproducer of the same
    workload hits the same entry.
    """
    objects = tuple(
        sorted(
            (name, spec["size"], bool(spec.get("invariant", False)))
            for name, spec in case.objects.items()
        )
    )
    kernels = tuple(
        (
            kernel["name"],
            kernel["context_words"],
            kernel["cycles"],
            tuple(kernel["inputs"]),
            tuple(kernel["outputs"]),
        )
        for kernel in case.kernels
    )
    return digest((
        "case",
        case.total_iterations,
        objects,
        kernels,
        tuple(sorted(case.finals)),
        tuple(tuple(group) for group in case.groups),
        tuple(case.fb_sets) if case.fb_sets is not None else None,
        case.fb_words,
    ))
