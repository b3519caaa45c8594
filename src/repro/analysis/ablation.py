"""Ablations of the Complete Data Scheduler's design choices.

DESIGN.md calls out four decisions worth isolating:

* **TF ranking** (paper section 4) vs. naive candidate orders — does
  ranking retention candidates by the time factor actually beat
  largest-first or discovery order?
* **RF policy** — the paper maximises the common reuse factor first and
  keeps what still fits; the ``joint`` policy sweeps (RF, keeps) pairs.
* **DMA ordering** (context scheduler [4]) — contexts-first vs.
  loads-first vs. stores-first inside overlap windows.
* **Allocator splitting** (section 5) — last-resort splitting on/off,
  and first-fit growth directions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.core.application import Application
from repro.core.cluster import Clustering
from repro.errors import InfeasibleScheduleError
from repro.schedule.base import ScheduleOptions
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.context_scheduler import DmaPolicy
from repro.schedule.plan import Schedule
from repro.sim.engine import Simulator
from repro.workloads.spec import ExperimentSpec

__all__ = [
    "AblationResult",
    "keep_policy_ablation",
    "rf_policy_ablation",
    "dma_policy_ablation",
    "cross_set_ablation",
    "render_ablation",
]


@dataclass(frozen=True)
class AblationResult:
    """One variant's outcome on one workload."""

    workload: str
    variant: str
    total_cycles: Optional[int]
    data_words: Optional[int]
    rf: Optional[int]
    kept_items: Optional[int]
    infeasible_reason: str = ""

    @property
    def feasible(self) -> bool:
        return self.total_cycles is not None


def _run_cds(
    application: Application,
    clustering: Clustering,
    architecture: Architecture,
    options: ScheduleOptions,
    *,
    variant: str,
    dma_policy: DmaPolicy = DmaPolicy.CONTEXTS_FIRST,
    plan: Optional[Callable[[], Schedule]] = None,
    cache=None,
) -> AblationResult:
    """Schedule with the CDS (or call *plan*, a zero-argument
    scheduling closure shared across variants) and simulate."""
    key = None
    if cache is not None:
        from repro.cache import (
            arch_fingerprint,
            digest,
            options_fingerprint,
            workload_fingerprint,
        )

        key = digest((
            "ablation",
            variant,
            workload_fingerprint(application, clustering),
            arch_fingerprint(architecture),
            options_fingerprint(options),
            dma_policy.value,
        ))
        cached = cache.get(key)
        if cached is not None:
            return cached
    try:
        if plan is not None:
            schedule = plan()
        else:
            schedule = CompleteDataScheduler(architecture, options).schedule(
                application, clustering
            )
    except InfeasibleScheduleError as exc:
        result = AblationResult(
            workload=application.name, variant=variant,
            total_cycles=None, data_words=None, rf=None, kept_items=None,
            infeasible_reason=str(exc),
        )
        if cache is not None:
            cache.put(key, result)
        return result
    program = generate_program(schedule)
    report = Simulator(
        MorphoSysM1(architecture), dma_policy=dma_policy,
        trace=False, verify=True,
    ).run(program)
    result = AblationResult(
        workload=application.name,
        variant=variant,
        total_cycles=report.total_cycles,
        data_words=report.data_words,
        rf=schedule.rf,
        kept_items=len(schedule.keeps),
    )
    if cache is not None:
        cache.put(key, result)
    return result


def keep_policy_ablation(
    spec: ExperimentSpec, *, cache=None
) -> List[AblationResult]:
    """TF ranking vs. size-first vs. discovery-order retention."""
    application, clustering = spec.build()
    architecture = Architecture.m1(spec.fb)
    results = []
    for policy in ("tf", "size", "fifo"):
        results.append(
            _run_cds(
                application, clustering, architecture,
                ScheduleOptions(keep_policy=policy),
                variant=f"keep={policy}", cache=cache,
            )
        )
    return results


def rf_policy_ablation(
    spec: ExperimentSpec, *, cache=None
) -> List[AblationResult]:
    """Paper's RF-first policy vs. joint (RF, keeps) exploration."""
    application, clustering = spec.build()
    architecture = Architecture.m1(spec.fb)
    return [
        _run_cds(
            application, clustering, architecture,
            ScheduleOptions(rf_policy=policy),
            variant=f"rf={policy}", cache=cache,
        )
        for policy in ("max_then_keep", "joint")
    ]


def dma_policy_ablation(
    spec: ExperimentSpec, *, cache=None
) -> List[AblationResult]:
    """Context-scheduler orderings inside overlap windows.

    The schedule is invariant across DMA policies (they differ only in
    simulation), so the variants share one cached plan closure: at most
    one scheduling pass per call, none when every variant is a
    persistent-cache hit.  An infeasible plan raises and is not cached.
    """
    application, clustering = spec.build()
    architecture = Architecture.m1(spec.fb)
    options = ScheduleOptions()
    plan = functools.cache(
        lambda: CompleteDataScheduler(architecture, options).schedule(
            application, clustering
        )
    )
    return [
        _run_cds(
            application, clustering, architecture, options,
            variant=f"dma={policy.value}", dma_policy=policy, plan=plan,
            cache=cache,
        )
        for policy in DmaPolicy
    ]


def cross_set_ablation(
    spec: ExperimentSpec, *, cache=None
) -> List[AblationResult]:
    """The paper's future work: retention across frame-buffer sets.

    Runs the CDS on the experiment's workload twice — on the M1
    architecture (same-set retention only) and on an architecture with
    ``fb_cross_set_access`` and ``cross_set_retention`` enabled — to
    quantify what the proposed extension would buy."""
    application, clustering = spec.build()
    m1 = Architecture.m1(spec.fb)
    extended = Architecture.m1(
        spec.fb, fb_cross_set_access=True,
        name=f"M1x-FB{spec.fb}",
    )
    return [
        _run_cds(application, clustering, m1, ScheduleOptions(),
                 variant="retention=same-set", cache=cache),
        _run_cds(application, clustering, extended,
                 ScheduleOptions(cross_set_retention=True),
                 variant="retention=cross-set", cache=cache),
    ]


def render_ablation(results: Sequence[AblationResult]) -> str:
    """Text table of ablation outcomes."""
    lines = [
        f"{'workload':<12} {'variant':<22} {'cycles':>10} {'data words':>11} "
        f"{'RF':>3} {'keeps':>5}"
    ]
    lines.append("-" * len(lines[0]))
    for result in results:
        if result.feasible:
            lines.append(
                f"{result.workload:<12} {result.variant:<22} "
                f"{result.total_cycles:>10} {result.data_words:>11} "
                f"{result.rf:>3} {result.kept_items:>5}"
            )
        else:
            lines.append(
                f"{result.workload:<12} {result.variant:<22} "
                f"{'infeasible':>10}"
            )
    return "\n".join(lines)
