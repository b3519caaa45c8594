"""Batch driver behind ``repro analyze``.

Runs the hazard analyzer over named workloads — the bundled paper
experiments (plus the wavelet codec) and the pinned corpus reproducers
under ``tests/corpus/`` — for one or more schedulers and DMA policies,
and renders the combined result as text or JSON.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.schedule.context_scheduler import DmaPolicy

__all__ = [
    "AnalysisResult",
    "analyze_targets",
    "corpus_cases",
    "render_analysis_json",
    "render_analysis_text",
]


@dataclasses.dataclass
class AnalysisResult:
    """One (workload, scheduler, policy) analysis outcome.

    ``collector`` is ``None`` when the workload was skipped — the
    scheduler found it infeasible (``reason`` says why).
    """

    target: str
    scheduler: str
    policy: DmaPolicy
    collector: Optional[object] = None
    reason: str = ""

    @property
    def skipped(self) -> bool:
        return self.collector is None

    @property
    def has_errors(self) -> bool:
        return self.collector is not None and self.collector.has_errors


def corpus_cases(corpus_dir) -> List[Tuple[str, object]]:
    """Load every pinned reproducer under *corpus_dir* (sorted)."""
    from repro.fuzz.case import FuzzCase

    directory = Path(corpus_dir)
    cases: List[Tuple[str, object]] = []
    for path in sorted(directory.glob("*.json")):
        cases.append((path.stem, FuzzCase.load(path)))
    return cases


def _workloads(target: str, corpus_dir) -> List[Tuple[str, object, object, object]]:
    """Resolve *target* to ``(label, application, clustering, architecture)``."""
    from repro.arch.params import Architecture
    from repro.lint.runner import lint_targets, resolve_target

    if target.lower() == "corpus":
        workloads = []
        for label, case in corpus_cases(corpus_dir):
            application, clustering = case.build()
            workloads.append(
                (label, application, clustering, case.architecture())
            )
        return workloads
    if target.lower() == "all":
        targets = list(lint_targets())
    else:
        targets = [resolve_target(target)]
    workloads = []
    for entry in targets:
        application, clustering = entry.build()
        workloads.append(
            (entry.id, application, clustering, Architecture.m1(entry.fb))
        )
    return workloads


def analyze_targets(
    target: str,
    *,
    schedulers: Sequence[str] = ("cds",),
    policies: Sequence[DmaPolicy] = (DmaPolicy.CONTEXTS_FIRST,),
    corpus_dir="tests/corpus",
) -> List[AnalysisResult]:
    """Analyze *target* for every scheduler x policy combination.

    Args:
        target: an experiment id, ``"WAVELET"``, ``"all"`` (every
            bundled workload), or ``"corpus"`` (the pinned reproducers).
        schedulers: scheduler short names (subset of ``basic/ds/cds``).
        policies: DMA policies to build the happens-before graph for.
        corpus_dir: where ``"corpus"`` reproducers live.
    """
    from repro.dataflow.analyzer import analyze_ir, build_ir
    from repro.schedule import SCHEDULERS

    results: List[AnalysisResult] = []
    for label, application, clustering, architecture in _workloads(
        target, corpus_dir
    ):
        for scheduler in schedulers:
            try:
                schedule = SCHEDULERS[scheduler](
                    architecture
                ).schedule(application, clustering)
            except ReproError as exc:
                for policy in policies:
                    results.append(AnalysisResult(
                        target=label, scheduler=scheduler, policy=policy,
                        reason=f"infeasible: {exc}",
                    ))
                continue
            from repro.codegen.generator import generate_program

            try:
                program = generate_program(schedule)
            except ReproError as exc:
                for policy in policies:
                    results.append(AnalysisResult(
                        target=label, scheduler=scheduler, policy=policy,
                        reason=f"codegen failed: {exc}",
                    ))
                continue
            ir = build_ir(program)
            for policy in policies:
                collector = analyze_ir(ir, policy=policy)
                results.append(AnalysisResult(
                    target=label, scheduler=scheduler, policy=policy,
                    collector=collector,
                ))
    return results


def render_analysis_text(
    results: Iterable[AnalysisResult], *, verbose: bool = False
) -> str:
    """Human-readable multi-result report."""
    from repro.lint.reporters import render_text

    lines: List[str] = []
    clean = 0
    skipped = 0
    noisy = []
    for result in results:
        tag = f"{result.target} ({result.scheduler}, {result.policy.name.lower()})"
        if result.skipped:
            skipped += 1
            lines.append(f"{tag}: skipped — {result.reason}")
            continue
        collector = result.collector
        if not collector.diagnostics and not verbose:
            clean += 1
            continue
        if collector.diagnostics:
            noisy.append(tag)
        lines.append(render_text(collector, title=tag, verbose=verbose))
        lines.append("")
    summary = (
        f"{clean} clean, {len(noisy)} with findings, {skipped} skipped"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_analysis_json(results: Iterable[AnalysisResult]) -> dict:
    """Machine-readable multi-result report (the CI artifact)."""
    reports = []
    errors = 0
    hazards = 0
    for result in results:
        entry = {
            "target": result.target,
            "scheduler": result.scheduler,
            "policy": result.policy.name.lower(),
        }
        if result.skipped:
            entry["skipped"] = True
            entry["reason"] = result.reason
        else:
            payload = result.collector.to_json()
            entry.update(payload)
            entry["clean"] = not result.collector.has_errors
            errors += payload["summary"]["errors"]
            hazards += sum(
                1 for diagnostic in payload["diagnostics"]
                if diagnostic["code"].startswith("HAZ")
            )
        reports.append(entry)
    return {
        "reports": reports,
        "totals": {
            "targets": len(reports),
            "errors": errors,
            "hazard_findings": hazards,
        },
    }
