"""The lint rule catalogue and pass registry.

A *rule* is one named invariant with a default severity and a pointer
into the paper (section / formula) justifying it; the full catalogue is
documented in ``docs/lint_rules.md``.  A *pass* is a function that
inspects one or more pipeline artifacts and emits diagnostics against
registered rules.  Passes declare which artifacts they need
(``requires``) and are skipped automatically when the
:class:`LintContext` lacks one — so the same registry serves a
schedule-only self-lint and the full four-layer ``repro lint`` run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

from repro.lint.diagnostics import Diagnostic, DiagnosticCollector, Severity

if TYPE_CHECKING:  # pragma: no cover — import cycle guard for annotations
    from repro.codegen.program import Program
    from repro.core.application import Application
    from repro.core.cluster import Clustering
    from repro.core.dataflow import DataflowInfo
    from repro.alloc.allocator import AllocationMap
    from repro.schedule.plan import Schedule

__all__ = [
    "LAYERS",
    "Rule",
    "RULES",
    "register_rule",
    "LintContext",
    "LintPass",
    "PASSES",
    "lint_pass",
    "Emitter",
    "make_emitter",
    "run_passes",
]

#: Artifact layers, in pipeline order.
LAYERS: Tuple[str, ...] = ("application", "schedule", "allocation", "program")


@dataclass(frozen=True)
class Rule:
    """One registered invariant.

    Attributes:
        code: unique rule code (``APP001``, ``SCHED003``, ...).
        layer: the artifact layer the rule inspects.
        severity: default severity of its diagnostics.
        title: one-line statement of the invariant.
        paper_ref: the paper section / formula the rule enforces.
    """

    code: str
    layer: str
    severity: Severity
    title: str
    paper_ref: str


RULES: Dict[str, Rule] = {}


def register_rule(
    code: str,
    layer: str,
    severity: Severity,
    title: str,
    paper_ref: str,
) -> Rule:
    """Add a rule to the catalogue (import-time, in the pass modules)."""
    if layer not in LAYERS:
        raise ValueError(f"unknown lint layer {layer!r}")
    if code in RULES:
        raise ValueError(f"duplicate lint rule code {code!r}")
    rule = Rule(
        code=code, layer=layer, severity=severity,
        title=title, paper_ref=paper_ref,
    )
    RULES[code] = rule
    return rule


@dataclass
class LintContext:
    """The pipeline artifacts available to the passes.

    Only ``application`` is mandatory; passes requiring an absent
    artifact are skipped.  ``fb_set_words`` / ``context_block_words``
    come from the schedule when present.
    """

    application: "Application"
    clustering: Optional["Clustering"] = None
    dataflow: Optional["DataflowInfo"] = None
    schedule: Optional["Schedule"] = None
    allocations: Tuple["AllocationMap", ...] = ()
    program: Optional["Program"] = None

    def has(self, artifact: str) -> bool:
        """True when the named artifact is available."""
        value = getattr(self, artifact)
        if artifact == "allocations":
            return bool(value)
        return value is not None


#: Signature every pass function implements: inspect the context, emit
#: diagnostics through the provided emitter.
Emitter = Callable[..., Optional[Diagnostic]]


@dataclass(frozen=True)
class LintPass:
    """One registered pass: a function plus its artifact requirements."""

    name: str
    layer: str
    requires: Tuple[str, ...]
    rules: Tuple[str, ...]
    fn: Callable[[LintContext, Emitter], None]

    def runnable(self, context: LintContext) -> bool:
        return all(context.has(artifact) for artifact in self.requires)


PASSES: List[LintPass] = []


def lint_pass(
    name: str,
    *,
    layer: str,
    requires: Sequence[str] = ("application",),
    rules: Sequence[str] = (),
) -> Callable[[Callable[[LintContext, Emitter], None]],
              Callable[[LintContext, Emitter], None]]:
    """Decorator registering a pass function.

    Args:
        name: pass identifier (reported in verbose output).
        layer: which artifact layer the pass belongs to.
        requires: context attributes that must be present to run.
        rules: rule codes the pass may emit (marked as *checked* on
            every run, so reports can show coverage).
    """
    if layer not in LAYERS:
        raise ValueError(f"unknown lint layer {layer!r}")

    def decorator(
        fn: Callable[[LintContext, Emitter], None]
    ) -> Callable[[LintContext, Emitter], None]:
        for code in rules:
            if code not in RULES:
                raise ValueError(
                    f"pass {name!r} references unregistered rule {code!r}"
                )
        PASSES.append(
            LintPass(
                name=name,
                layer=layer,
                requires=tuple(requires),
                rules=tuple(rules),
                fn=fn,
            )
        )
        return fn

    return decorator


def make_emitter(
    collector: DiagnosticCollector,
) -> Emitter:
    """An :data:`Emitter` that adds each finding to *collector* with
    its rule's registered severity and layer."""
    def emit(
        code: str,
        message: str,
        *,
        location: str = "",
        cost_words: int = 0,
        **details: object,
    ) -> Optional[Diagnostic]:
        rule = RULES[code]
        return collector.add(
            Diagnostic(
                code=code,
                severity=rule.severity,
                layer=rule.layer,
                location=location,
                message=message,
                cost_words=cost_words,
                details=details,
            )
        )

    return emit


def run_passes(
    context: LintContext,
    *,
    collector: Optional[DiagnosticCollector] = None,
    layers: Optional[Iterable[str]] = None,
) -> DiagnosticCollector:
    """Run every runnable registered pass over *context*.

    Args:
        context: the artifacts to lint.
        collector: collector to accumulate into (a fresh one when
            omitted); carries severity overrides and suppressions.
        layers: restrict to these layers (default: all four).

    Returns:
        The collector, filled with diagnostics.
    """
    # NB: an empty collector is falsy (it has __len__), so test identity.
    if collector is None:
        collector = DiagnosticCollector()
    wanted = set(layers) if layers is not None else set(LAYERS)
    unknown = wanted - set(LAYERS)
    if unknown:
        raise ValueError(f"unknown lint layers: {sorted(unknown)}")
    emit = make_emitter(collector)
    for lint in PASSES:
        if lint.layer not in wanted or not lint.runnable(context):
            continue
        for code in lint.rules:
            collector.mark_checked(code)
        lint.fn(context, emit)
    return collector
