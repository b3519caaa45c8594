"""Program-layer hazard rules (``HAZ``/``DFA``) backed by the static
analyzer in :mod:`repro.dataflow`.

One pass lowers the program to the def-use IR, builds the happens
before graph for the default (sound) DMA policy, and runs all five
hazard passes.  ``repro analyze`` exposes the same passes with a
selectable policy; here they ride along with every full ``repro lint``
run so a hazardous program can never lint clean.
"""

from __future__ import annotations

from repro.dataflow import analyzer
from repro.dataflow.passes import HAZARD_RULES
from repro.lint.diagnostics import Severity
from repro.lint.registry import Emitter, LintContext, lint_pass, register_rule

register_rule(
    "HAZ001", "program", Severity.ERROR,
    "no DMA transfer may race a kernel or transfer on shared FB/CM words",
    "section 2 (overlap windows), section 6 (store-before-load ordering)",
)
register_rule(
    "HAZ002", "program", Severity.ERROR,
    "simultaneously-live values never occupy overlapping FB words",
    "section 5, Figure 4 (allocation correctness)",
)
register_rule(
    "HAZ003", "program", Severity.ERROR,
    "CM/FB residency stays within capacity at every happens-before point",
    "section 3 (DS(C) <= FBS), section 5 (CM blocks)",
)
register_rule(
    "DFA001", "program", Severity.WARNING,
    "loaded data must be read by at least one kernel before eviction",
    "section 3 (minimised data traffic)",
)
register_rule(
    "DFA002", "program", Severity.WARNING,
    "retained objects must be reused before eviction",
    "section 4 (TF/RF retention decisions)",
)


@lint_pass(
    "hazard-analysis",
    layer="program",
    requires=("program",),
    rules=HAZARD_RULES,
)
def check_hazards(context: LintContext, emit: Emitter) -> None:
    """Run the five dataflow hazard passes over the lowered program."""
    ir = analyzer.lower_program(
        context.program, allocations=context.allocations or None
    )
    analyzer.emit_hazards(ir, emit)
