"""Timing-aware static analysis of generated programs.

The package closes the gap between the functional program verifier
(:mod:`repro.codegen.verifier`) and the timing behaviour the simulator
only samples dynamically:

* :mod:`repro.dataflow.ir` lowers a :class:`~repro.codegen.program.Program`
  into a def-use IR of NumPy columns — one node per leaf op with its
  FB/CM word effects, one value per resident instance — with a lazy
  :class:`~repro.dataflow.ir.IRNode` /
  :class:`~repro.dataflow.ir.ValueLifetime` view built on access; a
  templated program block by block from its templates
  (:mod:`repro.dataflow.blocks`), any other by replaying its ops
  (:mod:`repro.dataflow.opwalk`);
* :mod:`repro.dataflow.hazards` builds the happens-before graph between
  DMA transfers and kernel runs under a DMA serialization policy,
  mirroring the reference engine's issue order;
* :mod:`repro.dataflow.passes` runs the five hazard passes (race
  detection, live-range interference, dead transfers, retention
  liveness, capacity over time);
* :mod:`repro.dataflow.analyzer` drives it all and reports through the
  lint framework's rule codes (``HAZ001``-``HAZ003``, ``DFA001``-
  ``DFA002``) and reporters; ``repro analyze`` is the CLI front end.
"""

from repro.dataflow.analyzer import (
    analyze_ir,
    analyze_program,
    analyze_schedule,
    build_ir,
    hazard_errors,
    parse_policy,
)
from repro.dataflow.hazards import HappensBefore
from repro.dataflow.ir import (
    Access,
    IRNode,
    ProgramIR,
    ValueLifetime,
    VisitNodes,
    lower_program,
)
from repro.dataflow.passes import HAZARD_RULES, run_hazard_passes

__all__ = [
    "Access",
    "HAZARD_RULES",
    "HappensBefore",
    "IRNode",
    "ProgramIR",
    "ValueLifetime",
    "VisitNodes",
    "analyze_ir",
    "analyze_program",
    "analyze_schedule",
    "build_ir",
    "hazard_errors",
    "lower_program",
    "parse_policy",
    "run_hazard_passes",
]
