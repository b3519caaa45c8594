"""Event-driven simulation of programs on the M1 machine model.

The simulator serialises every transfer on the single DMA channel,
overlaps transfers with computation through the two frame-buffer sets
(and the two context-memory blocks), and reports the makespan, the
traffic broken down by kind, and the RC-array stall time — the numbers
behind the paper's Figure 6 / Table 1.

In *functional* mode the simulator additionally moves real values:
external inputs flow through loads, kernel executions and stores, and
the resulting outputs are compared against a direct (unscheduled)
reference execution — proving the schedule preserves semantics, not
just capacity constraints.
"""

from repro.sim.engine import Simulator
from repro.sim.functional import (
    populate_external_inputs,
    reference_outputs,
    surrogate_kernel,
)
from repro.sim.report import PeriodicVisits, SimulationReport, VisitTiming

__all__ = [
    "PeriodicVisits",
    "SimulationReport",
    "Simulator",
    "VisitTiming",
    "populate_external_inputs",
    "reference_outputs",
    "surrogate_kernel",
]
