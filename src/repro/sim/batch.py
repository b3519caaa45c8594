"""Batch simulation helper for analysis drivers.

The ablation/sweep/corpus drivers and the fuzz runner all follow the
same shape: lower a schedule, build a fresh machine, simulate, keep the
:class:`~repro.sim.report.SimulationReport`.  :func:`simulate_program`
captures that shape once, with the per-transfer trace and the program
re-verification off by default, so the event-driven engine accounts
each visit's transfer groups as whole channel blocks.
"""

from __future__ import annotations

from typing import Optional

from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.program import Program
from repro.schedule.context_scheduler import DmaPolicy
from repro.sim.engine import Simulator
from repro.sim.report import SimulationReport

__all__ = ["simulate_program"]


def simulate_program(
    program: Program,
    architecture: Architecture,
    *,
    machine: Optional[MorphoSysM1] = None,
    dma_policy: DmaPolicy = DmaPolicy.CONTEXTS_FIRST,
    trace: bool = False,
    verify: bool = False,
) -> SimulationReport:
    """Simulate one lowered program on a fresh (or given) machine.

    Defaults differ from :class:`Simulator` on purpose: batch drivers
    consume aggregate reports, so the per-transfer trace and the
    program re-verification are off unless explicitly requested.
    """
    if machine is None:
        machine = MorphoSysM1(architecture)
    simulator = Simulator(
        machine,
        dma_policy=dma_policy,
        trace=trace,
        verify=verify,
    )
    return simulator.run(program)
