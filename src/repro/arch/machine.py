"""The assembled M1 machine: the state the simulator reads.

:class:`MorphoSysM1` bundles external memory under one
:class:`~repro.arch.params.Architecture` description.  The simulator
(:mod:`repro.sim`) drives a machine instance and builds its DMA channel
afresh for every run, so no timeline or statistics outlive a run; a
functional run reads its inputs from, and writes its results to, the
machine's external memory.  On-chip frame-buffer and context-memory
residency is checked statically by the program verifier and the hazard
IR, and analyses that only need capacities and timing work directly
with the :class:`Architecture`.
"""

from __future__ import annotations

from repro.arch.external_memory import ExternalMemory
from repro.arch.params import Architecture

__all__ = ["MorphoSysM1"]


class MorphoSysM1:
    """A concrete machine instance ready for simulation.

    Args:
        architecture: capacities and timing (see
            :meth:`Architecture.m1` for the preset).
    """

    def __init__(self, architecture: Architecture):
        self.architecture = architecture
        self.external_memory = ExternalMemory()

    @classmethod
    def m1(cls, fb_set_words="2K", **kwargs) -> "MorphoSysM1":
        """Shorthand for ``MorphoSysM1(Architecture.m1(...))``."""
        return cls(Architecture.m1(fb_set_words, **kwargs))

    def reset(self) -> None:
        """Return the machine to power-on state (drops all contents)."""
        self.external_memory.clear()

    def __str__(self) -> str:
        return f"MorphoSysM1({self.architecture})"
