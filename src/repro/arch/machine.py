"""The assembled M1 machine: the state the simulator reads.

:class:`MorphoSysM1` bundles the DMA channel and external memory under
one :class:`~repro.arch.params.Architecture` description.  The
simulator (:mod:`repro.sim`) drives a machine instance; on-chip
frame-buffer and context-memory residency is checked statically by the
program verifier and the hazard IR, and analyses that only need
capacities and timing work directly with the :class:`Architecture`.
"""

from __future__ import annotations

from repro.arch.dma import DmaChannel
from repro.arch.external_memory import ExternalMemory
from repro.arch.params import Architecture

__all__ = ["MorphoSysM1"]


class MorphoSysM1:
    """A concrete machine instance ready for simulation.

    Args:
        architecture: capacities and timing (see
            :meth:`Architecture.m1` for the preset).
        functional: the simulator's default mode: move and compute
            actual values and check the final outputs against a
            reference execution; leave False for timing-only runs
            (much lighter).
    """

    def __init__(self, architecture: Architecture, *, functional: bool = False):
        self.architecture = architecture
        self.functional = functional
        self.dma = DmaChannel(architecture.timing)
        self.external_memory = ExternalMemory()

    @classmethod
    def m1(cls, fb_set_words="2K", *, functional: bool = False, **kwargs) -> "MorphoSysM1":
        """Shorthand for ``MorphoSysM1(Architecture.m1(...))``."""
        return cls(Architecture.m1(fb_set_words, **kwargs), functional=functional)

    def reset(self) -> None:
        """Return the machine to power-on state (drops all contents)."""
        self.dma.reset()
        self.external_memory.clear()

    def __str__(self) -> str:
        mode = "functional" if self.functional else "timing"
        return f"MorphoSysM1({self.architecture}, {mode})"
