"""MorphoSys M1 architecture model.

The target system of the paper (Figure 1): an 8x8 array of
reconfigurable cells (RC array) configured by 32-bit context words held
in a context memory (CM), a dual-set frame buffer (FB) acting as the RC
array's data cache, a single DMA channel bridging external memory to
the FB *or* the CM (simultaneous data and context transfers are not
possible), and a TinyRISC control processor.

The structural constraints that shape the scheduling problem — two FB
sets enabling compute/transfer overlap, one shared DMA channel, finite
CM — are capacities and timing in :class:`Architecture`.  The machine
the simulator drives holds only external memory; every simulation run
times its own :class:`DmaChannel`, one block per visit group, so no
channel state is shared between runs.  FB and CM residency is checked
statically (the program verifier and the hazard IR); the allocator
(:mod:`repro.alloc`) places objects in each set as
:class:`~repro.arch.frame_buffer.Extent` ranges.  The RC array is
modelled functionally (SIMD macro-operations over NumPy arrays) so
kernels can actually execute and be checked against golden references.
"""

from repro.arch.dma import DmaChannel, TransferKind
from repro.arch.external_memory import ExternalMemory
from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture, TimingModel
from repro.arch.rc_array import RCArray

__all__ = [
    "Architecture",
    "DmaChannel",
    "ExternalMemory",
    "MorphoSysM1",
    "RCArray",
    "TimingModel",
    "TransferKind",
]
