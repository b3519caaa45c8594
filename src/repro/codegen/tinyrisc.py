"""TinyRISC control-program emission.

"MorphoSys operation is controlled by a RISC processor" (paper,
section 2).  In the real system the TinyRISC core issues the special
instructions that start DMA bursts (``DMAC``: external memory <-> FB or
CM), select the active context block and launch RC-array execution
(``CBCAST``-style broadcast of a context).  This module lowers an
op-level :class:`~repro.codegen.program.Program` into that control
stream: a linear list of :class:`ControlInstruction` with symbolic
external-memory addresses resolved by a tiny linker, round loops
expressed explicitly, and an assembly-like textual rendering.

The emitted program is *checkable*: :func:`lower_to_tinyrisc` also
returns per-instruction word counts that must (and are tested to)
match the op-level program's traffic exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.codegen.program import Program
from repro.errors import CodegenError

__all__ = [
    "ControlOp",
    "ControlInstruction",
    "TinyRiscProgram",
    "TinyRiscInterpreter",
    "InterpreterStats",
    "lower_to_tinyrisc",
]


class ControlOp(enum.Enum):
    """TinyRISC special instructions (modelled subset)."""

    #: DMA burst: external memory -> frame-buffer set.
    LDFB = "ldfb"
    #: DMA burst: frame-buffer set -> external memory.
    STFB = "stfb"
    #: DMA burst: external memory -> context-memory block.
    LDCTXT = "ldctxt"
    #: Launch kernel execution from a context-memory block.
    EXEC = "exec"
    #: Wait until all issued DMA bursts completed (synchronisation).
    DSYNC = "dsync"
    #: Wait until RC-array execution completed.
    ESYNC = "esync"
    #: Comment/label pseudo-instruction for readability.
    LABEL = "label"


@dataclass(frozen=True)
class ControlInstruction:
    """One TinyRISC special instruction.

    Attributes:
        op: the instruction.
        target: object or kernel name the instruction refers to.
        address: resolved external-memory word address (transfers only).
        words: transfer size in words (transfers only).
        fb_set: frame-buffer set operand (FB transfers / EXEC).
        cm_block: context-memory block operand (LDCTXT / EXEC).
        iteration: global iteration index (data transfers / EXEC).
        comment: free-form annotation.
    """

    op: ControlOp
    target: str = ""
    address: Optional[int] = None
    words: int = 0
    fb_set: Optional[int] = None
    cm_block: Optional[int] = None
    iteration: Optional[int] = None
    comment: str = ""

    def render(self) -> str:
        """Assembly-like textual form."""
        if self.op is ControlOp.LABEL:
            return f"{self.target}:"
        parts = [self.op.value]
        if self.op in (ControlOp.LDFB, ControlOp.STFB):
            parts.append(f"fb{self.fb_set}")
            parts.append(f"0x{self.address:06x}")
            parts.append(f"#{self.words}")
            parts.append(f"; {self.target}[{self.iteration}]")
        elif self.op is ControlOp.LDCTXT:
            parts.append(f"cm{self.cm_block}")
            parts.append(f"0x{self.address:06x}")
            parts.append(f"#{self.words}")
            parts.append(f"; {self.target}")
        elif self.op is ControlOp.EXEC:
            parts.append(f"cm{self.cm_block}")
            parts.append(f"fb{self.fb_set}")
            parts.append(f"; {self.target}[{self.iteration}]")
        if self.comment:
            parts.append(f"; {self.comment}")
        return "    " + " ".join(parts)


@dataclass(frozen=True)
class TinyRiscProgram:
    """A lowered control program plus its memory map."""

    instructions: Tuple[ControlInstruction, ...]
    #: (object name, iteration) -> external word address.
    data_map: Dict[Tuple[str, int], int]
    #: kernel name -> external address of its context words.
    context_map: Dict[str, int]

    def render(self) -> str:
        """Full assembly listing."""
        return "\n".join(ins.render() for ins in self.instructions)

    def count(self, op: ControlOp) -> int:
        """Number of instructions of one kind."""
        return sum(1 for ins in self.instructions if ins.op is op)

    @property
    def data_words_loaded(self) -> int:
        return sum(
            ins.words for ins in self.instructions
            if ins.op is ControlOp.LDFB
        )

    @property
    def data_words_stored(self) -> int:
        return sum(
            ins.words for ins in self.instructions
            if ins.op is ControlOp.STFB
        )

    @property
    def context_words_loaded(self) -> int:
        return sum(
            ins.words for ins in self.instructions
            if ins.op is ControlOp.LDCTXT
        )


def _build_memory_map(program: Program):
    """Assign external-memory word addresses: contexts first, then all
    data/result instances in name order (deterministic layout)."""
    application = program.schedule.application
    dataflow = program.schedule.dataflow
    cursor = 0
    context_map: Dict[str, int] = {}
    for kernel in application.kernels:
        context_map[kernel.name] = cursor
        cursor += kernel.context_words
    data_map: Dict[Tuple[str, int], int] = {}
    total = application.total_iterations
    for name in sorted(application.objects):
        info = dataflow[name]
        instances = 1 if info.invariant else total
        for iteration in range(instances):
            data_map[(name, iteration)] = cursor
            cursor += info.size
    return data_map, context_map


def lower_to_tinyrisc(program: Program) -> TinyRiscProgram:
    """Lower an op-level program to the TinyRISC control stream.

    Per visit: a label, the context loads, the data loads, one DSYNC
    (transfers must land before compute), the kernel launches, one
    ESYNC, then the stores.  The simulator's overlap comes from the
    hardware executing DMA bursts asynchronously; the control stream
    only encodes ordering constraints, which is why the sync points sit
    where the verifier's presence checks are.
    """
    data_map, context_map = _build_memory_map(program)
    instructions: List[ControlInstruction] = []
    for ops in program.visits:
        visit = ops.visit
        instructions.append(
            ControlInstruction(
                op=ControlOp.LABEL,
                target=(
                    f"visit_{visit.index}_round{visit.round_index}"
                    f"_cl{visit.cluster_index + 1}"
                ),
            )
        )
        for load in ops.context_loads:
            instructions.append(
                ControlInstruction(
                    op=ControlOp.LDCTXT,
                    target=load.kernel,
                    address=context_map[load.kernel],
                    words=load.words,
                    cm_block=load.cm_block,
                )
            )
        for load in ops.data_loads:
            key = (load.name, load.iteration)
            if key not in data_map:
                raise CodegenError(
                    f"no external address for {load.name}#{load.iteration}"
                )
            instructions.append(
                ControlInstruction(
                    op=ControlOp.LDFB,
                    target=load.name,
                    address=data_map[key],
                    words=load.words,
                    fb_set=load.fb_set,
                    iteration=load.iteration,
                )
            )
        instructions.append(ControlInstruction(op=ControlOp.DSYNC))
        for run in ops.compute:
            instructions.append(
                ControlInstruction(
                    op=ControlOp.EXEC,
                    target=run.kernel,
                    fb_set=run.fb_set,
                    cm_block=visit.cm_block,
                    iteration=run.iteration,
                )
            )
        instructions.append(ControlInstruction(op=ControlOp.ESYNC))
        for store in ops.stores:
            key = (store.name, store.iteration)
            if key not in data_map:
                raise CodegenError(
                    f"no external address for {store.name}#{store.iteration}"
                )
            instructions.append(
                ControlInstruction(
                    op=ControlOp.STFB,
                    target=store.name,
                    address=data_map[key],
                    words=store.words,
                    fb_set=store.fb_set,
                    iteration=store.iteration,
                )
            )
    return TinyRiscProgram(
        instructions=tuple(instructions),
        data_map=data_map,
        context_map=context_map,
    )


@dataclass
class InterpreterStats:
    """Traffic observed while interpreting a control program."""

    instructions_executed: int = 0
    data_words_loaded: int = 0
    data_words_stored: int = 0
    context_words_loaded: int = 0
    kernels_launched: int = 0


class TinyRiscInterpreter:
    """Executes a :class:`TinyRiscProgram` against an abstract machine
    state: two CM blocks and an external-memory address map.

    The interpreter enforces the control-stream contract independently
    of the op-level verifier:

    * ``EXEC`` requires the named kernel's contexts resident in the
      named CM block (loaded by an earlier ``LDCTXT`` and not displaced);
    * ``LDCTXT`` displaces the block's previous contents when a new
      cluster's contexts arrive, and must not overflow the block;
    * ``LDFB``/``STFB`` addresses must match the program's memory map
      (no wild transfers), and sizes must match the mapped object.

    Tests cross-check the interpreter's traffic totals against the
    event-driven simulator's — the lowering loses nothing.
    """

    def __init__(self, program: TinyRiscProgram, *, block_words: int = 0):
        self.program = program
        self.block_words = block_words
        self._address_to_data = {
            address: key for key, address in program.data_map.items()
        }
        self._address_to_context = {
            address: kernel for kernel, address in program.context_map.items()
        }

    def run(self) -> InterpreterStats:
        """Interpret the whole program; raise :class:`CodegenError` on
        any contract violation."""
        stats = InterpreterStats()
        block_kernels = [dict(), dict()]  # kernel -> words, per block
        current_label = "<start>"
        refilled_this_visit = [False, False]
        for instruction in self.program.instructions:
            stats.instructions_executed += 1
            if instruction.op is ControlOp.LABEL:
                current_label = instruction.target
                refilled_this_visit = [False, False]
                continue
            if instruction.op is ControlOp.LDCTXT:
                kernel = self._address_to_context.get(instruction.address)
                if kernel != instruction.target:
                    raise CodegenError(
                        f"{current_label}: LDCTXT address "
                        f"0x{instruction.address:x} does not map to "
                        f"{instruction.target!r}"
                    )
                block = instruction.cm_block
                # A visit refills its block wholesale: the first LDCTXT
                # of a visit evicts the block's previous cluster (the
                # whole-block reconfiguration model shared with the
                # program verifier and the hazard IR's CM accesses).
                if not refilled_this_visit[block]:
                    block_kernels[block] = {}
                    refilled_this_visit[block] = True
                block_kernels[block][instruction.target] = instruction.words
                if self.block_words and sum(
                    block_kernels[block].values()
                ) > self.block_words:
                    raise CodegenError(
                        f"{current_label}: CM block {block} overflows"
                    )
                stats.context_words_loaded += instruction.words
                continue
            if instruction.op is ControlOp.EXEC:
                if instruction.target not in block_kernels[instruction.cm_block]:
                    raise CodegenError(
                        f"{current_label}: EXEC {instruction.target!r} "
                        f"without contexts in cm{instruction.cm_block}"
                    )
                stats.kernels_launched += 1
                continue
            if instruction.op in (ControlOp.LDFB, ControlOp.STFB):
                key = self._address_to_data.get(instruction.address)
                if key is None or key[0] != instruction.target:
                    raise CodegenError(
                        f"{current_label}: {instruction.op.value} address "
                        f"0x{instruction.address:x} does not map to "
                        f"{instruction.target!r}"
                    )
                if instruction.op is ControlOp.LDFB:
                    stats.data_words_loaded += instruction.words
                else:
                    stats.data_words_stored += instruction.words
                continue
            # DSYNC / ESYNC are pure ordering barriers here.
        return stats
