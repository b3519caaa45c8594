"""Reference hazard passes (the equivalence oracle).

:func:`reference_check_races` is the original ``HAZ001`` loop: every
access row goes through a linear-scan :class:`ReferenceIntervalMap`
per address slot, and every predecessor through one
:meth:`~repro.dataflow.hazards.HappensBefore.happens_before` query.
:func:`reference_check_interference` is the original ``HAZ002``
active-list loop.  They are deliberately simple — every access scans
the whole segment list and re-sorts it, and every value is tested
against every live value — which makes them easy to audit and
therefore the oracle the differential checks drive against the array
sweeps of :mod:`repro.dataflow.passes` (:func:`race_mismatch` and
:func:`interference_mismatch`, called by the ``hazards`` fuzz oracle
and ``tests/dataflow/test_pass_equivalence.py``).

:func:`lowering_mismatch` holds the templated lowering of
:func:`~repro.dataflow.ir.lower_program` to the op walk of
:func:`~repro.dataflow.opwalk.lower_ops`, column by column.

No product path uses this module; the production passes emit the same
findings, byte for byte, and are asymptotically faster.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codegen.program import Program
from repro.dataflow import passes
from repro.dataflow.hazards import HappensBefore
from repro.dataflow.ir import (
    COMPUTE,
    KINDS,
    ProgramIR,
    ValueLifetime,
    lower_program,
)
from repro.dataflow.opwalk import lower_ops
from repro.dataflow.passes import Emit

__all__ = [
    "ReferenceIntervalMap",
    "interference_mismatch",
    "ir_mismatch",
    "lowering_mismatch",
    "race_mismatch",
    "reference_check_interference",
    "reference_check_races",
]

_RUN = KINDS.index(COMPUTE)


class ReferenceIntervalMap:
    """Last-accessor state per word over one address space.

    Segments are disjoint, sorted ``[start, end)`` ranges, each holding
    the last writing node and the reading nodes since that write.
    """

    __slots__ = ("_segments",)

    def __init__(self) -> None:
        # (start, end, writer, readers)
        self._segments: List[Tuple[int, int, Optional[int], Tuple[int, ...]]] = []

    def access(
        self, start: int, end: int, node: int, write: bool
    ) -> Dict[int, int]:
        """Record an access; return predecessor nodes -> words shared."""
        preds: Dict[int, int] = {}
        kept: List[Tuple[int, int, Optional[int], Tuple[int, ...]]] = []
        for seg_start, seg_end, writer, readers in self._segments:
            lo = max(start, seg_start)
            hi = min(end, seg_end)
            if lo >= hi:
                kept.append((seg_start, seg_end, writer, readers))
                continue
            words = hi - lo
            if writer is not None and writer != node:
                preds[writer] = preds.get(writer, 0) + words
            if write:
                for reader in readers:
                    if reader != node:
                        preds[reader] = preds.get(reader, 0) + words
            # Non-overlapping remnants keep their old state.
            if seg_start < lo:
                kept.append((seg_start, lo, writer, readers))
            if hi < seg_end:
                kept.append((hi, seg_end, writer, readers))
            if not write:
                kept.append((lo, hi, writer, readers + (node,)))
        if write:
            kept.append((start, end, node, ()))
        else:
            # Reads over previously untouched words.
            covered = sorted(
                (max(start, s), min(end, e))
                for s, e, _, _ in self._segments
                if max(start, s) < min(end, e)
            )
            cursor = start
            for lo, hi in covered:
                if cursor < lo:
                    kept.append((cursor, lo, None, (node,)))
                cursor = max(cursor, hi)
            if cursor < end:
                kept.append((cursor, end, None, (node,)))
        kept.sort(key=lambda seg: seg[0])
        self._segments = kept
        return preds


def reference_check_races(
    ir: ProgramIR, hb: HappensBefore, emit: Emit
) -> None:
    """HAZ001: program order vs. happens-before over shared words.

    Every access row goes through one :class:`ReferenceIntervalMap` per
    address slot, and every predecessor it returns through one
    :meth:`HappensBefore.happens_before` query.
    """
    kind = np.asarray(ir.node_kind).tolist()
    maps: Dict[int, ReferenceIntervalMap] = {}
    # (pred, succ) -> [slot, words, reversed]
    conflicts: Dict[Tuple[int, int], List[int]] = {}
    for node, slot, start, end, write in zip(*(
        np.asarray(column).tolist() for column in (
            ir.acc_node, ir.acc_slot, ir.acc_start, ir.acc_end, ir.acc_write
        )
    )):
        space = maps.get(slot)
        if space is None:
            space = maps[slot] = ReferenceIntervalMap()
        computing = kind[node] == _RUN
        for pred, words in space.access(start, end, node, write).items():
            if computing and kind[pred] == _RUN:
                continue  # one RC array: always ordered
            if hb.happens_before(pred, node):
                continue
            entry = conflicts.get((pred, node))
            if entry is None:
                entry = conflicts[(pred, node)] = [
                    slot, 0, hb.happens_before(node, pred),
                ]
            entry[1] += words
    for (pred, succ), (slot, words, reverse) in sorted(conflicts.items()):
        space, index = ("fb", "cm")[slot & 1], slot >> 1
        label = "CM block" if space == "cm" else "FB set"
        how = "is overtaken by" if reverse else "is unordered against"
        first, second = ir.describe(pred), ir.describe(succ)
        emit(
            "HAZ001",
            f"{first} {how} {second} on "
            f"{words} shared word(s) of {label} {index} "
            f"under policy {hb.policy.name}",
            location=f"visit {int(ir.node_visit[succ])}",
            cost_words=words,
            policy=hb.policy.name,
            first=first,
            second=second,
            space=f"{space}{index}",
            reversed_order=bool(reverse),
        )


def reference_check_interference(ir: ProgramIR, emit: Emit) -> None:
    """HAZ002: simultaneously-live values never share FB words."""
    if not ir.has_placement:
        return
    for fb_set in (0, 1):
        placed = [
            value for value in ir.values
            if value.fb_set == fb_set and value.extents
        ]
        placed.sort(key=lambda value: value.def_pos)
        active: List[ValueLifetime] = []
        for value in placed:
            active = [
                other for other in active
                if other.release_pos > value.def_pos
            ]
            for other in active:
                overlap = sum(
                    min(a.end, b.end) - max(a.start, b.start)
                    for a in value.extents
                    for b in other.extents
                    if a.overlaps(b)
                )
                if overlap:
                    emit(
                        "HAZ002",
                        f"{value.name}#{value.instance} and "
                        f"{other.name}#{other.instance} are live "
                        f"simultaneously on {overlap} shared word(s) of "
                        f"FB set {fb_set}",
                        location=f"visit {value.def_visit}",
                        cost_words=overlap,
                        first=f"{other.name}#{other.instance}",
                        second=f"{value.name}#{value.instance}",
                        fb_set=fb_set,
                    )
            active.append(value)


def _emit_mismatch(
    code: str,
    fast: Callable[[Emit], None],
    reference: Callable[[Emit], None],
) -> Optional[str]:
    """The first emit where *fast* and *reference* differ (code, message
    and every keyword, in order), or ``None`` when they agree."""
    got: List[Tuple[object, ...]] = []
    want: List[Tuple[object, ...]] = []

    def recorder(into: List[Tuple[object, ...]]) -> Emit:
        def emit(*args: object, **kwargs: object) -> None:
            into.append((args, tuple(kwargs.items())))
        return emit

    fast(recorder(got))
    reference(recorder(want))
    if got == want:
        return None
    for index, (mine, theirs) in enumerate(zip(got, want)):
        if mine != theirs:
            return f"{code} emit {index}: {mine} != reference {theirs}"
    return (
        f"{code} emitted {len(got)} finding(s), reference "
        f"{len(want)}"
    )


def race_mismatch(ir: ProgramIR, hb: HappensBefore) -> Optional[str]:
    """Compare the production HAZ001 pass against the reference loop.

    Returns a description of the first differing emit (code, message
    and every keyword, in order), or ``None`` when they agree.
    """
    return _emit_mismatch(
        "HAZ001",
        lambda emit: passes.check_races(ir, hb, emit),
        lambda emit: reference_check_races(ir, hb, emit),
    )


def interference_mismatch(ir: ProgramIR) -> Optional[str]:
    """Compare the production HAZ002 sweep against the reference loop.

    Returns a description of the first differing emit (code, message
    and every keyword, in order), or ``None`` when they agree.
    """
    return _emit_mismatch(
        "HAZ002",
        lambda emit: passes.check_interference(ir, emit),
        lambda emit: reference_check_interference(ir, emit),
    )


def ir_mismatch(got: ProgramIR, want: ProgramIR) -> Optional[str]:
    """The first difference between two lowerings of one program — a
    column's type, length or first differing entry, the name or
    placement table, or a capacity — or ``None`` when they are equal."""
    for name in ProgramIR.COLUMNS:
        mine, theirs = getattr(got, name), getattr(want, name)
        if mine.dtype != theirs.dtype or mine.shape != theirs.shape:
            return (f"{name}: {mine.dtype}{list(mine.shape)} != "
                    f"{theirs.dtype}{list(theirs.shape)}")
        differ = np.flatnonzero(mine != theirs)
        if differ.size:
            at = int(differ[0])
            return (f"{name}[{at}]: {mine[at].item()} != "
                    f"{theirs[at].item()}")
    for name in ("names", "place_extents", "has_placement", "fb_capacity",
                 "cm_block_capacity"):
        if getattr(got, name) != getattr(want, name):
            return f"{name} differs"
    return None


def lowering_mismatch(
    program: Program, allocations: Optional[Sequence[object]] = None
) -> Optional[str]:
    """Compare :func:`lower_program` of *program* against the op walk of
    its materialised ops (:func:`lower_ops`), by :func:`ir_mismatch`.

    For a templated program the first is the block-by-block lowering;
    the walk materialises the program's ops.
    """
    return ir_mismatch(
        lower_program(program, allocations), lower_ops(program, allocations)
    )
