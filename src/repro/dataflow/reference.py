"""Reference linear-scan hazard structures (the equivalence oracle).

This is the original ``HAZ001`` interval map and ``HAZ002`` active-list
loop, kept verbatim after :mod:`repro.dataflow.passes` was rewritten
around :mod:`bisect`.  They are deliberately simple — every access
scans the whole segment list and re-sorts it, and every value is
tested against every live value — which makes them easy to audit and
therefore the oracle the differential checks drive against the
production passes (the ``hazards`` fuzz oracle and
``tests/dataflow/test_pass_equivalence.py``).

No product path uses this module; the production passes are
behaviourally identical and asymptotically faster.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dataflow import passes
from repro.dataflow.ir import ProgramIR, ValueLifetime
from repro.dataflow.passes import Emit

__all__ = [
    "ReferenceIntervalMap",
    "interference_mismatch",
    "interval_map_mismatch",
    "reference_check_interference",
]


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


def interval_map_mismatch(ir: ProgramIR) -> Optional[str]:
    """Replay every access of *ir* through both interval maps.

    Returns a description of the first access after which the
    production map's predecessors or segment list differ from the
    reference's, or ``None`` when they agree throughout.
    """
    maps: Dict[
        Tuple[str, int], Tuple[passes._IntervalMap, ReferenceIntervalMap]
    ] = {}
    for node in ir.nodes:
        for access in node.accesses:
            key = (access.space, access.index)
            pair = maps.get(key)
            if pair is None:
                pair = maps[key] = (
                    passes._IntervalMap(), ReferenceIntervalMap()
                )
            fast, reference = pair
            for extent in access.extents:
                args = (extent.start, extent.end, node.node_id, access.write)
                fast_preds = fast.access(*args)
                ref_preds = reference.access(*args)
                if fast_preds != ref_preds:
                    return (
                        f"node {node.node_id} {access.space}{access.index} "
                        f"{extent}: preds {fast_preds} != reference "
                        f"{ref_preds}"
                    )
                if fast._segments != reference._segments:
                    return (
                        f"node {node.node_id} {access.space}{access.index} "
                        f"{extent}: segment lists diverge"
                    )
    return None


def interference_mismatch(ir: ProgramIR) -> Optional[str]:
    """Compare the production HAZ002 sweep against the reference loop.

    Returns a description of the first differing emit (code, message
    and every keyword, in order), or ``None`` when they agree.
    """
    fast: List[Tuple[object, ...]] = []
    reference: List[Tuple[object, ...]] = []

    def recorder(into: List[Tuple[object, ...]]) -> Emit:
        def emit(*args: object, **kwargs: object) -> None:
            into.append((args, tuple(kwargs.items())))
        return emit

    passes.check_interference(ir, recorder(fast))
    reference_check_interference(ir, recorder(reference))
    if fast == reference:
        return None
    for index, (got, want) in enumerate(zip(fast, reference)):
        if got != want:
            return f"HAZ002 emit {index}: {got} != reference {want}"
    return (
        f"HAZ002 emitted {len(fast)} finding(s), reference "
        f"{len(reference)}"
    )
