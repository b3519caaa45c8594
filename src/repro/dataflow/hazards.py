"""The happens-before graph between DMA transfers and kernel runs.

:meth:`HappensBefore.build` replays the *issue order* of the reference
engine (:meth:`repro.sim.engine.Simulator._execute`) for one DMA
serialization policy, without computing a single cycle:

* every transfer gets a **channel position** — the single DMA channel
  serialises transfers in issue order, and completions are monotone in
  that order (``done(p) <= start(p+1)``), so position compare alone
  orders any two transfers;
* every transfer records the **visit whose compute end directly gates
  it** (the ``earliest`` / ``set_free`` argument the engine passes to
  ``dma.request``): stores of visit ``v`` wait for ``compute_end(v)``,
  the preparation of visit ``w`` issued in the pipelined window waits
  for ``compute_end(w - 2)`` (its loads additionally for the previous
  same-set visit's compute), serial-mode preparation for
  ``compute_end(w - 1)``;
* kernel runs are totally ordered (one RC array), and a visit's compute
  starts only after its preparation finished.

From those facts two prefix maxima answer every mixed query in O(1):

* ``maxprep[v]`` — the highest channel position among preparation
  transfers of visits ``<= v``; any transfer at a position ``<=``
  that completed before visit ``v``'s compute started;
* ``maxrel[p]`` — the highest gating visit among transfers at
  positions ``<= p``; any compute of a visit ``<=`` that ended before
  the transfer at position ``p`` started.

The graph is *guaranteed* ordering only: ``happens_before(a, b)`` is
True when every legal execution finishes ``a`` before ``b`` starts —
exactly the relation the race pass needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.dataflow.ir import ProgramIR
from repro.schedule.context_scheduler import DmaPolicy, loads_may_precede_stores

__all__ = ["HappensBefore"]


@dataclass
class HappensBefore:
    """O(1)-query happens-before relation over one program's IR nodes.

    Attributes:
        policy: the DMA policy the issue order was built for.
        serial: True when the schedule does not overlap transfers
            (Basic Scheduler) — everything serialises per visit.
        channel_pos: transfer node id -> DMA channel position.
        rel: per channel position, the visit whose compute end directly
            gates the transfer (-1 when none).
        maxrel: prefix maximum of ``rel``.
        compute_seq: compute node id -> global RC-array sequence.
        compute_visit: compute node id -> visit index.
        lastprep: per visit, the highest channel position among its
            preparation transfers (-1 when it has none).
        maxprep: prefix maximum of ``lastprep``.
        loads_first_windows: pipelined window indices (the loop index
            ``i``: departing visit ``i - 1``, arriving visit ``i + 1``)
            where the policy issued the arriving loads *before* the
            departing stores.
    """

    policy: DmaPolicy
    serial: bool
    channel_pos: Dict[int, int]
    rel: List[int]
    maxrel: List[int]
    compute_seq: Dict[int, int]
    compute_visit: Dict[int, int]
    lastprep: List[int]
    maxprep: List[int]
    loads_first_windows: Tuple[int, ...]

    @classmethod
    def build(
        cls,
        ir: ProgramIR,
        policy: DmaPolicy = DmaPolicy.CONTEXTS_FIRST,
    ) -> "HappensBefore":
        """Mirror the reference engine's issue order for *policy*."""
        program = ir.program
        schedule = program.schedule
        visits = program.visits
        count = len(visits)
        groups = ir.visit_nodes

        channel_pos: Dict[int, int] = {}
        rel: List[int] = []
        compute_seq: Dict[int, int] = {}
        compute_visit: Dict[int, int] = {}
        lastprep = [-1] * count
        stores_issued = [False] * count
        loads_first_windows: List[int] = []

        fb_of = [ops.visit.fb_set for ops in visits]

        def prev_same(index: int) -> int:
            fb_set = fb_of[index]
            for prev in range(index - 1, -1, -1):
                if fb_of[prev] == fb_set:
                    return prev
            return -1

        def emit(node_id: int, gate: int) -> None:
            channel_pos[node_id] = len(rel)
            rel.append(gate)

        loads_before_contexts = policy is DmaPolicy.LOADS_FIRST

        def emit_prep(index: int, ctx_gate: int, load_gate: int) -> None:
            ctx = [(node, ctx_gate) for node in groups[index].context_loads]
            loads = [(node, load_gate) for node in groups[index].data_loads]
            ordered = loads + ctx if loads_before_contexts else ctx + loads
            for node, gate in ordered:
                emit(node, gate)
            if ordered:
                lastprep[index] = max(lastprep[index],
                                      channel_pos[ordered[-1][0]])

        def emit_stores(index: int) -> None:
            if index < 0 or stores_issued[index]:
                return
            stores_issued[index] = True
            for node in groups[index].stores:
                emit(node, index)

        pipelined = schedule.overlap_transfers
        if pipelined and count:
            emit_prep(0, -1, prev_same(0))
        seq = 0
        for index in range(count):
            if not pipelined:
                emit_stores(index - 1)
                emit_prep(index, index - 1,
                          max(index - 1, prev_same(index)))
            for node in groups[index].compute:
                compute_seq[node] = seq
                compute_visit[node] = index
                seq += 1
            if not pipelined:
                continue
            if index + 1 < count:
                same_set_next = fb_of[index + 1] == fb_of[index]
                loads_first = policy is DmaPolicy.LOADS_FIRST
                if policy is DmaPolicy.ADAPTIVE and index > 0:
                    loads_first = loads_may_precede_stores(
                        schedule,
                        visits[index - 1].visit.cluster_index,
                        visits[index + 1].visit.cluster_index,
                        len(visits[index - 1].visit.iterations),
                    )
                if same_set_next:
                    emit_stores(index - 1)
                    emit_stores(index)
                    emit_prep(index + 1, index, index)
                elif not loads_first:
                    emit_stores(index - 1)
                    emit_prep(index + 1, index - 1,
                              max(index - 1, prev_same(index + 1)))
                else:
                    if index > 0:
                        loads_first_windows.append(index)
                    emit_prep(index + 1, index - 1,
                              max(index - 1, prev_same(index + 1)))
                    emit_stores(index - 1)
            else:
                emit_stores(index - 1)
        if count:
            emit_stores(count - 1)

        maxrel: List[int] = []
        best = -1
        for gate in rel:
            best = max(best, gate)
            maxrel.append(best)
        maxprep: List[int] = []
        best = -1
        for pos in lastprep:
            best = max(best, pos)
            maxprep.append(best)

        return cls(
            policy=policy,
            serial=not pipelined,
            channel_pos=channel_pos,
            rel=rel,
            maxrel=maxrel,
            compute_seq=compute_seq,
            compute_visit=compute_visit,
            lastprep=lastprep,
            maxprep=maxprep,
            loads_first_windows=tuple(loads_first_windows),
        )

    # -- queries -----------------------------------------------------------

    def happens_before(self, a: int, b: int) -> bool:
        """True when every legal execution finishes *a* before *b* starts."""
        ta = a in self.channel_pos
        tb = b in self.channel_pos
        if ta and tb:
            return self.channel_pos[a] < self.channel_pos[b]
        if not ta and not tb:
            return self.compute_seq[a] < self.compute_seq[b]
        if ta:
            return self.channel_pos[a] <= self.maxprep[self.compute_visit[b]]
        return self.compute_visit[a] <= self.maxrel[self.channel_pos[b]]

    def ordered(self, a: int, b: int) -> bool:
        """True when the two nodes are ordered either way."""
        return self.happens_before(a, b) or self.happens_before(b, a)
