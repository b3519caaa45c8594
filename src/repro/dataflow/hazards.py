"""The happens-before graph between DMA transfers and kernel runs.

:meth:`HappensBefore.build` numbers the steps of
:func:`repro.schedule.context_scheduler.issue_order` — the same issue
order the timing engine accounts — for one DMA serialization policy,
without computing a single cycle:

* every transfer gets a **channel position** — the single DMA channel
  serialises transfers in issue order, and completions are monotone in
  that order (``done(p) <= start(p+1)``), so position compare alone
  orders any two transfers;
* every transfer records the **visit whose compute end directly gates
  it** (its step's ``gate``): stores of visit ``v`` wait for
  ``compute_end(v)``, the preparation of visit ``w`` issued in the
  pipelined window waits for ``compute_end(w - 2)`` (for
  ``compute_end(w - 1)`` when ``w`` reuses that visit's set — never
  before the previous same-set visit's compute), serial-mode
  preparation for ``compute_end(w - 1)``;
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
from repro.schedule.context_scheduler import (
    RUN,
    STORE,
    DmaPolicy,
    issue_order,
)

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
        """Number the steps of :func:`issue_order` for *policy*."""
        program = ir.program
        visits = program.visits
        groups = ir.visit_nodes
        steps, loads_first_windows = issue_order(
            program.schedule,
            [(ops.visit.fb_set, ops.visit.cluster_index,
              len(ops.visit.iterations)) for ops in visits],
            policy,
        )

        channel_pos: Dict[int, int] = {}
        rel: List[int] = []
        compute_seq: Dict[int, int] = {}
        compute_visit: Dict[int, int] = {}
        lastprep = [-1] * len(visits)
        for kind, index, gate in steps:
            nodes = groups[index]
            if kind == RUN:
                for node in nodes.compute:
                    compute_visit[node] = index
                    compute_seq[node] = len(compute_seq)
                continue
            group = (nodes.context_loads, nodes.data_loads,
                     nodes.stores)[kind]
            for node in group:
                channel_pos[node] = len(rel)
                rel.append(gate)
            if group and kind != STORE:
                lastprep[index] = len(rel) - 1

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
            serial=not program.schedule.overlap_transfers,
            channel_pos=channel_pos,
            rel=rel,
            maxrel=maxrel,
            compute_seq=compute_seq,
            compute_visit=compute_visit,
            lastprep=lastprep,
            maxprep=maxprep,
            loads_first_windows=loads_first_windows,
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
