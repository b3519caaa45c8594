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
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from repro.dataflow.ir import ProgramIR, expand_ranges
from repro.schedule.context_scheduler import (
    CTX,
    LOAD,
    RUN,
    STORE,
    DmaPolicy,
    issue_order,
)

__all__ = ["HappensBefore"]

#: Step kind (CTX, LOAD, RUN, STORE) -> its node group in a visit's
#: ``ProgramIR.group_starts`` (context loads, data loads, compute,
#: stores).
_GROUP_OF_STEP = np.zeros(4, np.int32)
_GROUP_OF_STEP[[CTX, LOAD, RUN, STORE]] = (0, 1, 2, 3)


@dataclass(eq=False)
class HappensBefore:
    """O(1)-query happens-before relation over one program's IR nodes.

    The relation is held in NumPy ``int32`` arrays; :attr:`channel_pos`,
    :attr:`compute_seq` and :attr:`compute_visit` view them as
    node-keyed dicts for readers.

    Attributes:
        policy: the DMA policy the issue order was built for.
        serial: True when the schedule does not overlap transfers
            (Basic Scheduler) — everything serialises per visit.
        transfer_nodes: per DMA channel position, its transfer node.
        rel: per channel position, the visit whose compute end directly
            gates the transfer (-1 when none).
        maxrel: prefix maximum of ``rel``.
        run_nodes: per RC-array sequence number, its compute node.
        run_visits: per RC-array sequence number, its visit index.
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
    transfer_nodes: np.ndarray
    rel: np.ndarray
    maxrel: np.ndarray
    run_nodes: np.ndarray
    run_visits: np.ndarray
    lastprep: np.ndarray
    maxprep: np.ndarray
    loads_first_windows: Tuple[int, ...]

    @classmethod
    def build(
        cls,
        ir: ProgramIR,
        policy: DmaPolicy = DmaPolicy.CONTEXTS_FIRST,
    ) -> "HappensBefore":
        """Number the steps of :func:`issue_order` for *policy*.

        Each visit's ``(fb_set, cluster_index, n_iters)`` comes from the
        IR's visit columns, so the program's ops are never read.
        """
        schedule = ir.program.schedule
        visits = len(ir.visit_index)
        steps, loads_first_windows = issue_order(
            schedule,
            list(zip(ir.visit_set.tolist(), ir.visit_cluster.tolist(),
                     ir.visit_iters.tolist())),
            policy,
        )
        kind, index, gate = np.array(steps, np.int32).reshape(-1, 3).T
        # Each step's node range: visit *index*'s group of its kind.
        at = 4 * index + _GROUP_OF_STEP.take(kind)
        starts = ir.group_starts
        lo, hi = starts.take(at), starts.take(at + 1)
        transfer = np.flatnonzero(kind != RUN)
        transfer_nodes, step = expand_ranges(
            lo.take(transfer), hi.take(transfer)
        )
        rel = gate.take(transfer).take(step)
        run = np.flatnonzero(kind == RUN)
        run_nodes, step = expand_ranges(lo.take(run), hi.take(run))

        # A visit's last preparation step with nodes ends at the highest
        # channel position among its preparation transfers.
        size = (hi - lo).take(transfer)
        last = np.cumsum(size, dtype=np.int32) - 1
        prep = np.flatnonzero((kind.take(transfer) != STORE) & (size > 0))
        lastprep = np.full(visits, -1, np.int32)
        np.maximum.at(lastprep, index.take(transfer).take(prep),
                      last.take(prep))

        # Gates and positions are >= -1, so the prefix maxima need no
        # -1 seed.
        return cls(
            policy=policy,
            serial=not schedule.overlap_transfers,
            transfer_nodes=transfer_nodes,
            rel=rel,
            maxrel=np.maximum.accumulate(rel),
            run_nodes=run_nodes,
            run_visits=index.take(run).take(step),
            lastprep=lastprep,
            maxprep=np.maximum.accumulate(lastprep),
            loads_first_windows=loads_first_windows,
        )

    # -- node-keyed views --------------------------------------------------

    @cached_property
    def channel_pos(self) -> Dict[int, int]:
        """Transfer node id -> DMA channel position."""
        nodes = self.transfer_nodes.tolist()
        return dict(zip(nodes, range(len(nodes))))

    @cached_property
    def compute_seq(self) -> Dict[int, int]:
        """Compute node id -> global RC-array sequence."""
        nodes = self.run_nodes.tolist()
        return dict(zip(nodes, range(len(nodes))))

    @cached_property
    def compute_visit(self) -> Dict[int, int]:
        """Compute node id -> visit index."""
        return dict(zip(self.run_nodes.tolist(), self.run_visits.tolist()))

    @cached_property
    def _ranks(
        self,
    ) -> Tuple[List[int], List[int], List[int], List[int], List[int]]:
        """Per node: channel position (-1 for a kernel run), RC-array
        sequence and visit (-1 for a transfer); and ``maxprep``, plus
        ``maxrel`` — as lists, for scalar queries."""
        nodes = len(self.transfer_nodes) + len(self.run_nodes)
        position = np.full(nodes, -1, np.int32)
        position[self.transfer_nodes] = np.arange(
            len(self.transfer_nodes), dtype=np.int32
        )
        sequence = np.full(nodes, -1, np.int32)
        sequence[self.run_nodes] = np.arange(
            len(self.run_nodes), dtype=np.int32
        )
        visit = np.full(nodes, -1, np.int32)
        visit[self.run_nodes] = self.run_visits
        return (position.tolist(), sequence.tolist(), visit.tolist(),
                self.maxprep.tolist(), self.maxrel.tolist())

    # -- queries -----------------------------------------------------------

    def happens_before(self, a: int, b: int) -> bool:
        """True when every legal execution finishes *a* before *b* starts."""
        position, sequence, visit, maxprep, maxrel = self._ranks
        pa = position[a]
        pb = position[b]
        if pa >= 0:
            if pb >= 0:
                return pa < pb
            return pa <= maxprep[visit[b]]
        if pb < 0:
            return sequence[a] < sequence[b]
        return visit[a] <= maxrel[pb]

    def ordered(self, a: int, b: int) -> bool:
        """True when the two nodes are ordered either way."""
        return self.happens_before(a, b) or self.happens_before(b, a)
