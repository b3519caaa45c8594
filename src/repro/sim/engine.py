"""The event-driven execution engine.

Timing model (paper section 2's structural constraints):

* one **DMA channel** serialises every transfer — data loads, result
  stores and context loads never overlap each other;
* a visit's computation starts when (a) the RC array is free and (b) the
  visit's *preparation* (context loads + data loads) has finished;
* preparation of visit ``v + 1`` overlaps visit ``v``'s computation
  **when they use different FB sets** (the normal alternating case);
  when consecutive visits share a set (odd cluster counts at round
  boundaries) the loads additionally wait for the set to drain —
  compute finished and outgoing stores issued first;
* stores of visit ``v`` are issued during visit ``v + 1`` (the set is
  idle then) and precede the loads of the next same-set visit, so the
  space freed by departing results is available to arriving data (the
  ordering assumed by the ``DS(C_c) <= FBS`` feasibility check);
* within one overlap window the :class:`DmaPolicy` orders the work
  (default: stores of ``v - 1``, then contexts of ``v + 1``, then its
  loads).

The order itself is :func:`repro.schedule.context_scheduler.issue_order`
— the same steps the happens-before graph of the hazard passes
numbers; the engine only times them.  The timing loop reads one row
per visit (cluster, set, iteration count, compute cycles and its
context/load/store transfer groups).  A
template-compiled program yields its rows from the per-cluster codegen
templates, so an untraced accounting run never stamps the visit ops.
Every run builds its own :class:`~repro.arch.dma.DmaChannel`, and each
visit's context, load and store group occupies it as one contiguous
block (:meth:`~repro.arch.dma.DmaChannel.request_block`) — one
timeline, whether or not the trace is on.  With the per-transfer trace
on, the group's transfers are then stamped back to back from the
block's start, one per op under its own label; a group whose ops do
not end exactly at the block's finish raises :class:`SimulationError`,
so every traced run cross-checks the timing rows against the ops.
``tests/sim/test_trace_equivalence.py`` and the ``simengine`` fuzz
oracle compare traced against untraced runs, and templated against
materialised programs.

Functional mode additionally moves real values through the machine's
external memory and checks every final output against the reference
execution.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.arch.dma import DmaChannel, DmaTransfer, TransferKind
from repro.arch.machine import MorphoSysM1
from repro.arch.params import TimingModel
from repro.codegen.program import Program
from repro.codegen.templated import ClusterTemplate, TemplateVisits
from repro.codegen.verifier import verify_program
from repro.errors import SimulationError
from repro.schedule.context_scheduler import (
    CTX,
    LOAD,
    RUN,
    STORE,
    DmaPolicy,
    issue_order,
)
from repro.sim.functional import (
    KernelImpl,
    build_impls,
    populate_external_inputs,
    reference_outputs,
)
from repro.sim.report import SimulationReport, VisitTiming

__all__ = ["Simulator"]

#: The channel's transfer kind of each :func:`issue_order` step kind.
_TRANSFER_KINDS = {
    CTX: TransferKind.CONTEXT_LOAD,
    LOAD: TransferKind.DATA_LOAD,
    STORE: TransferKind.DATA_STORE,
}


class Simulator:
    """Executes a :class:`Program` on a :class:`MorphoSysM1`.

    Args:
        machine: the machine instance.  Each run times a fresh DMA
            channel, so one simulator, or several, may run any number
            of times on one machine; a functional run reads and writes
            its external memory.
        dma_policy: ordering of DMA work inside overlap windows.
        verify: run the static program verifier before executing.
        trace: record the per-transfer DMA trace (and its labels) in
            the report.  Aggregate statistics are exact either way;
            bulk analysis drivers turn tracing off for speed.
    """

    def __init__(
        self,
        machine: MorphoSysM1,
        *,
        dma_policy: DmaPolicy = DmaPolicy.CONTEXTS_FIRST,
        verify: bool = True,
        trace: bool = True,
    ):
        self.machine = machine
        self.dma_policy = dma_policy
        self.verify = verify
        self.trace = trace
        #: After a functional run: total words brought in by data loads,
        #: and the subset never read by any kernel before eviction or
        #: program end.  ``None`` until a functional run completes.
        #: These are the dynamic counterparts of the static ``DFA001``
        #: pass (``repro.dataflow``) — property-tested to agree.
        self.functional_loaded_words: Optional[int] = None
        self.functional_dead_words: Optional[int] = None
        self._load_watch: Dict[tuple, int] = {}
        self._dead_words = 0
        self._loaded_words = 0

    # -- public API --------------------------------------------------------

    def run(
        self,
        program: Program,
        *,
        functional: bool = False,
        kernel_impls: Optional[Mapping[str, KernelImpl]] = None,
        seed: int = 2002,
    ) -> SimulationReport:
        """Simulate *program* and return the :class:`SimulationReport`.

        Args:
            program: the lowered schedule.
            functional: move and compute real values and check the
                final outputs against a reference execution; leave False
                for timing-only runs (much lighter).
            kernel_impls: per-kernel implementations for functional
                mode; kernels not listed get surrogates.
            seed: seed for auto-populated external inputs (only used if
                the machine's external memory is empty).
        """
        if self.verify:
            verify_program(program)

        application = program.schedule.application
        impls: Dict[str, KernelImpl] = {}
        golden = {}
        if functional:
            impls = build_impls(application, kernel_impls or {})
            if not any(
                self.machine.external_memory.exists(name, 0)
                for name in application.external_inputs()
            ):
                populate_external_inputs(
                    application, self.machine.external_memory, seed=seed
                )
            golden = reference_outputs(
                application, self.machine.external_memory, impls
            )

        if functional:
            self._load_watch = {}
            self._dead_words = 0
            self._loaded_words = 0
        dma = DmaChannel()
        transfers: List[DmaTransfer] = []
        timings = self._execute(program, functional, impls, dma, transfers)

        verified: Optional[bool] = None
        if functional:
            verified = self._check_outputs(application, golden)
            # Loads still unread at program end were pure wasted traffic.
            self.functional_loaded_words = self._loaded_words
            self.functional_dead_words = (
                self._dead_words + sum(self._load_watch.values())
            )

        compute_cycles = sum(t.compute_end - t.compute_start for t in timings)
        total = max(
            dma.busy_until, timings[-1].compute_end if timings else 0
        )
        stall = self._stall_cycles(timings)
        return SimulationReport(
            scheduler=program.schedule.scheduler,
            application=application.name,
            total_cycles=total,
            compute_cycles=compute_cycles,
            rc_stall_cycles=stall,
            dma_busy_cycles=dma.cycles_busy(),
            data_load_words=dma.words_moved(TransferKind.DATA_LOAD),
            data_store_words=dma.words_moved(TransferKind.DATA_STORE),
            context_words=dma.words_moved(TransferKind.CONTEXT_LOAD),
            data_load_count=dma.count(TransferKind.DATA_LOAD),
            data_store_count=dma.count(TransferKind.DATA_STORE),
            context_load_count=dma.count(TransferKind.CONTEXT_LOAD),
            visits=tuple(timings),
            transfers=tuple(transfers),
            functional_verified=verified,
        )

    # -- timing engine ----------------------------------------------------

    def _visit_rows(self, visits) -> List[Tuple]:
        """One row per visit: ``(index, round_index, cluster_index,
        fb_set, n_iters, compute_cycles, ctx, ld, st)``, where ``ctx``,
        ``ld`` and ``st`` are the visit's context, data-load and store
        groups as ``(words, duration, count)``.

        A template-compiled program yields its group totals from its
        :class:`ClusterTemplate` tables, once per (cluster, round
        length), without stamping a single op.  Any other visit
        sequence (the reference generator, pickled programs, fuzz
        mutations) has each visit's totals summed from its own ops, so
        a visit edited apart from its cluster's other visits is timed
        as it is.
        """
        timing = self.machine.architecture.timing
        ctx_cycles = timing.context_transfer_cycles
        data_cycles = timing.data_transfer_cycles
        if isinstance(visits, TemplateVisits):
            return _template_rows(visits, ctx_cycles, data_cycles)

        def totals(items, cycles_of):
            return (
                sum(item.words for item in items),
                sum(cycles_of(item.words) for item in items),
                len(items),
            )

        rows = []
        for ops in visits:
            visit = ops.visit
            rows.append((
                visit.index, visit.round_index, visit.cluster_index,
                visit.fb_set, len(visit.iterations), ops.compute_cycles,
                totals(ops.context_loads, ctx_cycles),
                totals(ops.data_loads, data_cycles),
                totals(ops.stores, data_cycles),
            ))
        return rows

    def _execute(
        self,
        program: Program,
        functional: bool,
        impls: Mapping[str, KernelImpl],
        dma: DmaChannel,
        transfers: List[DmaTransfer],
    ) -> List[VisitTiming]:
        """Time every :func:`issue_order` step on *dma*; with the trace
        on, append each group's stamped transfers to *transfers*."""
        visits = program.visits
        if not visits:
            return []
        rows = self._visit_rows(visits)
        timing = self.machine.architecture.timing
        fb_values: Tuple[Dict, Dict] = ({}, {})
        steps, _ = issue_order(
            program.schedule, [(row[3], row[2], row[4]) for row in rows],
            self.dma_policy,
        )

        count = len(rows)
        prep_finish = [0] * count
        # One extra slot that stays 0: gate -1 ("no visit") reads it.
        compute_end = [0] * (count + 1)
        timings: List[VisitTiming] = []
        trace = self.trace

        # Back-to-back transfers at one earliest start occupy one
        # contiguous channel block, so each visit's context/load/store
        # group is timed in O(1) via request_block from its row.
        for kind, index, gate in steps:
            if kind == RUN:
                (visit_index, round_index, cluster_index, fb_set, _,
                 compute_cycles, _, _, _) = rows[index]
                start = max(prep_finish[index], compute_end[index - 1])
                end = start + compute_cycles
                compute_end[index] = end
                if functional:
                    # Functional data movement follows strict program
                    # order (the verifier's order); DMA timing is
                    # tracked independently.
                    ops = visits[index]
                    for load in ops.data_loads:
                        self._do_load(load, fb_values)
                    self._do_compute(program, index, fb_values, impls)
                    for store in ops.stores:
                        self._do_store(store, fb_values)
                    self._drain_set(program, index, fb_values)
                timings.append(
                    VisitTiming(
                        index=visit_index,
                        round_index=round_index,
                        cluster_index=cluster_index,
                        fb_set=fb_set,
                        prep_finish=prep_finish[index],
                        compute_start=start,
                        compute_end=end,
                    )
                )
                continue
            earliest = compute_end[gate]
            # The row holds the ctx, ld and st groups at 6, 7, 8, in
            # CTX, LOAD, STORE order.
            words, duration, group = rows[index][6 + kind]
            start = finish = earliest
            if group:
                start, finish = dma.request_block(
                    _TRANSFER_KINDS[kind], words, duration, group, earliest
                )
            if trace:
                _stamp(transfers, kind, visits[index], index, start, finish,
                       timing)
            # A visit's preparation finishes no earlier than its
            # contexts' gate, and after every non-empty group lands.
            if (kind == CTX or (group and kind == LOAD)) and (
                finish > prep_finish[index]
            ):
                prep_finish[index] = finish
        return timings

    def _stall_cycles(self, timings: List[VisitTiming]) -> int:
        stall = 0
        previous_end = 0
        for timing in timings:
            stall += max(0, timing.compute_start - previous_end)
            previous_end = timing.compute_end
        return stall

    # -- functional data movement ---------------------------------------

    def _do_load(self, load, fb_values) -> None:
        values = self.machine.external_memory.read(
            load.name, load.iteration, load.words
        )
        if values is None:
            raise SimulationError(
                f"functional load of {load.name}#{load.iteration}: external "
                f"memory holds no values"
            )
        fb_values[load.fb_set][(load.name, load.iteration)] = values
        watch_key = (load.fb_set, load.name, load.iteration)
        # A reload over an unread copy means the first copy was dead.
        self._dead_words += self._load_watch.pop(watch_key, 0)
        self._load_watch[watch_key] = load.words
        self._loaded_words += load.words

    def _do_store(self, store, fb_values) -> None:
        key = (store.name, store.iteration)
        if key not in fb_values[store.fb_set]:
            raise SimulationError(
                f"functional store of {store.name}#{store.iteration}: "
                f"not in set{store.fb_set}"
            )
        self.machine.external_memory.write(
            store.name, store.iteration, store.words,
            values=fb_values[store.fb_set][key],
        )

    def _do_compute(self, program: Program, index: int, fb_values, impls) -> None:
        ops = program.visits[index]
        application = program.schedule.application
        dataflow = program.schedule.dataflow
        keeps_by_name = {k.name: k for k in program.schedule.keeps}
        for run in ops.compute:
            kernel = application.kernel(run.kernel)
            inputs = {}
            for in_name in kernel.inputs:
                instance = 0 if dataflow[in_name].invariant else run.iteration
                key = (in_name, instance)
                if key in fb_values[run.fb_set]:
                    inputs[in_name] = fb_values[run.fb_set][key]
                    self._load_watch.pop((run.fb_set, *key), None)
                    continue
                keep = keeps_by_name.get(in_name)
                if (
                    keep is not None
                    and keep.fb_set != run.fb_set
                    and key in fb_values[keep.fb_set]
                ):
                    # Cross-set retention: read the operand in place.
                    inputs[in_name] = fb_values[keep.fb_set][key]
                    self._load_watch.pop((keep.fb_set, *key), None)
                    continue
                raise SimulationError(
                    f"kernel {run.kernel!r}#{run.iteration}: input "
                    f"{in_name!r} not in set{run.fb_set}"
                )
            outputs = impls[run.kernel](inputs, run.iteration)
            for out_name in kernel.outputs:
                fb_values[run.fb_set][(out_name, run.iteration)] = np.asarray(
                    outputs[out_name], dtype=np.int64
                )

    def _drain_set(self, program: Program, index: int, fb_values) -> None:
        """Drop non-kept contents after a visit's stores complete."""
        schedule = program.schedule
        visit = program.visits[index].visit
        survivors = schedule.survivors(visit.cluster_index, visit.fb_set)
        if visit.cluster_index == len(schedule.clustering) - 1:
            survivors = frozenset()
        retained = {
            key: value
            for key, value in fb_values[visit.fb_set].items()
            if key[0] in survivors
        }
        fb_values[visit.fb_set].clear()
        fb_values[visit.fb_set].update(retained)

    def _check_outputs(self, application, golden) -> bool:
        memory = self.machine.external_memory
        for (name, iteration), expected in golden.items():
            actual = memory.get(name, iteration)
            if actual is None or not np.array_equal(actual, expected):
                raise SimulationError(
                    f"functional mismatch: final output {name}#{iteration} "
                    f"differs from the reference execution"
                )
        return True


def _stamp(
    transfers: List[DmaTransfer],
    kind: int,
    ops,
    index: int,
    start: int,
    finish: int,
    timing: TimingModel,
) -> None:
    """Append visit *index*'s *kind* group to *transfers*, one per op,
    back to back from the channel block's *start*.

    Raises:
        SimulationError: the ops do not end at the block's *finish*, so
            the visit's timing row disagrees with its ops.
    """
    at = start
    if kind == CTX:
        for load in ops.context_loads:
            end = at + timing.context_transfer_cycles(load.words)
            # tuple.__new__ skips the generated keyword-checking
            # __new__; this is the hottest allocation of a traced run.
            transfers.append(tuple.__new__(DmaTransfer, (
                TransferKind.CONTEXT_LOAD, f"ctx:{load.kernel}@v{index}",
                load.words, at, end,
            )))
            at = end
    else:
        transfer_kind = _TRANSFER_KINDS[kind]
        prefix, items = (
            ("ld", ops.data_loads) if kind == LOAD else ("st", ops.stores)
        )
        for item in items:
            end = at + timing.data_transfer_cycles(item.words)
            transfers.append(tuple.__new__(DmaTransfer, (
                transfer_kind, f"{prefix}:{item.name}#{item.iteration}@v{index}",
                item.words, at, end,
            )))
            at = end
    if at != finish:
        raise SimulationError(
            f"visit {index}: its {_TRANSFER_KINDS[kind].value} ops end at "
            f"cycle {at}, but its timing row's channel block ends at {finish}"
        )


def _template_rows(
    visits: TemplateVisits, ctx_cycles, data_cycles
) -> List[Tuple]:
    """:meth:`Simulator._visit_rows` straight from the codegen
    templates: per-cluster group totals scaled by the round length."""
    schedule = visits.schedule
    clusters = []
    for template in visits.templates:
        contexts = template.context_loads[0]
        clusters.append((
            template,
            (template.context_total,
             sum(ctx_cycles(load.words) for load in contexts),
             len(contexts)),
            {},
        ))
    rows = []
    index = 0
    for round_index in range(schedule.rounds):
        n_iters = schedule.iterations_in_round(round_index)
        for template, contexts, by_length in clusters:
            groups = by_length.get(n_iters)
            if groups is None:
                groups = by_length[n_iters] = _template_groups(
                    template, n_iters, data_cycles
                )
            rows.append((
                index, round_index, template.cluster_index,
                template.fb_set, n_iters, groups[0],
                contexts, groups[1], groups[2],
            ))
            index += 1
    return rows


def _template_groups(
    template: ClusterTemplate, n_iters: int, data_cycles
) -> Tuple[int, Tuple[int, int, int], Tuple[int, int, int]]:
    """``(compute_cycles, ld, st)`` of one visit of *template* over
    *n_iters* iterations.  Invariant loads move once per visit, every
    other load and every store once per iteration."""
    words = duration = count = 0
    for _, size, fixed in template.loads:
        times = len(fixed) if fixed else n_iters
        words += size * times
        duration += data_cycles(size) * times
        count += times
    stores = (
        n_iters * sum(size for _, size in template.stores),
        n_iters * sum(data_cycles(size) for _, size in template.stores),
        n_iters * len(template.stores),
    )
    compute = n_iters * sum(cycles for _, cycles in template.compute)
    return compute, (words, duration, count), stores
