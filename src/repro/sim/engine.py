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

**Steady state.**  A schedule is round-periodic: every round visits
the same clusters on the same FB sets, and only the last round may be
partial.  The engine applies only ``max`` and ``+`` to per-row
constants, so its update is shift-invariant: two walks from states
that differ by a constant shift stay that shift apart (max-plus
periodicity; Heidergott, Olsder & van der Woude, *Max Plus at Work*).
At a round boundary, just before the round's first visit runs, the
state that later steps read is that visit's ``prep_finish`` and the
channel's ``busy_until``, both measured from the previous visit's
``compute_end``.  When the boundary state before round ``r`` equals the
one before round ``r - 1``, round ``r`` repeats round ``r - 1`` shifted
by the difference of their boundaries, and so does every later round
whose steps read the same rows.  A round's steps read its neighbours'
rows too: the next round's first preparation, and the previous round's
last stores and sets.  So a round is shifted only if it and both its
neighbours have the template round's rows, and the template round's
own neighbours have them as well.  Rows are compared, not assumed from
the templates, so an edited visit of a materialised program is walked.

An untraced, non-functional run of five rounds or more therefore walks
only part of each stretch of equal-row rounds.  It compares the
boundary states before the stretch's rounds 2 to 4; from the first
repeat up to the stretch's last round, the rounds are shifted: the run
records them as one ``(template, first, count, delta)`` stretch and
adds their channel totals (:meth:`~repro.arch.dma.DmaChannel.repeat`).
It then walks on from the stretch's last round.  The rounds it shifts
are left out of the :func:`issue_order` call, so their rows and steps
are never built, and no :class:`VisitTiming` is made for them: the
report's :class:`~repro.sim.report.PeriodicVisits` stamps a shifted
visit only when it is read.  Every run returns that one sequence type;
a run that shifts nothing holds only walked timings.  A probe that
finds no repeat walks the whole program again, visit by visit.  Traced
and functional runs always walk every visit, which makes the traced
run the oracle (``tests/sim/test_steady_state.py`` and the
``simengine`` fuzz oracle).  :attr:`Simulator.rounds_walked` and
:attr:`Simulator.rounds_shifted` say which path a run took.

Functional mode additionally moves real values through the machine's
external memory and checks every final output against the reference
execution.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.arch.dma import DmaChannel, DmaTransfer, TransferKind
from repro.arch.machine import MorphoSysM1
from repro.arch.params import TimingModel
from repro.codegen.program import Program
from repro.codegen.templated import ClusterTemplate, TemplateVisits
from repro.codegen.verifier import verify_program
from repro.errors import SimulationError
from repro.obs.metrics import time_stage
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
from repro.sim.report import PeriodicVisits, SimulationReport, VisitTiming

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
        #: After a run: the rounds whose visits were walked step by
        #: step, and the rounds stamped by shift from a steady state
        #: (only untraced, non-functional runs shift).  They add up to
        #: the program's rounds.  ``None`` until a run completes.
        self.rounds_walked: Optional[int] = None
        self.rounds_shifted: Optional[int] = None
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
            # Its own stage, so a profile splits the pipeline's
            # ``simulate`` into verification and the walk.
            with time_stage(
                "verify", scope=f"pipeline.{program.schedule.scheduler}"
            ):
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
        transfers: List[DmaTransfer] = []
        visits, compute_cycles, stall, dma = self._execute(
            program, functional, impls, transfers
        )

        verified: Optional[bool] = None
        if functional:
            verified = self._check_outputs(application, golden)
            # Loads still unread at program end were pure wasted traffic.
            self.functional_loaded_words = self._loaded_words
            self.functional_dead_words = (
                self._dead_words + sum(self._load_watch.values())
            )

        total = max(dma.busy_until, visits[-1].compute_end if visits else 0)
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
            visits=visits,
            transfers=tuple(transfers),
            functional_verified=verified,
        )

    # -- timing engine ----------------------------------------------------

    def _round_tails(
        self, visits, width: int
    ) -> Tuple[List[Tuple[Tuple, ...]], Optional[List[Tuple[int, int]]]]:
        """The program's timing rows by round, as ``(tails, idents)``.

        ``tails[m]`` holds round ``m``'s rows without their identity,
        one ``(cluster_index, fb_set, n_iters, compute_cycles, ctx, ld,
        st)`` per visit, where ``ctx``, ``ld`` and ``st`` are the
        visit's context, data-load and store groups as ``(words,
        duration, count)``.  ``idents`` lists every visit's ``(index,
        round_index)``, or is ``None`` when the position gives it.

        A template-compiled program yields its group totals from its
        :class:`ClusterTemplate` tables, once per round length, without
        stamping a single op; its visit ``m * width + k`` is the
        ``k``-th of round ``m``.  Any other visit sequence (the
        reference generator, pickled programs, fuzz mutations) has each
        visit's totals summed from its own ops, so a visit edited apart
        from its cluster's other visits is timed as it is.
        """
        timing = self.machine.architecture.timing
        ctx_cycles = timing.context_transfer_cycles
        data_cycles = timing.data_transfer_cycles
        if isinstance(visits, TemplateVisits):
            return _template_tails(visits, ctx_cycles, data_cycles), None

        def totals(items, cycles_of):
            return (
                sum(item.words for item in items),
                sum(cycles_of(item.words) for item in items),
                len(items),
            )

        idents = []
        tails = []
        for ops in visits:
            visit = ops.visit
            idents.append((visit.index, visit.round_index))
            tails.append((
                visit.cluster_index, visit.fb_set, len(visit.iterations),
                ops.compute_cycles,
                totals(ops.context_loads, ctx_cycles),
                totals(ops.data_loads, data_cycles),
                totals(ops.stores, data_cycles),
            ))
        return [
            tuple(tails[first:first + width])
            for first in range(0, len(tails), width)
        ], idents

    def _execute(
        self,
        program: Program,
        functional: bool,
        impls: Mapping[str, KernelImpl],
        transfers: List[DmaTransfer],
    ) -> Tuple[PeriodicVisits, int, int, DmaChannel]:
        """Time the program on a fresh channel; return ``(visits,
        compute_cycles, stall_cycles, channel)``.

        An untraced, non-functional run walks its periodic stretches
        only until their steady state shows and stamps the rest by
        shift (module docstring); a probe that finds no steady state
        falls back to walking every visit, as every other run does.
        """
        schedule = program.schedule
        width = len(schedule.clustering)
        rounds = schedule.rounds
        tails, idents = self._round_tails(program.visits, width)
        if (
            not (self.trace or functional)
            and rounds >= _MIN_SHIFT_ROUNDS
            and len(program.visits) == rounds * width
        ):
            gaps = _steady_gaps(tails)
            if gaps:
                walked = self._walk(
                    program, tails, idents, width, gaps, False, {},
                    transfers,
                )
                if walked is not None:
                    return walked
        return self._walk(
            program, tails, idents, width, (), functional, impls, transfers
        )

    def _walk(
        self,
        program: Program,
        tails: List[Tuple[Tuple, ...]],
        idents: Optional[List[Tuple[int, int]]],
        width: int,
        gaps: Sequence[Tuple[int, int, int]],
        functional: bool,
        impls: Mapping[str, KernelImpl],
        transfers: List[DmaTransfer],
    ) -> Optional[Tuple[PeriodicVisits, int, int, DmaChannel]]:
        """Time every :func:`issue_order` step of the program without
        the rounds of *gaps* (see :func:`_steady_gaps`); with the trace
        on, append each group's stamped transfers to *transfers*.

        Each gap's rounds are recorded as a shifted stretch once the
        walk reaches its stretch's steady state.  Returns ``None`` when
        a probe ends without one.
        """
        visits = program.visits
        timing = self.machine.architecture.timing
        fb_values: Tuple[Dict, Dict] = ({}, {})
        steady = _SteadyState(gaps, width)
        rows = []
        for round_index, round_tails in enumerate(tails):
            if round_index in steady.left_out:
                continue
            first = round_index * width
            for k, tail in enumerate(round_tails):
                rows.append(
                    (idents[first + k] if idents else (first + k, round_index))
                    + tail
                )
        steps, _ = issue_order(
            program.schedule, [(row[3], row[2], row[4]) for row in rows],
            self.dma_policy,
        )

        dma = DmaChannel()
        count = len(rows)
        prep_finish = [0] * count
        # One extra slot that stays 0: gate -1 ("no visit") reads it.
        compute_end = [0] * (count + 1)
        timings: List[VisitTiming] = []
        compute = stall = 0
        trace = self.trace
        checkpoint = steady.checkpoint

        # Back-to-back transfers at one earliest start occupy one
        # contiguous channel block, so each visit's context/load/store
        # group is timed in O(1) via request_block from its row.
        walk = iter(steps)
        for kind, index, gate in walk:
            if kind == RUN:
                if index == checkpoint:
                    resumed = steady.boundary(
                        index, prep_finish, compute_end, dma, compute, stall,
                    )
                    if resumed is None:
                        return None
                    checkpoint = steady.checkpoint
                    resume, compute, stall = resumed
                    if resume != index:
                        # The shifted rounds' steps are not walked.
                        target = (RUN, resume, -1)
                        for step in walk:
                            if step == target:
                                break
                        index = resume
                (visit_index, round_index, cluster_index, fb_set, _,
                 compute_cycles, _, _, _) = rows[index]
                previous_end = compute_end[index - 1]
                start = prep_finish[index]
                if start < previous_end:
                    start = previous_end
                stall += start - previous_end
                compute += compute_cycles
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
        self.rounds_shifted = steady.shifted
        self.rounds_walked = program.schedule.rounds - steady.shifted
        stretches = tuple(steady.stretches)
        return (
            PeriodicVisits(
                tuple(timings), width, stretches,
                idents if stretches else None,
            ),
            compute, stall, dma,
        )

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


#: Programs with fewer rounds walk every visit: a shift could skip one
#: round at most.
_MIN_SHIFT_ROUNDS = 5

#: A periodic stretch's steady state is looked for at the boundaries
#: before its rounds 2 to _PROBE_ROUNDS.
_PROBE_ROUNDS = 4


def _steady_gaps(tails: List[Tuple[Tuple, ...]]) -> List[Tuple[int, int, int]]:
    """``(start, probe_end, end)`` per stretch ``start .. end`` of rounds
    with equal rows long enough to shift.

    The walk compares the round-boundary states before the stretch's
    rounds ``start + 2`` to ``probe_end``.  Once two consecutive ones
    are equal, the rounds from there to ``end - 1`` are stamped by
    shift, so rounds ``probe_end`` to ``end - 1`` are left out of the
    walk.  A round's steps read the rows of both its neighbours, so the
    template round (the one before the repeat) and every shifted round
    must lie strictly inside the stretch: the template round is
    ``start + 1`` or later, and round ``end`` itself is walked.
    """
    gaps = []
    start = 0
    for round_index in range(1, len(tails) + 1):
        if round_index < len(tails) and tails[round_index] == tails[start]:
            continue
        end = round_index - 1
        if end - start >= 3:
            gaps.append((start, min(start + _PROBE_ROUNDS, end - 1), end))
        start = round_index
    return gaps


class _SteadyState:
    """Looks for a walk's steady state at the round boundaries of its
    probes, and records the rounds it then skips as shifted stretches.

    Each gap ``(start, probe_end, end)`` of :func:`_steady_gaps` leaves
    program rounds ``probe_end`` to ``end - 1`` out of the walk
    (:attr:`left_out`) and becomes a probe ``(first, last, offset,
    resume)``: walk rounds ``first`` to ``last`` of the stretch, where
    walk round ``c`` is program round ``c + offset``, and the walk's
    round ``last`` is program round ``resume``.
    """

    def __init__(self, gaps, width: int) -> None:
        #: Program rounds the walk leaves out.
        self.left_out: Set[int] = set()
        probes = []
        for start, probe_end, end in gaps:
            offset = len(self.left_out)
            probes.append((start + 1 - offset, probe_end - offset, offset, end))
            self.left_out.update(range(probe_end, end))
        self._probes = iter(probes)
        self._width = width
        #: ``(template, first, count, delta)`` per stretch of program
        #: rounds stamped by shift (:class:`PeriodicVisits`).
        self.stretches: List[Tuple[int, int, int, int]] = []
        #: Program rounds stamped by shift so far.
        self.shifted = 0
        self._next_probe()

    def _next_probe(self) -> None:
        self._probe = next(self._probes, None)
        #: The walk visit before whose run :meth:`boundary` is due.
        self.checkpoint = (
            self._probe[0] * self._width if self._probe else -1
        )
        self._previous: Optional[Tuple] = None

    def boundary(
        self, index, prep_finish, compute_end, dma, compute, stall
    ) -> Optional[Tuple[int, int, int]]:
        """The walk is about to run visit *index*, a round's first.

        Compares the round-boundary state with the previous round's.
        On a repeat, records the probe's remaining program rounds as a
        stretch that repeats the last walked round, advances *dma*,
        *prep_finish* and *compute_end* to the resume round's boundary
        and returns ``(resume_index, compute, stall)`` with the sums
        grown to match.  Otherwise records the
        state and returns ``(index, compute, stall)``, or ``None`` when
        the probe ends here without a repeat.
        """
        width = self._width
        base = compute_end[index - 1]
        state = (prep_finish[index] - base, dma.busy_until - base)
        previous = self._previous
        _, last, offset, resume = self._probe
        if previous is None or previous[0] != state:
            if index == last * width:
                return None
            self._previous = (state, base, dma.mark(), compute, stall)
            self.checkpoint = index + width
            return index, compute, stall
        _, then, mark, compute_then, stall_then = previous
        delta = base - then
        start = index // width + offset
        times = resume - start
        self.stretches.append((start - 1, start, times, delta))
        dma.repeat(mark, times)
        self.shifted += times
        at = last * width
        prep_finish[at] = prep_finish[index] + times * delta
        compute_end[at - 1] = base + times * delta
        self._next_probe()
        return (
            at,
            compute + times * (compute - compute_then),
            stall + times * (stall - stall_then),
        )


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


def _template_tails(
    visits: TemplateVisits, ctx_cycles, data_cycles
) -> List[Tuple[Tuple, ...]]:
    """:meth:`Simulator._round_tails` straight from the codegen
    templates: per-cluster group totals scaled by the round length.
    Rounds of one length share one tuple of rows."""
    schedule = visits.schedule
    clusters = []
    for template in visits.templates:
        contexts = template.context_loads[0]
        clusters.append((
            template,
            (template.context_total,
             sum(ctx_cycles(load.words) for load in contexts),
             len(contexts)),
        ))
    by_length: Dict[int, Tuple[Tuple, ...]] = {}

    def round_tails(round_index: int) -> Tuple[Tuple, ...]:
        n_iters = schedule.iterations_in_round(round_index)
        if n_iters not in by_length:
            rows = []
            for template, contexts in clusters:
                compute, loads, stores = _template_groups(
                    template, n_iters, data_cycles
                )
                rows.append((
                    template.cluster_index, template.fb_set, n_iters,
                    compute, contexts, loads, stores,
                ))
            by_length[n_iters] = tuple(rows)
        return by_length[n_iters]

    # Only the last round may be partial.
    last = schedule.rounds - 1
    return [round_tails(0)] * last + [round_tails(last)]


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
