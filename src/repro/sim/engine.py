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

**Steady state.**  A schedule is round-periodic
(:meth:`~repro.schedule.plan.Schedule.round_stretches`): every full
round visits the same clusters on the same FB sets over ``RF``
iterations, and only the last round may be partial.  The engine
applies only ``max`` and ``+`` to per-row constants, so its update is
shift-invariant: two walks from states that differ by a constant shift
stay that shift apart (max-plus periodicity; Heidergott, Olsder & van
der Woude, *Max Plus at Work*).  At a round boundary, just before the
round's first visit runs, the state that later steps read is that
visit's ``prep_finish`` and the channel's ``busy_until``, both measured
from the previous visit's ``compute_end``.  When the boundary state
before round ``r`` equals the one before round ``r - 1``, round ``r``
repeats round ``r - 1`` shifted by the difference of their boundaries,
and so does every later round whose steps read the same rows.  A
round's steps read its neighbours' rows too: the next round's first
preparation, and the previous round's last stores and sets.  So a
round is shifted only if it and both its neighbours are full rounds,
and the template round's own neighbours are as well.  Rows are not
compared: the rounds of a template-compiled program are alike because
its schedule says so, and the rows of the full rounds are one tuple.

An untraced run of a template-compiled program of five rounds or more
therefore walks only part of its full rounds.  It compares the
boundary states before rounds 2 to 4; from the first repeat up to the
last full round, the rounds are shifted: the run records them as one
``(template, first, count, delta)`` stretch and adds their channel
totals (:meth:`~repro.arch.dma.DmaChannel.repeat`).  It then walks on
from the last full round.  The rounds it shifts are left out of the
:func:`issue_order` call, so their rows and steps are never built, and
no :class:`VisitTiming` is made for them: the report's
:class:`~repro.sim.report.PeriodicVisits` stamps a shifted visit only
when it is read.  Every run returns that one sequence type; a run that
shifts nothing holds only walked timings.  A probe that finds no
repeat walks the whole program again, visit by visit.  Traced runs,
and runs of materialised programs (whose visits may be edited apart
from their schedule), walk every visit; the traced run is the oracle
(``tests/sim/test_steady_state.py`` and the ``simengine`` fuzz
oracle).  :attr:`Simulator.rounds_walked` and
:attr:`Simulator.rounds_shifted` say which path a run took.

The engine moves no values.  A functional run times the program like
any other run, then replays it on real values in program order with
:func:`repro.sim.functional.execute_functional`, which checks every
final output against the reference execution.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

from repro.arch.dma import DmaChannel, DmaTransfer, TransferKind
from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture, TimingModel
from repro.codegen.generator import generate_program
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
from repro.schedule.plan import Schedule
from repro.sim.functional import KernelImpl, execute_functional
from repro.sim.report import PeriodicVisits, SimulationReport, VisitTiming

__all__ = ["Simulator", "simulated_cycles"]

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
        #: (only untraced runs shift).  They add up to the program's
        #: rounds.  ``None`` until a run completes.
        self.rounds_walked: Optional[int] = None
        self.rounds_shifted: Optional[int] = None

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
            functional: after timing, replay the program on real values
                and check the final outputs against a reference
                execution (:func:`~repro.sim.functional.execute_functional`);
                leave False for timing-only runs (much lighter).
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

        transfers: List[DmaTransfer] = []
        visits, compute_cycles, stall, dma = self._execute(program, transfers)

        verified: Optional[bool] = None
        if functional:
            (
                verified,
                self.functional_loaded_words,
                self.functional_dead_words,
            ) = execute_functional(
                program, self.machine.external_memory, kernel_impls,
                seed=seed,
            )

        total = max(dma.busy_until, visits[-1].compute_end if visits else 0)
        return SimulationReport(
            scheduler=program.schedule.scheduler,
            application=program.schedule.application.name,
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
        :class:`ClusterTemplate` tables, once per stretch of
        :meth:`~repro.schedule.plan.Schedule.round_stretches`, without
        stamping a single op; its visit ``m * width + k`` is the
        ``k``-th of round ``m``.  Any other visit sequence (the
        reference generator, pickled programs, fuzz mutations) has each
        visit's totals summed from its own ops, so a visit edited apart
        from its cluster's other visits is timed as it is; such a
        program is walked visit by visit.
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
        self, program: Program, transfers: List[DmaTransfer]
    ) -> Tuple[PeriodicVisits, int, int, DmaChannel]:
        """Time the program on a fresh channel; return ``(visits,
        compute_cycles, stall_cycles, channel)``.

        An untraced run of a template-compiled program walks its full
        rounds only until their steady state shows and stamps the rest
        by shift (module docstring); a probe that finds no steady state
        falls back to walking every visit, as a traced run does.
        """
        visits = program.visits
        width = len(program.schedule.clustering)
        rounds = program.schedule.rounds
        tails, idents = self._round_tails(visits, width)
        if (
            not self.trace
            and isinstance(visits, TemplateVisits)
            and rounds >= _MIN_SHIFT_ROUNDS
            and len(visits) == rounds * width
        ):
            # The full rounds, the first stretch, hold at least four
            # rounds here: the probe ends before the stretch's last
            # round, which is walked.
            _, count, _ = visits.schedule.round_stretches()[0]
            end = count - 1
            walked = self._walk(
                program, tails, idents, width,
                (min(_PROBE_ROUNDS, end - 1), end), transfers,
            )
            if walked is not None:
                return walked
        return self._walk(program, tails, idents, width, None, transfers)

    def _walk(
        self,
        program: Program,
        tails: List[Tuple[Tuple, ...]],
        idents: Optional[List[Tuple[int, int]]],
        width: int,
        gap: Optional[Tuple[int, int]],
        transfers: List[DmaTransfer],
    ) -> Optional[Tuple[PeriodicVisits, int, int, DmaChannel]]:
        """Time every :func:`issue_order` step of the program without
        the rounds of *gap* (see :class:`_SteadyState`); with the trace
        on, append each group's stamped transfers to *transfers*.

        The gap's rounds are recorded as a shifted stretch once the
        walk reaches its steady state.  Returns ``None`` when the probe
        ends without one.
        """
        visits = program.visits
        timing = self.machine.architecture.timing
        steady = _SteadyState(gap, width)
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
        return (
            PeriodicVisits(tuple(timings), width, steady.stretch),
            compute, stall, dma,
        )


def simulated_cycles(schedule: Schedule, architecture: Architecture) -> int:
    """Makespan of *schedule* on *architecture*, in cycles: its program
    simulated untraced and unverified.

    The one timing model the kernel scheduler and
    ``rf_policy="joint"`` rank candidates with.  Skipping the static
    verifier drops no check: the candidate picked is verified wherever
    it is simulated for a report.
    """
    program = generate_program(schedule)
    simulator = Simulator(MorphoSysM1(architecture), trace=False, verify=False)
    return simulator.run(program).total_cycles


#: Programs with fewer rounds walk every visit: a shift could skip one
#: round at most.
_MIN_SHIFT_ROUNDS = 5

#: The steady state is looked for at the boundaries before rounds 2 to
#: _PROBE_ROUNDS.
_PROBE_ROUNDS = 4


class _SteadyState:
    """Looks for a walk's steady state at the round boundaries of its
    probe, and records the rounds it then skips as one shifted stretch.

    The gap ``(probe_end, end)`` lies in the first stretch of
    :meth:`~repro.schedule.plan.Schedule.round_stretches`, whose last
    round is ``end``.  The walk compares the boundary states before
    rounds 2 to ``probe_end``.  Once two consecutive ones are equal,
    the rounds from there to ``end - 1`` are stamped by shift, so
    program rounds ``probe_end`` to ``end - 1`` are left out of the
    walk (:attr:`left_out`) and the walk's round ``probe_end`` is
    program round ``end``.  A round's steps read the rows of both its
    neighbours, so the template round (the one before the repeat) is
    round 1 or later, and round ``end`` itself is walked.  Without a
    gap (``None``) nothing is left out or probed.
    """

    def __init__(self, gap: Optional[Tuple[int, int]], width: int) -> None:
        self._width = width
        self._probe_end, self._end = gap or (0, 0)
        #: Program rounds the walk leaves out.
        self.left_out = range(self._probe_end, self._end)
        #: The walk visit before whose run :meth:`boundary` is due.
        self.checkpoint = width if gap else -1
        #: ``(template, first, count, delta)`` of the program rounds
        #: stamped by shift (:class:`PeriodicVisits`), or ``None``.
        self.stretch: Optional[Tuple[int, int, int, int]] = None
        #: Program rounds stamped by shift.
        self.shifted = 0
        self._previous: Optional[Tuple] = None

    def boundary(
        self, index, prep_finish, compute_end, dma, compute, stall
    ) -> Optional[Tuple[int, int, int]]:
        """The walk is about to run visit *index*, a round's first.

        Compares the round-boundary state with the previous round's.
        On a repeat, records the rounds up to the stretch's last as a
        stretch that repeats the last walked round, advances *dma*,
        *prep_finish* and *compute_end* to the last round's boundary
        and returns ``(resume_index, compute, stall)`` with the sums
        grown to match.  Otherwise records the
        state and returns ``(index, compute, stall)``, or ``None`` when
        the probe ends here without a repeat.
        """
        width = self._width
        base = compute_end[index - 1]
        state = (prep_finish[index] - base, dma.busy_until - base)
        previous = self._previous
        resume = self._probe_end * width
        if previous is None or previous[0] != state:
            if index == resume:
                return None
            self._previous = (state, base, dma.mark(), compute, stall)
            self.checkpoint = index + width
            return index, compute, stall
        _, then, mark, compute_then, stall_then = previous
        delta = base - then
        start = index // width
        times = self._end - start
        self.stretch = (start - 1, start, times, delta)
        dma.repeat(mark, times)
        self.shifted = times
        prep_finish[resume] = prep_finish[index] + times * delta
        compute_end[resume - 1] = base + times * delta
        self.checkpoint = -1
        return (
            resume,
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
    The rounds of one :meth:`~repro.schedule.plan.Schedule.round_stretches`
    stretch share one tuple of rows."""
    contexts = []
    for template in visits.templates:
        loads = template.context_loads[0]
        contexts.append((
            template.context_total,
            sum(ctx_cycles(load.words) for load in loads),
            len(loads),
        ))
    tails: List[Tuple[Tuple, ...]] = []
    for _, count, n_iters in visits.schedule.round_stretches():
        rows = []
        for template, context in zip(visits.templates, contexts):
            compute, loads, stores = _template_groups(
                template, n_iters, data_cycles
            )
            rows.append((
                template.cluster_index, template.fb_set, n_iters,
                compute, context, loads, stores,
            ))
        tails.extend([tuple(rows)] * count)
    return tails


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
