"""Traced and untraced simulation agree, in breadth.

Extends ``tests/sim/test_trace_equivalence.py`` to the fuzz generator
matrix, the paper experiments under all three schedulers (including
the serial, non-pipelined Basic schedule shape) and every DMA policy:
the untraced report must equal the traced one field for field, per-visit
timings included.  On top, the timing invariants any correct report
must satisfy are checked.
"""

import pytest

from repro.arch.dma import TransferKind
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.errors import InfeasibleScheduleError
from repro.fuzz.generator import generate_case, regime_names
from repro.schedule.basic import BasicScheduler
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.context_scheduler import DmaPolicy
from repro.schedule.data_scheduler import DataScheduler
from repro.workloads.spec import paper_experiments
from tests.sim.test_trace_equivalence import assert_trace_invariant, simulate

SCHEDULERS = (BasicScheduler, DataScheduler, CompleteDataScheduler)


def lowered_programs(application, clustering, architecture):
    """``(scheduler name, program)`` for every feasible scheduler."""
    programs = []
    for scheduler_cls in SCHEDULERS:
        try:
            schedule = scheduler_cls(architecture).schedule(
                application, clustering
            )
        except InfeasibleScheduleError:
            continue
        programs.append((scheduler_cls.name, generate_program(schedule)))
    return programs


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("regime", regime_names())
    @pytest.mark.parametrize("seed", [0, 3, 11, 42])
    def test_fuzz_matrix(self, regime, seed):
        case = generate_case(regime, seed)
        try:
            application, clustering = case.build()
        except Exception:
            pytest.skip("case does not build")
        architecture = case.architecture()
        for name, program in lowered_programs(
            application, clustering, architecture
        ):
            assert_trace_invariant(
                architecture, program, f"{regime}/{seed}/{name}"
            )

    @pytest.mark.parametrize(
        "spec", paper_experiments(), ids=lambda spec: spec.id
    )
    def test_paper_experiments(self, spec):
        application, clustering = spec.build()
        architecture = Architecture.m1(spec.fb)
        for name, program in lowered_programs(
            application, clustering, architecture
        ):
            assert_trace_invariant(architecture, program, f"{spec.id}/{name}")

    @pytest.mark.parametrize("policy", list(DmaPolicy))
    def test_every_dma_policy(self, policy):
        spec = next(
            s for s in paper_experiments() if s.id.upper() == "MPEG"
        )
        application, clustering = spec.build()
        architecture = Architecture.m1(spec.fb)
        for name, program in lowered_programs(
            application, clustering, architecture
        ):
            assert_trace_invariant(
                architecture, program, f"{policy.value}/{name}", policy
            )


class TestTimingInvariants:
    """Properties any valid report must satisfy."""

    def _reports(self):
        for spec in paper_experiments():
            application, clustering = spec.build()
            architecture = Architecture.m1(spec.fb)
            for name, program in lowered_programs(
                application, clustering, architecture
            ):
                yield (
                    f"{spec.id}/{name}",
                    architecture,
                    simulate(architecture, program, True),
                )

    def test_total_at_least_compute(self):
        for label, _, report in self._reports():
            assert report.total_cycles >= report.compute_cycles, label

    def test_dma_busy_matches_summed_transfer_costs(self):
        """``dma_busy_cycles`` is exactly the linear timing model summed
        over every transfer: one setup per transfer plus the per-word
        cost of each kind — and the traced transfers' durations."""
        for label, architecture, report in self._reports():
            timing = architecture.timing
            count = (
                report.data_load_count
                + report.data_store_count
                + report.context_load_count
            )
            expected = (
                timing.dma_setup_cycles * count
                + (report.data_load_words + report.data_store_words)
                * timing.data_word_cycles
                + report.context_words * timing.context_word_cycles
            )
            assert report.dma_busy_cycles == expected, label
            assert len(report.transfers) == count, label
            assert sum(
                t.finish - t.start for t in report.transfers
            ) == expected, label

    def test_transfers_sum_to_aggregates_and_never_overlap(self):
        """The stamped trace is the aggregate statistics item by item:
        per-kind words and counts summed over ``report.transfers`` equal
        the report's fields, and the one channel never runs two
        transfers at once."""
        for label, _, report in self._reports():
            for kind, words, count in (
                (TransferKind.DATA_LOAD, report.data_load_words,
                 report.data_load_count),
                (TransferKind.DATA_STORE, report.data_store_words,
                 report.data_store_count),
                (TransferKind.CONTEXT_LOAD, report.context_words,
                 report.context_load_count),
            ):
                of_kind = [t for t in report.transfers if t.kind is kind]
                assert sum(t.words for t in of_kind) == words, label
                assert len(of_kind) == count, label
            ordered = sorted(report.transfers, key=lambda t: t.start)
            for before, after in zip(ordered, ordered[1:]):
                assert after.start >= before.finish, (label, before, after)

    def test_total_bounded_by_serial_sum(self):
        """Overlap can only shorten a run: the makespan never exceeds
        compute + all DMA traffic + stalls laid end to end."""
        for label, _, report in self._reports():
            assert (
                report.total_cycles
                <= report.compute_cycles
                + report.dma_busy_cycles
                + report.rc_stall_cycles
            ), label
