"""Tests for the event-driven simulator."""

import pytest

from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture, TimingModel
from repro.codegen.generator import generate_program
from repro.schedule.basic import BasicScheduler
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.context_scheduler import DmaPolicy
from repro.schedule.data_scheduler import DataScheduler
from repro.sim.engine import Simulator


def _run(app, clustering, scheduler_cls, fb="2K", **sim_kwargs):
    arch = Architecture.m1(fb)
    schedule = scheduler_cls(arch).schedule(app, clustering)
    program = generate_program(schedule)
    return Simulator(MorphoSysM1(arch), **sim_kwargs).run(program)


class TestTimingSanity:
    def test_makespan_at_least_compute(self, sharing_app,
                                       sharing_clustering):
        report = _run(sharing_app, sharing_clustering, DataScheduler)
        assert report.total_cycles >= report.compute_cycles
        assert report.compute_cycles == sum(
            k.cycles for k in sharing_app.kernels
        ) * sharing_app.total_iterations

    def test_makespan_at_least_dma_busy(self, sharing_app,
                                        sharing_clustering):
        report = _run(sharing_app, sharing_clustering, DataScheduler)
        assert report.total_cycles >= report.dma_busy_cycles

    def test_visits_are_ordered_and_non_overlapping(self, sharing_app,
                                                    sharing_clustering):
        report = _run(sharing_app, sharing_clustering,
                      CompleteDataScheduler)
        previous_end = 0
        for timing in report.visits:
            assert timing.compute_start >= previous_end
            assert timing.compute_start >= timing.prep_finish
            previous_end = timing.compute_end

    def test_dma_transfers_serialised(self, sharing_app,
                                      sharing_clustering):
        report = _run(sharing_app, sharing_clustering, DataScheduler)
        previous_finish = 0
        for transfer in report.transfers:
            assert transfer.start >= previous_finish
            previous_finish = transfer.finish

    def test_stall_accounting(self, sharing_app, sharing_clustering):
        report = _run(sharing_app, sharing_clustering, DataScheduler)
        gaps = report.visits[0].compute_start + sum(
            max(0, b.compute_start - a.compute_end)
            for a, b in zip(report.visits, report.visits[1:])
        )
        assert report.rc_stall_cycles == gaps


class TestSchedulerOrdering:
    def test_cds_fastest(self, sharing_app, sharing_clustering):
        basic = _run(sharing_app, sharing_clustering, BasicScheduler)
        ds = _run(sharing_app, sharing_clustering, DataScheduler)
        cds = _run(sharing_app, sharing_clustering, CompleteDataScheduler)
        assert cds.total_cycles <= ds.total_cycles <= basic.total_cycles
        assert cds.data_words < basic.data_words

    def test_improvement_metric(self, sharing_app, sharing_clustering):
        basic = _run(sharing_app, sharing_clustering, BasicScheduler)
        cds = _run(sharing_app, sharing_clustering, CompleteDataScheduler)
        improvement = cds.improvement_over(basic)
        assert 0 < improvement < 1
        assert improvement == pytest.approx(
            (basic.total_cycles - cds.total_cycles) / basic.total_cycles
        )

    def test_basic_serialises_transfers(self, sharing_app,
                                        sharing_clustering):
        """Basic mode: no compute/transfer overlap -> makespan equals
        DMA busy + compute + idle gaps, with RC stalled whenever the
        DMA works."""
        report = _run(sharing_app, sharing_clustering, BasicScheduler)
        # All DMA time stalls the RC array, except the final stores
        # which drain after the last computation.
        last_store_cycles = sum(
            tr.cycles for tr in report.transfers
            if tr.start >= report.visits[-1].compute_end
        )
        assert report.rc_stall_cycles >= \
            report.dma_busy_cycles - last_store_cycles

    def test_ds_overlaps_transfers(self, sharing_app, sharing_clustering):
        report = _run(sharing_app, sharing_clustering, DataScheduler)
        # Pipelined: most DMA time hides under compute.
        assert report.rc_stall_cycles < report.dma_busy_cycles

    def test_context_traffic_ratio(self, sharing_app, sharing_clustering):
        basic = _run(sharing_app, sharing_clustering, BasicScheduler)
        ds = _run(sharing_app, sharing_clustering, DataScheduler)
        assert basic.context_words > ds.context_words


class TestDmaPolicies:
    def test_all_policies_run(self, sharing_app, sharing_clustering):
        for policy in DmaPolicy:
            report = _run(sharing_app, sharing_clustering,
                          CompleteDataScheduler, dma_policy=policy)
            assert report.total_cycles > 0


class TestReportDerived:
    def test_utilisations_bounded(self, sharing_app, sharing_clustering):
        report = _run(sharing_app, sharing_clustering, DataScheduler)
        assert 0 < report.rc_utilisation <= 1
        assert 0 < report.dma_utilisation <= 1

    def test_gantt_renders(self, sharing_app, sharing_clustering):
        report = _run(sharing_app, sharing_clustering, DataScheduler)
        chart = report.gantt()
        assert "DMA" in chart
        assert "#" in chart

    def test_transfer_counts(self, sharing_app, sharing_clustering):
        report = _run(sharing_app, sharing_clustering, DataScheduler)
        assert report.data_load_count > 0
        assert report.data_store_count > 0
        assert report.context_load_count > 0


class TestTimingModelEffects:
    def test_slower_dma_hurts_more_when_serial(self, sharing_app,
                                               sharing_clustering):
        def run_with(word_cycles, scheduler_cls):
            arch = Architecture.m1(
                "2K", timing=TimingModel(data_word_cycles=word_cycles)
            )
            schedule = scheduler_cls(arch).schedule(
                sharing_app, sharing_clustering
            )
            return Simulator(MorphoSysM1(arch)).run(
                generate_program(schedule)
            ).total_cycles

        # The absolute advantage of overlapping grows as transfers
        # get more expensive (there is more to hide).
        gap_fast = run_with(1, BasicScheduler) - run_with(1, DataScheduler)
        gap_slow = run_with(8, BasicScheduler) - run_with(8, DataScheduler)
        assert gap_slow > gap_fast > 0

    def test_odd_cluster_count_same_set_conflict(self, sharing_app,
                                                 sharing_clustering):
        """With 3 clusters the round boundary pairs two set-0 visits;
        the simulator must serialise them, never overlap."""
        report = _run(sharing_app, sharing_clustering, DataScheduler)
        by_index = {t.index: t for t in report.visits}
        for timing in report.visits[1:]:
            same_set_prev = [
                t for t in report.visits
                if t.index < timing.index and t.fb_set == timing.fb_set
            ]
            if same_set_prev and same_set_prev[-1].index == timing.index - 1:
                # Consecutive same-set visits: prep waited for the set.
                assert timing.prep_finish >= same_set_prev[-1].compute_end


class TestSharedMachineTraceFlag:
    """Runs on one machine must not leak channel state into each other."""

    def _program(self, app, clustering, fb="2K"):
        arch = Architecture.m1(fb)
        schedule = CompleteDataScheduler(arch).schedule(app, clustering)
        return arch, generate_program(schedule)

    def test_untraced_run_does_not_poison_a_later_traced_simulator(
        self, sharing_app, sharing_clustering
    ):
        # Two bugs of a machine-owned DMA channel: an untraced Simulator
        # once flipped the shared trace flag so a traced simulation of
        # the same machine recorded nothing, and every further run on
        # the machine added its timeline and traffic to the last one's.
        arch, program = self._program(sharing_app, sharing_clustering)
        machine = MorphoSysM1(arch)
        untraced = Simulator(machine, trace=False)
        traced = Simulator(machine, trace=True)
        first = untraced.run(program)
        assert first.transfers == ()
        report = traced.run(program)
        assert report.transfers
        again = traced.run(program)
        assert again.transfers == report.transfers
        assert untraced.run(program) == first
        for later in (report, again):
            for field in (
                "total_cycles", "dma_busy_cycles",
                "data_load_words", "data_store_words", "context_words",
                "data_load_count", "data_store_count",
                "context_load_count", "visits",
            ):
                assert getattr(later, field) == getattr(first, field), field
