"""Small-surface tests: CLI sweep, wavelet workload, report edges,
program listing, allocator fit policies."""

import pytest

from repro.alloc.allocator import FrameBufferAllocator
from repro.alloc.free_list import FreeBlockList
from repro.arch.params import Architecture
from repro.cli import main
from repro.errors import AllocationError
from repro.schedule.complete import CompleteDataScheduler


class TestCliSweep:
    def test_sweep_command(self, capsys):
        assert main(["sweep", "ATR-FI"]) == 0
        out = capsys.readouterr().out
        assert "frame-buffer sweep" in out
        assert "infeasible" in out  # the 0.5K point


class TestWaveletWorkload:
    def test_builds_and_runs(self):
        from repro.arch.machine import MorphoSysM1
        from repro.codegen.generator import generate_program
        from repro.sim.engine import Simulator
        from repro.workloads.wavelet import wavelet_functional

        application, clustering, impls = wavelet_functional()
        assert set(impls) == {k.name for k in application.kernels}
        arch = Architecture.m1("1K")
        schedule = CompleteDataScheduler(arch).schedule(
            application, clustering
        )
        machine = MorphoSysM1(arch)
        report = Simulator(machine).run(
            generate_program(schedule), functional=True,
            kernel_impls=impls,
        )
        assert report.functional_verified is True

    def test_cycles_come_from_extractor(self):
        from repro.kernels import default_library
        from repro.workloads.wavelet import wavelet_functional
        library = default_library()
        application, _, _ = wavelet_functional(library)
        assert application.kernel("haar").cycles == \
            library.cycles_for("haar8")


class TestBestFit:
    def test_best_fit_picks_snuggest_block(self):
        fbl = FreeBlockList(100)
        fbl.allocate_at(20, 10)  # free: [0..20) and [30..100)
        extent = fbl.allocate_high(15, best_fit=True)
        # Best fit: the 20-word block, not the 70-word one.
        assert extent.start == 5
        first = FreeBlockList(100)
        first.allocate_at(20, 10)
        assert first.allocate_high(15).start == 85  # first fit: top block

    def test_best_fit_low(self):
        fbl = FreeBlockList(100)
        fbl.allocate_at(20, 10)
        extent = fbl.allocate_low(15, best_fit=True)
        assert extent.start == 0  # the 20-word block is snuggest

    def test_allocator_rejects_unknown_policy(self, sharing_app,
                                              sharing_clustering):
        schedule = CompleteDataScheduler(Architecture.m1("2K")).schedule(
            sharing_app, sharing_clustering
        )
        with pytest.raises(AllocationError):
            FrameBufferAllocator(schedule, fit_policy="random")

    def test_best_fit_allocator_still_correct(self, sharing_app,
                                              sharing_clustering):
        schedule = CompleteDataScheduler(Architecture.m1("2K")).schedule(
            sharing_app, sharing_clustering
        )
        allocator = FrameBufferAllocator(schedule, fit_policy="best")
        for fb_set in (0, 1):
            allocation = allocator.allocate_set(fb_set)
            allocation.verify()


class TestReportEdges:
    def test_empty_gantt(self):
        from repro.sim.report import SimulationReport
        report = SimulationReport(
            scheduler="x", application="y", total_cycles=0,
            compute_cycles=0, rc_stall_cycles=0, dma_busy_cycles=0,
            data_load_words=0, data_store_words=0, context_words=0,
            data_load_count=0, data_store_count=0, context_load_count=0,
            visits=(), transfers=(),
        )
        assert report.gantt() == "(empty run)"
        assert report.rc_utilisation == 0.0

    def test_improvement_over_zero_baseline_rejected(self):
        from repro.sim.report import SimulationReport
        zero = SimulationReport(
            scheduler="x", application="y", total_cycles=0,
            compute_cycles=0, rc_stall_cycles=0, dma_busy_cycles=0,
            data_load_words=0, data_store_words=0, context_words=0,
            data_load_count=0, data_store_count=0, context_load_count=0,
            visits=(), transfers=(),
        )
        with pytest.raises(ValueError):
            zero.improvement_over(zero)


class TestProgramListing:
    def test_full_listing_has_every_visit(self, sharing_app,
                                          sharing_clustering):
        from repro.codegen.generator import generate_program
        schedule = CompleteDataScheduler(Architecture.m1("2K")).schedule(
            sharing_app, sharing_clustering
        )
        program = generate_program(schedule)
        listing = program.listing()  # max_visits=0: everything
        assert f"visit {len(program) - 1}" in listing
        assert "more visits" not in listing


class TestCliTinyrisc:
    def test_tinyrisc_command(self, capsys):
        assert main(["tinyrisc", "E1", "--lines", "10"]) == 0
        out = capsys.readouterr().out
        assert "ldctxt" in out
        assert "instructions" in out
        assert "more instructions" in out
