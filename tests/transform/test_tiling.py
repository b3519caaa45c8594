"""Tests for intra-kernel tiling (future work: data management within
a kernel)."""

import pytest

from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.codegen.verifier import verify_program
from repro.core.application import Application
from repro.core.cluster import Clustering
from repro.errors import InfeasibleScheduleError, WorkloadError
from repro.schedule.data_scheduler import DataScheduler
from repro.sim.engine import Simulator
from repro.transform.tiling import tile_kernel, tiled_names


@pytest.fixture
def fat_app():
    """An application whose middle kernel's working set (1600 words)
    exceeds a 1K frame-buffer set."""
    return (
        Application.build("fat", total_iterations=4)
        .data("stream", 800)
        .data("params", 64, invariant=True)
        .kernel("pre", context_words=32, cycles=100,
                inputs=["params"], outputs=["gain"],
                result_sizes={"gain": 32})
        .kernel("big", context_words=64, cycles=800,
                inputs=["stream", "gain"],
                outputs=["wide"], result_sizes={"wide": 800})
        .kernel("post", context_words=32, cycles=200,
                inputs=["wide"],
                outputs=["out"], result_sizes={"out": 64})
        .final("out")
        .finish()
    )


class TestTransform:
    def test_names(self):
        assert tiled_names("x", 3) == ("x@0", "x@1", "x@2")

    def test_structure(self, fat_app):
        tiled = tile_kernel(fat_app, "big", 4)
        names = tiled.kernel_names
        assert "big@0" in names and "big@3" in names
        assert "big" not in names
        assert len(tiled.kernels) == len(fat_app.kernels) + 3

    def test_private_input_split(self, fat_app):
        tiled = tile_kernel(fat_app, "big", 4)
        assert tiled.object("stream@0").size == 200
        assert "stream" not in tiled.objects
        # Each sub-kernel reads exactly its own tile.
        assert tiled.kernel("big@2").inputs == ("stream@2", "gain")

    def test_shared_input_kept_whole(self, fat_app):
        """'gain' is produced by 'pre'; it stays whole and feeds every
        sub-kernel."""
        tiled = tile_kernel(fat_app, "big", 4)
        for tile in range(4):
            assert "gain" in tiled.kernel(f"big@{tile}").inputs

    def test_outputs_split_and_rewired(self, fat_app):
        tiled = tile_kernel(fat_app, "big", 4)
        assert tiled.object("wide@0").size == 200
        assert set(tiled.kernel("post").inputs) == {
            "wide@0", "wide@1", "wide@2", "wide@3"
        }

    def test_context_words_reused_across_tiles(self, fat_app):
        tiled = tile_kernel(fat_app, "big", 4)
        assert tiled.kernel("big@0").context_words == 64
        assert tiled.kernel("big@1").context_words == 8

    def test_cycles_divided(self, fat_app):
        tiled = tile_kernel(fat_app, "big", 4)
        total = sum(tiled.kernel(f"big@{t}").cycles for t in range(4))
        assert total == 800

    def test_final_outputs_propagate(self):
        app = (
            Application.build("f", total_iterations=2)
            .data("d", 100)
            .kernel("k", context_words=8, cycles=10, inputs=["d"],
                    outputs=["o"], result_sizes={"o": 100})
            .final("o")
            .finish()
        )
        tiled = tile_kernel(app, "k", 2)
        assert tiled.final_outputs == frozenset({"o@0", "o@1"})

    def test_invalid_factor(self, fat_app):
        with pytest.raises(WorkloadError):
            tile_kernel(fat_app, "big", 1)

    def test_unknown_kernel(self, fat_app):
        with pytest.raises(KeyError):
            tile_kernel(fat_app, "ghost", 2)

    def test_oversplit_rejected(self, fat_app):
        with pytest.raises(WorkloadError):
            tile_kernel(fat_app, "big", 1000)

    def test_result_is_valid_application(self, fat_app):
        from repro.core.dataflow import analyze_dataflow
        tiled = tile_kernel(fat_app, "big", 4)
        analyze_dataflow(tiled, Clustering.per_kernel(tiled))


class TestSchedulability:
    def test_infeasible_becomes_feasible(self, fat_app):
        """The paper's motivation: the monolithic kernel cannot fit a
        1K set; the tiled version schedules."""
        arch = Architecture.m1("1K")
        with pytest.raises(InfeasibleScheduleError):
            DataScheduler(arch).schedule(
                fat_app, Clustering.per_kernel(fat_app)
            )
        tiled = tile_kernel(fat_app, "big", 4)
        clustering = Clustering(
            tiled,
            [["pre"], ["big@0", "big@1"], ["big@2", "big@3"], ["post"]],
        )
        schedule = DataScheduler(arch).schedule(tiled, clustering)
        assert schedule.rf >= 1

    def test_tiled_app_runs_functionally(self, fat_app):
        arch = Architecture.m1("1K")
        tiled = tile_kernel(fat_app, "big", 4)
        clustering = Clustering(
            tiled,
            [["pre"], ["big@0", "big@1"], ["big@2", "big@3"], ["post"]],
        )
        schedule = DataScheduler(arch).schedule(tiled, clustering)
        program = generate_program(schedule)
        verify_program(program)
        machine = MorphoSysM1(arch)
        report = Simulator(machine).run(program, functional=True)
        assert report.functional_verified is True

    def test_context_traffic_cheaper_than_naive_split(self, fat_app):
        """Reusing the configuration across tiles keeps context traffic
        close to the untiled kernel's, not factor times it."""
        tiled = tile_kernel(fat_app, "big", 4)
        naive_total = 64 * 4
        actual_total = sum(
            tiled.kernel(f"big@{t}").context_words for t in range(4)
        )
        assert actual_total < naive_total / 2
