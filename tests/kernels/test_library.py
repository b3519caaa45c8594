"""Tests for the kernel-library registry and simulator adapters."""

import numpy as np
import pytest

from repro.core.application import Application
from repro.core.kernel import Kernel
from repro.errors import WorkloadError
from repro.kernels import default_library
from repro.kernels.library import KernelLibrary


@pytest.fixture(scope="module")
def library():
    return default_library()


def _dct_app(block=64):
    return (
        Application.build("dct-app", total_iterations=2)
        .data("x", block)
        .kernel("dct", context_words=24, cycles=300, inputs=["x"],
                outputs=["y"], result_sizes={"y": block},
                library_op="dct8x8")
        .final("y")
        .finish()
    )


class TestRegistry:
    def test_default_has_thirteen_kernels(self, library):
        assert len(library.ops()) == 13

    def test_contains(self, library):
        assert "dct8x8" in library
        assert "warp_drive" not in library

    def test_get_missing(self, library):
        with pytest.raises(KeyError, match="available"):
            library.get("warp_drive")

    def test_double_registration_rejected(self, library):
        fresh = KernelLibrary()
        fresh.register(library.get("sad16"))
        with pytest.raises(WorkloadError, match="already registered"):
            fresh.register(library.get("sad16"))


class TestImplAdapter:
    def test_impl_for_runs_real_kernel(self, library):
        app = _dct_app()
        impl = library.impl_for(app, app.kernel("dct"))
        rng = np.random.RandomState(0)
        x = rng.randint(-128, 128, size=64).astype(np.int64)
        out = impl({"x": x}, 0)
        entry = library.get("dct8x8")
        expected = entry.run_reference({"x": x.reshape(8, 8)})["y"]
        assert np.array_equal(out["y"], expected.ravel())

    def test_size_mismatch_rejected(self, library):
        app = (
            Application.build("bad", total_iterations=1)
            .data("x", 32)  # dct8x8 needs 64 words
            .kernel("dct", context_words=24, cycles=300, inputs=["x"],
                    outputs=["y"], result_sizes={"y": 64},
                    library_op="dct8x8")
            .final("y")
            .finish()
        )
        with pytest.raises(WorkloadError, match="words"):
            library.impl_for(app, app.kernel("dct"))

    def test_arity_mismatch_rejected(self, library):
        app = (
            Application.build("bad2", total_iterations=1)
            .data("x", 64).data("extra", 64)
            .kernel("dct", context_words=24, cycles=300,
                    inputs=["x", "extra"],
                    outputs=["y"], result_sizes={"y": 64},
                    library_op="dct8x8")
            .final("y")
            .finish()
        )
        with pytest.raises(WorkloadError, match="inputs"):
            library.impl_for(app, app.kernel("dct"))

    def test_no_library_op_rejected(self, library):
        app = _dct_app()
        plain = Kernel("plain", context_words=8, cycles=10,
                       inputs=("x",), outputs=("y",))
        with pytest.raises(WorkloadError, match="library_op"):
            library.impl_for(app, plain)

    def test_impls_for_skips_plain_kernels(self, library):
        app = (
            Application.build("mixed", total_iterations=1)
            .data("x", 64)
            .kernel("dct", context_words=24, cycles=300, inputs=["x"],
                    outputs=["y"], result_sizes={"y": 64},
                    library_op="dct8x8")
            .kernel("post", context_words=8, cycles=50, inputs=["y"],
                    outputs=["z"], result_sizes={"z": 16})
            .final("z")
            .finish()
        )
        impls = library.impls_for(app)
        assert set(impls) == {"dct"}


class TestFunctionalPipeline:
    def test_mpeg_functional_end_to_end(self):
        """The real-kernel MPEG pipeline runs through the full
        schedule/simulate stack and matches its reference."""
        from repro.arch.machine import MorphoSysM1
        from repro.arch.params import Architecture
        from repro.codegen.generator import generate_program
        from repro.schedule.complete import CompleteDataScheduler
        from repro.sim.engine import Simulator
        from repro.workloads.mpeg import mpeg_functional

        application, clustering, impls = mpeg_functional()
        arch = Architecture.m1("2K")
        schedule = CompleteDataScheduler(arch).schedule(
            application, clustering
        )
        machine = MorphoSysM1(arch)
        report = Simulator(machine).run(
            generate_program(schedule), functional=True, kernel_impls=impls
        )
        assert report.functional_verified is True
        # The pipeline actually computed something: the zig-zag output
        # exists in external memory for every iteration.
        for iteration in range(application.total_iterations):
            assert machine.external_memory.get("z", iteration) is not None
