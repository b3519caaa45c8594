"""Tests for the exception hierarchy and the top-level public API."""

import pytest

import repro
from repro import errors


class TestHierarchy:
    def test_everything_is_repro_error(self):
        for name in errors.__all__:
            if name == "ReproError":
                continue
            exc_type = getattr(errors, name)
            assert issubclass(exc_type, errors.ReproError), name

    def test_specific_parents(self):
        assert issubclass(errors.DataflowError, errors.ApplicationError)
        assert issubclass(errors.CapacityError, errors.ArchitectureError)
        assert issubclass(errors.FragmentationError, errors.AllocationError)
        assert issubclass(errors.ProgramVerificationError, errors.CodegenError)

    def test_infeasible_carries_context(self):
        exc = errors.InfeasibleScheduleError(
            "nope", cluster="Cl1", required=100, available=50
        )
        assert exc.cluster == "Cl1"
        assert exc.required == 100
        assert exc.available == 50

    def test_catch_all(self):
        """One except clause covers every library failure."""
        with pytest.raises(errors.ReproError):
            raise errors.SimulationError("boom")


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_simulate_default_architecture(self, sharing_app,
                                           sharing_clustering):
        schedule = repro.DataScheduler(
            repro.Architecture.m1("2K")
        ).schedule(sharing_app, sharing_clustering)
        report = repro.simulate(schedule)  # architecture inferred
        assert report.total_cycles > 0

    def test_docstring_example_runs(self):
        """The quickstart in repro.__doc__ must stay executable."""
        app = (
            repro.Application.build("demo", total_iterations=32)
            .data("d", "0.5K")
            .kernel("k1", context_words=32, cycles=600, inputs=["d"],
                    outputs=["r"], result_sizes={"r": 256})
            .kernel("k2", context_words=32, cycles=500, inputs=["r"],
                    outputs=["out"], result_sizes={"out": 256})
            .final("out")
            .finish()
        )
        arch = repro.Architecture.m1("2K")
        schedule = repro.CompleteDataScheduler(arch).schedule(
            app, repro.Clustering.per_kernel(app))
        report = repro.simulate(schedule, arch)
        assert report.total_cycles > 0


class TestMachine:
    def test_machine_reset(self):
        machine = repro.MorphoSysM1.m1("1K")
        machine.external_memory.put("x", 0, size=8)
        machine.reset()
        assert not machine.external_memory.exists("x", 0)

    def test_str(self):
        text = str(repro.MorphoSysM1.m1("1K"))
        assert text.startswith("MorphoSysM1(")
        assert str(repro.Architecture.m1("1K")) in text
