"""Functional-mode tests: schedules must preserve data semantics."""

import numpy as np
import pytest

from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.core.cluster import Clustering
from repro.errors import SimulationError
from repro.schedule.basic import BasicScheduler
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.sim.engine import Simulator
from repro.sim.functional import (
    populate_external_inputs,
    reference_outputs,
    surrogate_kernel,
)


def _functional_run(app, clustering, scheduler_cls, fb="2K", seed=11):
    arch = Architecture.m1(fb)
    schedule = scheduler_cls(arch).schedule(app, clustering)
    machine = MorphoSysM1(arch)
    return Simulator(machine).run(
        generate_program(schedule), functional=True, seed=seed
    )


class TestSurrogate:
    def test_deterministic(self, sharing_app):
        impl = surrogate_kernel(sharing_app, "k1")
        inputs = {"d": np.arange(256), "shared": np.arange(128)}
        first = impl(inputs, 3)
        second = impl(inputs, 3)
        assert np.array_equal(first["r1"], second["r1"])

    def test_sensitive_to_every_input_word(self, sharing_app):
        impl = surrogate_kernel(sharing_app, "k1")
        base = {"d": np.arange(256), "shared": np.arange(128)}
        changed = {"d": base["d"].copy(), "shared": base["shared"].copy()}
        changed["shared"][77] += 1
        assert not np.array_equal(
            impl(base, 0)["r1"], impl(changed, 0)["r1"]
        )

    def test_sensitive_to_iteration(self, sharing_app):
        impl = surrogate_kernel(sharing_app, "k1")
        inputs = {"d": np.arange(256), "shared": np.arange(128)}
        assert not np.array_equal(
            impl(inputs, 0)["r1"], impl(inputs, 1)["r1"]
        )

    def test_missing_input_rejected(self, sharing_app):
        impl = surrogate_kernel(sharing_app, "k1")
        with pytest.raises(SimulationError, match="missing"):
            impl({"d": np.arange(256)}, 0)

    def test_output_sizes_match_objects(self, sharing_app):
        impl = surrogate_kernel(sharing_app, "k3")
        out = impl({"r2": np.zeros(192), "shared": np.zeros(128),
                    "r1": np.zeros(192)}, 0)
        assert out["out"].size == 128


class TestReferenceExecution:
    def test_produces_all_finals(self, sharing_app):
        from repro.arch.external_memory import ExternalMemory
        from repro.sim.functional import build_impls
        memory = ExternalMemory()
        populate_external_inputs(sharing_app, memory)
        golden = reference_outputs(
            sharing_app, memory, build_impls(sharing_app)
        )
        assert len(golden) == sharing_app.total_iterations
        assert all(name == "out" for name, _ in golden)

    def test_missing_inputs_rejected(self, sharing_app):
        from repro.arch.external_memory import ExternalMemory
        from repro.sim.functional import build_impls
        with pytest.raises(SimulationError, match="missing"):
            reference_outputs(
                sharing_app, ExternalMemory(), build_impls(sharing_app)
            )


class TestEndToEnd:
    def test_all_schedulers_preserve_semantics(self, sharing_app,
                                               sharing_clustering):
        for scheduler_cls in (BasicScheduler, DataScheduler,
                              CompleteDataScheduler):
            report = _functional_run(
                sharing_app, sharing_clustering, scheduler_cls
            )
            assert report.functional_verified is True, scheduler_cls.name

    def test_keeps_preserve_semantics(self, sharing_app,
                                      sharing_clustering):
        """The CDS run exercises retained data and results."""
        arch = Architecture.m1("2K")
        schedule = CompleteDataScheduler(arch).schedule(
            sharing_app, sharing_clustering
        )
        assert schedule.keeps  # the interesting path is active
        report = _functional_run(
            sharing_app, sharing_clustering, CompleteDataScheduler
        )
        assert report.functional_verified is True

    def test_invariant_data_preserved(self, invariant_app):
        clustering = Clustering.per_kernel(invariant_app)
        for scheduler_cls in (BasicScheduler, DataScheduler,
                              CompleteDataScheduler):
            report = _functional_run(
                invariant_app, clustering, scheduler_cls, fb="2K"
            )
            assert report.functional_verified is True

    def test_multi_kernel_clusters(self, multi_kernel_app,
                                   multi_clustering):
        report = _functional_run(
            multi_kernel_app, multi_clustering, CompleteDataScheduler,
            fb="1K",
        )
        assert report.functional_verified is True

    def test_different_seeds_different_data(self, sharing_app,
                                            sharing_clustering):
        first = _functional_run(
            sharing_app, sharing_clustering, DataScheduler, seed=1
        )
        second = _functional_run(
            sharing_app, sharing_clustering, DataScheduler, seed=2
        )
        # Timing identical, data different — both verified.
        assert first.functional_verified and second.functional_verified
        assert first.total_cycles == second.total_cycles

    def test_library_impl_override(self, sharing_app, sharing_clustering):
        """A custom kernel implementation flows through the pipeline."""
        arch = Architecture.m1("2K")
        schedule = DataScheduler(arch).schedule(
            sharing_app, sharing_clustering
        )

        def doubler(inputs, iteration):
            del iteration
            return {"r2": np.asarray(inputs["r1"], dtype=np.int64) * 2}

        machine = MorphoSysM1(arch)
        report = Simulator(machine).run(
            generate_program(schedule),
            functional=True,
            kernel_impls={"k2": doubler},
        )
        assert report.functional_verified is True


class TestAccountingLeavesMemoryUntouched:
    def test_accounting_then_functional_on_one_machine(
        self, sharing_app, sharing_clustering
    ):
        """An accounting run writes nothing to external memory, so a
        functional run on the same machine afterwards still seeds real
        inputs and verifies."""
        arch = Architecture.m1("2K")
        program = generate_program(
            CompleteDataScheduler(arch).schedule(
                sharing_app, sharing_clustering
            )
        )
        machine = MorphoSysM1(arch)
        accounting = Simulator(machine).run(program, functional=False)
        assert accounting.functional_verified is None
        memory = machine.external_memory
        assert not any(
            memory.instances_of(name) for name in sharing_app.objects
        )
        assert memory.words_read == memory.words_written == 0

        report = Simulator(machine).run(program, functional=True)
        assert report.functional_verified is True
        assert report.total_cycles == accounting.total_cycles
