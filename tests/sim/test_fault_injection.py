"""Fault-injection tests: the functional pipeline must *detect* bugs,
not just pass when everything is correct.

Each test plants a specific defect — a wrong kernel implementation, a
dropped store, a corrupted keep — and asserts the right layer catches
it (the verifier statically, or the functional simulator's
golden-output comparison dynamically)."""

import dataclasses

import numpy as np
import pytest

from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.codegen.program import Program
from repro.errors import ProgramVerificationError, SimulationError
from repro.schedule.complete import CompleteDataScheduler
from repro.sim.engine import Simulator


@pytest.fixture
def schedule(sharing_app, sharing_clustering):
    return CompleteDataScheduler(Architecture.m1("2K")).schedule(
        sharing_app, sharing_clustering
    )


@pytest.fixture
def program(schedule):
    return generate_program(schedule)


class TestWrongComputation:
    """The golden comparison verifies the *schedule*: both the reference
    and the scheduled run use the same kernel implementations, so a
    consistently-wrong kernel cancels out (that is kernel-library
    territory, covered by tests/kernels).  What the comparison must
    catch is any divergence between the two runs — nondeterminism, or
    state leaking between invocations."""

    def test_nondeterministic_kernel_detected(self, program):
        from repro.sim.functional import surrogate_kernel
        app = program.schedule.application
        correct = surrogate_kernel(app, "k2")
        calls = {"n": 0}

        def flaky(inputs, iteration):
            calls["n"] += 1
            outputs = correct(inputs, iteration)
            if calls["n"] > app.total_iterations:
                # Reference pass done; corrupt the scheduled pass.
                outputs["r2"] = outputs["r2"] + 1
            return outputs

        machine = MorphoSysM1(Architecture.m1("2K"))
        with pytest.raises(SimulationError, match="mismatch"):
            Simulator(machine).run(
                program, functional=True, kernel_impls={"k2": flaky}
            )

    def test_stateful_kernel_detected(self, program):
        """An implementation accumulating hidden state across calls
        diverges between the reference and scheduled runs (which invoke
        it in different interleavings)."""
        state = {"acc": 0}

        def leaky(inputs, iteration):
            state["acc"] += 1
            value = sum(int(np.sum(v)) for v in inputs.values())
            return {
                "r1": np.full(192, (value + state["acc"]) % 65536,
                              dtype=np.int64)
            }

        machine = MorphoSysM1(Architecture.m1("2K"))
        with pytest.raises(SimulationError, match="mismatch"):
            Simulator(machine).run(
                program, functional=True, kernel_impls={"k1": leaky}
            )


class TestCorruptedPrograms:
    def test_dropped_store_caught_statically(self, program):
        visits = list(program.visits)
        index = next(
            i for i, ops in enumerate(visits)
            if any(s.name == "out" for s in ops.stores)
        )
        visits[index] = dataclasses.replace(
            visits[index],
            stores=tuple(
                s for s in visits[index].stores if s.name != "out"
            ),
        )
        bad = Program(schedule=program.schedule, visits=tuple(visits))
        with pytest.raises(ProgramVerificationError):
            Simulator(
                MorphoSysM1(Architecture.m1("2K"))
            ).run(bad)

    def test_unverified_corrupt_program_caught_dynamically(self, program):
        """Even with the static verifier disabled, the functional run
        trips on the missing operand."""
        visits = list(program.visits)
        visits[0] = dataclasses.replace(
            visits[0],
            data_loads=tuple(
                l for l in visits[0].data_loads if l.name != "d"
            ),
        )
        bad = Program(schedule=program.schedule, visits=tuple(visits))
        machine = MorphoSysM1(Architecture.m1("2K"))
        with pytest.raises(SimulationError, match="not in set"):
            Simulator(machine, verify=False).run(bad, functional=True)


class TestCorruptedKeeps:
    def test_stripped_keeps_fail_functionally(self, schedule, program):
        """Remove the keeps from the schedule while leaving the op
        stream (which omits the kept loads): the drain logic now drops
        the data and the functional run fails — retention is
        load-bearing, not an accounting trick."""
        assert schedule.keeps
        stripped = dataclasses.replace(schedule, keeps=())
        bad = Program(schedule=stripped, visits=program.visits)
        machine = MorphoSysM1(Architecture.m1("2K"))
        with pytest.raises((SimulationError, ProgramVerificationError)):
            Simulator(machine, verify=False).run(bad, functional=True)


class TestSeedIsolation:
    def test_prepopulated_memory_respected(self, program):
        """If the caller pre-populates external memory, the simulator
        uses those values rather than reseeding."""
        from repro.sim.functional import populate_external_inputs
        app = program.schedule.application
        machine = MorphoSysM1(Architecture.m1("2K"))
        populate_external_inputs(app, machine.external_memory, seed=123)
        marker = machine.external_memory.get("d", 0).copy()
        report = Simulator(machine).run(program, functional=True, seed=999)
        assert report.functional_verified
        assert np.array_equal(machine.external_memory.get("d", 0), marker)
