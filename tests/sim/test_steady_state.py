"""Steady-state shifting: the untraced walk stamps periodic rounds.

An untraced run of a template-compiled program, functional or not,
walks the full rounds of ``Schedule.round_stretches()`` only until two
consecutive round-boundary states are equal, then stamps the
remaining full rounds by shift (``repro.sim.engine``).
A traced run walks every visit, so it is the oracle: every case here
compares the untraced report with the traced one, all fields except
the per-transfer trace, and checks the ``rounds_walked`` /
``rounds_shifted`` counters that say which path ran.
"""

import dataclasses
import pickle

import pytest

from repro.analysis.compare import run_scheduler
from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.errors import InfeasibleScheduleError
from repro.fuzz.generator import generate_case, regime_names
from repro.fuzz import oracles
from repro.fuzz.runner import _task_matrix
from repro.obs.metrics import request_scope
from repro.schedule import SCHEDULERS
from repro.schedule.context_scheduler import DmaPolicy
from repro.sim.engine import Simulator
from repro.sim.report import PeriodicVisits
from repro.workloads.random_gen import random_application
from repro.workloads.spec import paper_experiments

#: ``make fuzz-quick`` sweeps seeds 0-59 round-robin over the regimes.
FUZZ_QUICK_SEEDS = range(60)


def untraced_matches_traced(
    architecture, program, policy=DmaPolicy.CONTEXTS_FIRST
) -> Simulator:
    """Simulate *program* untraced and traced, assert the reports agree
    on every field but the trace, and return the untraced simulator."""
    untraced = Simulator(
        MorphoSysM1(architecture), dma_policy=policy, trace=False,
        verify=False,
    )
    report = untraced.run(program)
    traced = Simulator(
        MorphoSysM1(architecture), dma_policy=policy, trace=True,
        verify=False,
    )
    reference = traced.run(program)
    assert dataclasses.replace(reference, transfers=()) == report
    assert traced.rounds_shifted == 0
    assert traced.rounds_walked == program.schedule.rounds
    assert (
        untraced.rounds_walked + untraced.rounds_shifted
        == program.schedule.rounds
    )
    return untraced


def random_program(seed, iterations, fb, scheduler):
    application, clustering = random_application(seed, iterations=iterations)
    architecture = Architecture.m1(fb)
    schedule = SCHEDULERS[scheduler](architecture).schedule(
        application, clustering
    )
    return architecture, generate_program(schedule)


def paper_program(spec_id, scheduler="cds"):
    spec = next(s for s in paper_experiments() if s.id == spec_id)
    application, clustering = spec.build()
    architecture = Architecture.m1(spec.fb)
    schedule = SCHEDULERS[scheduler](architecture).schedule(
        application, clustering
    )
    return architecture, generate_program(schedule)


def test_steady_state_arriving_late():
    """The boundary states before rounds 1 and 2 differ; those before
    rounds 2 and 3 are equal."""
    architecture, program = random_program(0, 145, "8K", "ds")
    assert program.schedule.rounds == 13
    simulator = untraced_matches_traced(
        architecture, program, DmaPolicy.LOADS_FIRST
    )
    # Rounds 0-2 and the last two are walked; rounds 3-10 are shifted.
    assert (simulator.rounds_walked, simulator.rounds_shifted) == (5, 8)


def test_steady_state_never_arriving_walks_every_round():
    """No repeat within the probe: the walk falls back to every visit."""
    architecture, program = random_program(33, 110, "16K", "ds")
    assert program.schedule.rounds == 5
    simulator = untraced_matches_traced(
        architecture, program, DmaPolicy.LOADS_FIRST
    )
    assert (simulator.rounds_walked, simulator.rounds_shifted) == (5, 0)


def test_partial_last_round_pinned():
    """A prime iteration count leaves a one-iteration last round; the
    round before it reads the partial round's rows, so it is walked."""
    case = generate_case("nondivisor_rf", 0)
    application, clustering = case.build()
    architecture = case.architecture()
    program = generate_program(
        SCHEDULERS["ds"](architecture).schedule(application, clustering)
    )
    schedule = program.schedule
    assert schedule.iterations_in_round(schedule.rounds - 1) < schedule.rf
    untraced_matches_traced(architecture, program)
    report = Simulator(
        MorphoSysM1(architecture), trace=False, verify=False
    ).run(program)
    assert report.total_cycles == 12_605


def test_partial_last_round_with_shifted_rounds():
    case = generate_case("nondivisor_rf", 2)
    application, clustering = case.build()
    architecture = case.architecture()
    program = generate_program(
        SCHEDULERS["ds"](architecture).schedule(application, clustering)
    )
    schedule = program.schedule
    assert schedule.iterations_in_round(schedule.rounds - 1) < schedule.rf
    simulator = untraced_matches_traced(architecture, program)
    # Rounds 0, 1 and the last two are walked.
    assert (simulator.rounds_walked, simulator.rounds_shifted) == (4, 3)


@pytest.mark.parametrize("policy", list(DmaPolicy), ids=lambda p: p.value)
def test_odd_cluster_count_shares_a_set_across_rounds(policy):
    architecture, program = random_program(1, 54, "8K", "basic")
    width = len(program.schedule.clustering)
    assert width % 2 == 1
    visits = program.visits
    assert visits[width - 1].visit.fb_set == visits[width].visit.fb_set
    simulator = untraced_matches_traced(architecture, program, policy)
    assert simulator.rounds_shifted > 0


@pytest.mark.parametrize("policy", list(DmaPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("scheduler", list(SCHEDULERS))
def test_every_policy_shifts_exactly(policy, scheduler):
    architecture, program = paper_program("E1", scheduler)
    simulator = untraced_matches_traced(architecture, program, policy)
    assert simulator.rounds_shifted > 0


def test_edited_materialised_program_walks_every_round():
    """Periodicity comes from the schedule, so only a template-compiled
    program is shifted: a materialised program, here with one visit's
    loads edited in round 30 of 48, walks all its rounds and times the
    edited visit as it is."""
    architecture, program = paper_program("E1")
    width = len(program.schedule.clustering)
    visits = list(program.visits)
    edited = 30 * width + 1
    ops = visits[edited]
    visits[edited] = dataclasses.replace(
        ops, data_loads=ops.data_loads[:-1]
    )
    program = dataclasses.replace(program, visits=tuple(visits))
    simulator = untraced_matches_traced(architecture, program)
    assert (simulator.rounds_walked, simulator.rounds_shifted) == (48, 0)
    unedited = Simulator(
        MorphoSysM1(architecture), trace=False, verify=False
    ).run(paper_program("E1")[1])
    assert unedited.data_load_words > Simulator(
        MorphoSysM1(architecture), trace=False, verify=False
    ).run(program).data_load_words


def test_untraced_functional_run_shifts_rounds():
    """Values are replayed outside the timing walk, so an untraced
    functional run shifts rounds like any untraced run and reports
    exactly what the traced functional run does."""
    architecture, program = paper_program("E1")
    assert program.schedule.rounds >= 5
    untraced = Simulator(MorphoSysM1(architecture), trace=False)
    report = untraced.run(program, functional=True)
    assert untraced.rounds_shifted > 0
    assert report.functional_verified is True
    traced = Simulator(MorphoSysM1(architecture), trace=True)
    reference = traced.run(program, functional=True)
    assert traced.rounds_shifted == 0
    assert dataclasses.replace(reference, transfers=()) == report
    assert (
        untraced.functional_loaded_words, untraced.functional_dead_words
    ) == (traced.functional_loaded_words, traced.functional_dead_words)


def test_every_table1_run_shifts_rounds():
    """The fast path must not switch off silently."""
    for spec in paper_experiments():
        application, clustering = spec.build()
        architecture = Architecture.m1(spec.fb)
        for scheduler_cls in SCHEDULERS.values():
            try:
                schedule = scheduler_cls(architecture).schedule(
                    application, clustering
                )
            except InfeasibleScheduleError:
                continue
            simulator = Simulator(MorphoSysM1(architecture), trace=False)
            simulator.run(generate_program(schedule))
            assert simulator.rounds_shifted > 0, (
                f"{spec.id}/{scheduler_cls.name}"
            )


def test_run_scheduler_records_the_round_counters():
    spec = next(s for s in paper_experiments() if s.id == "E1")
    application, clustering = spec.build()
    architecture = Architecture.m1(spec.fb)
    with request_scope(merge_into_global=False) as registry:
        run_scheduler(
            SCHEDULERS["cds"](architecture), application, clustering,
            architecture, trace=False,
        )
    counters = registry.snapshot()["counters"]
    walked = counters["pipeline.cds/rounds_walked"]
    shifted = counters["pipeline.cds/rounds_shifted"]
    assert walked + shifted == 48
    assert walked <= 4


def test_fuzz_quick_pipeline_runs_take_the_shift_path(monkeypatch):
    """The ``simengine`` oracle compares the untraced pipeline report
    with a traced re-simulation; some of the ``make fuzz-quick`` cases
    must shift rounds for that oracle to cover the shift path."""
    shifted = []

    class Recording(Simulator):
        def run(self, program, **kwargs):
            report = super().run(program, **kwargs)
            if not self.trace:
                shifted.append(self.rounds_shifted)
            return report

    monkeypatch.setattr(oracles, "Simulator", Recording)
    for regime, seed, *_ in _task_matrix(
        FUZZ_QUICK_SEEDS, regime_names(), True, False, None, None
    ):
        failures = oracles.run_oracles(
            generate_case(regime, seed), oracles=("simengine",),
            functional=False,
        )
        assert not failures
    assert sum(1 for rounds in shifted if rounds) >= 10


# -- the periodic visit sequence ---------------------------------------------


def assert_behaves_as_tuple(visits, expected):
    """*visits* answers every sequence question as the tuple
    *expected* does."""
    assert isinstance(visits, PeriodicVisits)
    assert isinstance(expected, tuple)
    count = len(expected)
    assert len(visits) == count
    for position in range(count):
        assert visits[position] == expected[position]
        assert visits[position - count] == expected[position - count]
    assert visits[-1] == expected[-1]
    with pytest.raises(IndexError):
        visits[count]
    with pytest.raises(IndexError):
        visits[-count - 1]
    for piece in (
        slice(None), slice(1, None, 3), slice(None, None, -1),
        slice(count - 5, count + 5), slice(-7, -2), slice(3, 3),
    ):
        assert isinstance(visits[piece], tuple)
        assert visits[piece] == expected[piece]
    assert list(visits) == list(expected)
    assert visits == expected
    assert expected == visits
    assert not visits != expected
    assert visits != expected[:-1]
    assert hash(visits) == hash(expected)
    restored = pickle.loads(pickle.dumps(visits))
    assert isinstance(restored, PeriodicVisits)
    assert restored == expected
    assert expected == restored


def assert_visits_match_traced(architecture, program):
    simulator = untraced_matches_traced(architecture, program)
    report = Simulator(
        MorphoSysM1(architecture), trace=False, verify=False
    ).run(program)
    traced = Simulator(
        MorphoSysM1(architecture), trace=True, verify=False
    ).run(program)
    assert report.visits == traced.visits
    assert_behaves_as_tuple(report.visits, tuple(traced.visits))
    assert_behaves_as_tuple(traced.visits, tuple(traced.visits))
    # An unshifted run's report pickles as it did with a tuple.
    assert pickle.dumps(traced) == pickle.dumps(
        dataclasses.replace(traced, visits=tuple(traced.visits))
    )
    assert report.gantt() == dataclasses.replace(
        traced, transfers=()
    ).gantt()
    return simulator


def test_every_table1_run_keeps_the_tuple_protocol():
    for spec in paper_experiments():
        application, clustering = spec.build()
        architecture = Architecture.m1(spec.fb)
        for scheduler_cls in SCHEDULERS.values():
            try:
                schedule = scheduler_cls(architecture).schedule(
                    application, clustering
                )
            except InfeasibleScheduleError:
                continue
            assert_visits_match_traced(
                architecture, generate_program(schedule)
            )


def test_long_run_keeps_the_tuple_protocol():
    architecture, program = random_program(0, 4_800, "16K", "cds")
    simulator = assert_visits_match_traced(architecture, program)
    assert simulator.rounds_shifted > 150


def test_untraced_long_run_stamps_only_walked_rounds():
    """Shifted rounds stay periodic until read: the report holds
    timings for the walked rounds only, reading a shifted visit stamps
    that visit alone, and the pickle keeps the periodic form."""
    architecture, program = random_program(0, 9_600, "16K", "cds")
    width = len(program.schedule.clustering)
    simulator = Simulator(
        MorphoSysM1(architecture), trace=False, verify=False
    )
    visits = simulator.run(program).visits
    assert simulator.rounds_walked <= 4
    assert len(visits._walked) == simulator.rounds_walked * width
    assert len(visits) == program.schedule.rounds * width
    middle = visits[len(visits) // 2]
    assert middle.index == len(visits) // 2
    assert len(visits._walked) == simulator.rounds_walked * width
    assert len(pickle.dumps(visits)) * 50 < len(pickle.dumps(tuple(visits)))
