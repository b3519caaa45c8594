"""Infeasible cases never perturb their batch neighbours.

Both ways of running many cases in one call — the schedule layer's
:func:`~repro.schedule.batch.compile_many` and the service's
``/v1/batch`` (one :func:`~repro.analysis.compare.run_scheduler` per
case, cache on) — must give every feasible case the same result
whether or not infeasible cases sit before, between and after it.
"""

from repro.arch.params import Architecture
from repro.errors import InfeasibleScheduleError
from repro.fuzz.generator import generate_case
from repro.schedule.batch import CompileRequest, compile_many
from repro.service.protocol import encode_json, execute_request
from repro.workloads.random_gen import random_application

_NAMES = ("basic", "ds", "cds")


def _doomed_requests():
    """One tiny_fb case squeezed to 64 words: all three infeasible."""
    case = generate_case("tiny_fb", 0)
    case.fb_words = 64
    application, clustering = case.build()
    return [
        CompileRequest(name, application, case.architecture(), clustering)
        for name in _NAMES
    ]


def _batch(cases, cache_dir):
    status, payload, _ = execute_request(
        "batch", {"cases": cases, "trace": False}, str(cache_dir)
    )
    assert status == 200
    return payload["results"]


def test_mixed_batch_no_neighbor_poisoning(tmp_path):
    """Feasible items come out identical whether or not infeasible
    items sit before, between and after them in the batch."""
    application, clustering = random_application(11, iterations=4)
    feasible = [
        CompileRequest(name, application, Architecture.m1("4K"), clustering)
        for name in _NAMES
    ]
    doomed = _doomed_requests()
    mixed = [doomed[0], feasible[0], doomed[1], feasible[1],
             feasible[2], doomed[2]]

    alone = compile_many(feasible)
    shared = compile_many(mixed)
    assert [shared[1], shared[3], shared[4]] == alone
    assert all(result.error is None for result in alone)
    for index in (0, 2, 5):
        assert shared[index].schedule is None
        assert isinstance(shared[index].error, InfeasibleScheduleError)

    good = [
        {"experiment": "E1", "scheduler": name} for name in _NAMES
    ]
    bad = [
        {"experiment": "MPEG", "fb_words": "512", "scheduler": name}
        for name in _NAMES
    ]
    cases = [bad[0], good[0], bad[1], good[1], good[2], bad[2]]
    alone = _batch(good, tmp_path / "alone")
    # Run the mixed batch cold, then warm, against its own cache.
    for _ in range(2):
        shared = _batch(cases, tmp_path / "mixed")
        assert encode_json([shared[1], shared[3], shared[4]]) == (
            encode_json(alone)
        )
        assert [result["feasible"] for result in shared] == [
            False, True, False, True, True, False,
        ]
