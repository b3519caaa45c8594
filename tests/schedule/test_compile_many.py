"""``repro.schedule.batch.compile_many``: many scheduling problems, one call.

One :class:`~repro.schedule.batch.CompileResult` per request, in
request order; each request's schedule equals its scheduler's own
``schedule()`` and each infeasibility is captured in that request's
result instead of raised.
"""

from repro.arch.params import Architecture
from repro.errors import InfeasibleScheduleError
from repro.fuzz.generator import generate_case
from repro.schedule import SCHEDULERS
from repro.schedule.base import ScheduleOptions
from repro.schedule.batch import CompileRequest, compile_many
from repro.workloads.random_gen import random_application


def _doomed_request():
    """A tiny_fb case squeezed to 64 words: infeasible for CDS."""
    case = generate_case("tiny_fb", 0)
    case.fb_words = 64
    application, clustering = case.build()
    return CompileRequest(
        "cds", application, case.architecture(), clustering
    )


def test_empty_input():
    assert compile_many([]) == []


def test_request_order():
    application, clustering = random_application(7, iterations=4)
    requests = [
        CompileRequest(
            name, application, Architecture.m1(fb), clustering,
            ScheduleOptions(rf_cap=rf_cap),
        )
        for name, fb, rf_cap in [
            ("cds", "4K", 0), ("basic", "2K", 0), ("ds", "16K", 1),
            ("cds", "16K", 3),
        ]
    ]
    results = compile_many(requests)
    assert len(results) == len(requests)
    for request, result in zip(requests, results):
        assert result.error is None
        expected = SCHEDULERS[request.scheduler](
            request.architecture, request.options
        ).schedule(application, clustering)
        assert result.schedule == expected


def test_infeasibility_captured_per_request():
    application, clustering = random_application(11, iterations=4)
    feasible = CompileRequest(
        "cds", application, Architecture.m1("4K"), clustering
    )
    doomed = _doomed_request()
    results = compile_many([doomed, feasible, doomed])
    assert [result.schedule is None for result in results] == [
        True, False, True,
    ]
    for index in (0, 2):
        assert isinstance(results[index].error, InfeasibleScheduleError)
    assert results[1].error is None
    assert results[1].schedule == compile_many([feasible])[0].schedule
