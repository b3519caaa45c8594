"""End-to-end tests of the scheduler service HTTP API.

The load-bearing properties:

* responses are **byte-identical** to the CLI pipeline
  (:func:`repro.analysis.compare.run_scheduler`, once per batch case)
  serialised through the same canonical encoder;
* infeasible and lint-error payloads round-trip the same structured
  numbers (``required``/``available``, diagnostic codes) the CLI
  renders;
* N concurrent identical requests compile exactly once (single-flight
  + shared cache), asserted down to the metrics counters.
"""

import asyncio
import json
import tempfile

import pytest

from repro.analysis.compare import run_scheduler
from repro.arch.params import Architecture
from repro.errors import InfeasibleScheduleError, LintError
from repro.lint.diagnostics import Diagnostic, Severity
from repro.schedule.base import DataSchedulerBase, ScheduleOptions
from repro.service.loadgen import _post_bytes, _read_response
from repro.service.protocol import (
    SCHEDULERS,
    encode_json,
    execute_request,
    outcome_payload,
)
from repro.service import server as server_module
from repro.service.server import SchedulerService, ServerThread
from repro.workloads.spec import paper_experiments


def _spec(experiment_id):
    return next(
        spec for spec in paper_experiments() if spec.id == experiment_id
    )


async def _request_async(host, port, path, method="GET", body=b""):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        if method == "GET":
            writer.write(
                (
                    f"GET {path} HTTP/1.1\r\nHost: t\r\n"
                    f"Connection: close\r\n\r\n"
                ).encode("latin-1")
            )
        else:
            writer.write(_post_bytes(path, body))
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()


def request(server, path, method="GET", body=b""):
    """One request; returns ``(status, raw_body_bytes)``."""
    return asyncio.run(
        _request_async(
            server.service.host, server.service.port, path, method, body
        )
    )


@pytest.fixture(scope="module")
def server():
    with tempfile.TemporaryDirectory() as cache_dir:
        with ServerThread(
            cache_dir=cache_dir, mode="thread", jobs=4
        ) as thread:
            yield thread


def test_healthz(server):
    status, body = request(server, "/v1/healthz")
    payload = json.loads(body)
    assert status == 200
    assert payload["ok"] is True
    assert payload["status"] == "ok"
    assert payload["uptime_s"] >= 0


@pytest.mark.parametrize("experiment_id", ["E1", "E3", "MPEG"])
@pytest.mark.parametrize("scheduler_name", ["basic", "ds", "cds"])
def test_schedule_byte_identical_to_cli_pipeline(
    server, experiment_id, scheduler_name
):
    """The service response is the CLI ``run_scheduler`` outcome,
    byte for byte, for every scheduler on feasible and infeasible
    paper rows alike."""
    spec = _spec(experiment_id)
    status, body = request(
        server, "/v1/schedule", "POST",
        encode_json(
            {"experiment": experiment_id, "scheduler": scheduler_name}
        ),
    )
    assert status == 200

    application, clustering = spec.build()
    architecture = Architecture.m1(spec.fb)
    outcome = run_scheduler(
        SCHEDULERS[scheduler_name](architecture, ScheduleOptions()),
        application, clustering, architecture, trace=True,
    )
    expected = encode_json(outcome_payload(outcome, workload=spec.id))
    assert body == expected


def test_infeasible_numbers_round_trip(server):
    """MPEG at a 1K frame buffer under the Basic Scheduler — the
    paper's canonical infeasible case — serves the same structured
    required/available words the CLI renders."""
    status, body = request(
        server, "/v1/schedule", "POST",
        encode_json(
            {"experiment": "MPEG", "fb_words": "1K", "scheduler": "basic"}
        ),
    )
    payload = json.loads(body)
    assert status == 200
    assert payload["ok"] is True
    assert payload["feasible"] is False
    assert payload["schedule"] is None and payload["report"] is None

    spec = _spec("MPEG")
    application, clustering = spec.build()
    architecture = Architecture.m1("1K")
    with pytest.raises(InfeasibleScheduleError) as excinfo:
        SCHEDULERS["basic"](architecture).schedule(application, clustering)
    error = excinfo.value
    assert payload["infeasible_reason"] == str(error)
    assert payload["error"] == {
        "type": "InfeasibleScheduleError",
        "message": str(error),
        "cluster": error.cluster,
        "required": error.required,
        "available": error.available,
    }
    assert payload["error"]["required"] > payload["error"]["available"]


def test_lint_error_round_trips_as_422(server, monkeypatch):
    """A strict-lint failure maps to 422 with the diagnostics payload.

    Valid schedules are lint-clean by construction (property-tested),
    so the error path is forced by sabotaging the self-lint hook —
    thread-mode workers share the test process, so the monkeypatch
    reaches them."""
    diagnostic = Diagnostic(
        code="SCHED999",
        severity=Severity("error"),
        layer="schedule",
        location="cluster Cl1",
        message="sabotaged for the 422 round-trip test",
        cost_words=7,
    )

    def sabotage(self, schedule):
        raise LintError("1 lint error(s)", (diagnostic,))

    monkeypatch.setattr(DataSchedulerBase, "_self_lint", sabotage)
    status, body = request(
        server, "/v1/schedule", "POST",
        encode_json(
            {
                "experiment": "E1",
                "options": {"strict_lint": True},
                # trace=False keeps the request key distinct from other
                # tests' cached E1 responses.
                "trace": False,
            }
        ),
    )
    payload = json.loads(body)
    assert status == 422
    assert payload["ok"] is False
    assert payload["error"]["type"] == "LintError"
    assert payload["error"]["diagnostics"] == [diagnostic.to_json()]


def test_batch_byte_identical_to_pipeline_batch(server):
    """The batch endpoint equals per-case ``run_scheduler`` payloads.

    The infeasible MPEG-at-1K case sits between feasible ones: its
    verdict must not perturb its neighbours."""
    cases = [
        {"experiment": "E1"},
        {"experiment": "MPEG", "fb_words": "1K", "scheduler": "basic"},
        {"experiment": "E2", "scheduler": "ds"},
        {"experiment": "E3", "options": {"rf_cap": 1}},
    ]
    status, body = request(
        server, "/v1/batch", "POST",
        encode_json({"cases": cases, "trace": False}),
    )
    assert status == 200

    results = []
    for case in cases:
        spec = _spec(case["experiment"])
        application, clustering = spec.build()
        architecture = Architecture.m1(case.get("fb_words", spec.fb))
        options = ScheduleOptions(**case.get("options", {}))
        outcome = run_scheduler(
            SCHEDULERS[case.get("scheduler", "cds")](architecture, options),
            application, clustering, architecture, trace=False,
        )
        results.append(outcome_payload(outcome, workload=spec.id))
    assert [result["feasible"] for result in results] == [
        True, False, True, True,
    ]
    expected = encode_json(
        {"ok": True, "count": len(results), "results": results}
    )
    assert body == expected


@pytest.mark.parametrize("trace", [False, True])
def test_cached_batch_replays_identical_bytes(tmp_path, trace):
    """A cached batch run twice, with one case duplicated, serves the
    uncached bytes every time; the duplicate and the rerun are cache
    hits."""
    body = {
        "cases": [
            {"experiment": "E1"},
            {"experiment": "MPEG", "fb_words": "1K", "scheduler": "basic"},
            {"experiment": "E1"},
        ],
        "trace": trace,
    }
    status, payload, _ = execute_request("batch", body)
    assert status == 200
    expected = encode_json(payload)
    assert payload["results"][0] == payload["results"][2]

    hits = []
    for _ in range(2):
        status, payload, snapshot = execute_request(
            "batch", body, str(tmp_path)
        )
        assert status == 200
        assert encode_json(payload) == expected
        hits.append(snapshot["counters"].get("cache/cache.hit", 0))
    assert hits == [1, 3]


def test_concurrent_identical_requests_compile_once():
    """Single-flight: N concurrent identical requests produce one
    compile, one cache write, and N byte-identical responses."""
    n_clients = 32
    request_body = encode_json(
        {"experiment": "ATR-FI", "scheduler": "cds", "trace": False}
    )

    with tempfile.TemporaryDirectory() as cache_dir:
        with ServerThread(
            cache_dir=cache_dir, mode="thread", jobs=4
        ) as thread:
            host, port = thread.service.host, thread.service.port

            async def fire():
                return await asyncio.gather(
                    *(
                        _request_async(
                            host, port, "/v1/schedule", "POST", request_body
                        )
                        for _ in range(n_clients)
                    )
                )

            responses = asyncio.run(fire())
            snapshot = thread.service.registry.snapshot()

    statuses = {status for status, _ in responses}
    bodies = {body for _, body in responses}
    assert statuses == {200}
    assert len(bodies) == 1, "all coalesced responses must be identical"

    counters = snapshot["counters"]
    timers = snapshot["timers"]
    # Exactly one scheduling run and one cache write happened...
    assert timers["pipeline.cds/schedule"]["count"] == 1
    assert counters["cache/cache.put"] == 1
    assert counters["cache/cache.miss"] == 1
    # ...and every other client either coalesced onto the in-flight
    # leader or replayed the cached outcome.
    leaders = counters["service/singleflight.leader"]
    followers = counters.get("service/singleflight.follower", 0)
    hits = counters.get("cache/cache.hit", 0)
    response_hits = counters.get("service/response.hit", 0)
    assert leaders + followers + response_hits == n_clients
    assert followers + hits == n_clients - 1


def test_workload_request_matches_experiment_request(server):
    """An inline FuzzCase workload body runs the same pipeline as the
    equivalent experiment reference."""
    from repro.fuzz.case import FuzzCase

    spec = _spec("E1")
    application, clustering = spec.build()
    case = FuzzCase.from_workload(
        application, clustering, spec.fb_words, name="E1"
    )
    status, body = request(
        server, "/v1/schedule", "POST",
        encode_json({"workload": case.to_dict(), "scheduler": "cds"}),
    )
    _, expected = request(
        server, "/v1/schedule", "POST",
        encode_json({"experiment": "E1", "scheduler": "cds"}),
    )
    assert status == 200
    assert body == expected


def test_metrics_endpoint_shape(server):
    status, body = request(server, "/v1/metrics")
    payload = json.loads(body)
    assert status == 200
    assert payload["ok"] is True
    latency = payload["service"]["latency"]
    assert set(latency) == {"count", "mean_s", "p50_s", "p99_s", "max_s"}
    assert payload["service"]["requests"] >= latency["count"] > 0
    assert "counters" in payload["metrics"]
    assert "timers" in payload["metrics"]


def test_metrics_latency_window_rolls(monkeypatch):
    """Past the window, p50/max describe the newest requests instead of
    freezing on the first ones."""
    monkeypatch.setattr(server_module, "_MAX_RECORDED_LATENCIES", 4)
    service = SchedulerService(jobs=1)
    try:
        for millis in range(1, 11):
            service._record_latency(millis / 1000.0)
        latency = service._metrics_payload()["service"]["latency"]
    finally:
        asyncio.run(service.aclose())
    assert service.registry.counter("requests", scope="service") == 10
    assert latency["count"] == 4
    assert latency["max_s"] == 0.010
    assert latency["p50_s"] == 0.008
    assert latency["mean_s"] == pytest.approx(0.0085)


@pytest.mark.parametrize(
    "body, fragment",
    [
        (b"{not json", "not valid JSON"),
        (b"[1,2]", "JSON object"),
        (b"{}", "exactly one of"),
        (b'{"experiment": "E1", "workload": {}}', "exactly one of"),
        (b'{"experiment": "NOPE"}', "unknown experiment"),
        (b'{"experiment": "E1", "scheduler": "magic"}',
         "unknown scheduler"),
        (b'{"experiment": "E1", "bogus": 1}', "unknown request key"),
        (b'{"experiment": "E1", "options": {"bogus": 1}}',
         "unknown option"),
        (b'{"experiment": "E1", "trace": "yes"}', "trace must be"),
        (b'{"experiment": "E1", "fb_words": "huge"}',
         "invalid fb_words"),
    ],
)
def test_bad_requests_are_400(server, body, fragment):
    status, raw = request(server, "/v1/schedule", "POST", body)
    payload = json.loads(raw)
    assert status == 400
    assert payload["ok"] is False
    assert fragment in payload["error"]["message"]


@pytest.mark.parametrize(
    "body",
    [
        b'{"experiment":"E1","fb_words":NaN}',
        b'{"experiment":"E1","options":{"rf_cap":Infinity}}',
        b"[" * 100000 + b"]" * 100000,
    ],
    ids=["nan", "infinity", "over_deep"],
)
def test_unencodable_json_is_400_on_a_live_connection(server, body):
    """Non-finite constants and over-deep nesting answer 400, and the
    keep-alive connection goes on to serve the next request."""

    async def exchange():
        reader, writer = await asyncio.open_connection(
            server.service.host, server.service.port
        )
        try:
            writer.write(_post_bytes("/v1/schedule", body))
            await writer.drain()
            rejected = await _read_response(reader)
            writer.write(_post_bytes(
                "/v1/schedule", encode_json({"experiment": "E1"})
            ))
            await writer.drain()
            return rejected, await _read_response(reader)
        finally:
            writer.close()

    (status, raw), (next_status, _) = asyncio.run(exchange())
    assert status == 400
    error = json.loads(raw)["error"]
    assert error["type"] == "BadRequest"
    assert error["message"] == "request body is not valid JSON"
    assert next_status == 200


def test_removed_occupancy_engine_option_is_400():
    """The naive occupancy reference is a test seam, not an option."""
    status, payload, _ = execute_request("schedule", {
        "experiment": "MPEG", "options": {"occupancy_engine": "naive"},
    })
    assert status == 400
    assert payload["error"]["message"] == (
        "unknown option(s): occupancy_engine"
    )


@pytest.mark.parametrize(
    "options",
    [{"rf_cap": 2.5}, {"rf_cap": True}, {"strict_lint": "no"}],
    ids=["float_rf_cap", "bool_rf_cap", "string_strict_lint"],
)
def test_wrongly_typed_options_are_400(options):
    status, payload, _ = execute_request(
        "schedule", {"experiment": "MPEG", "options": options}
    )
    assert status == 400, payload
    assert payload["error"]["message"].startswith("invalid options: ")


def test_batch_bad_requests(server):
    status, raw = request(
        server, "/v1/batch", "POST", encode_json({"cases": []})
    )
    assert status == 400
    status, raw = request(
        server, "/v1/batch", "POST",
        encode_json({"cases": [{"experiment": "E1"}], "engine": "warp"}),
    )
    payload = json.loads(raw)
    assert status == 400
    assert "unknown request key(s): engine" in payload["error"]["message"]


def test_unknown_route_and_wrong_method(server):
    status, raw = request(server, "/v1/nothing")
    assert status == 404
    status, raw = request(server, "/v1/healthz", "POST", b"{}")
    assert status == 405
    status, raw = request(server, "/v1/schedule")
    assert status == 405


@pytest.mark.parametrize(
    "raw",
    [
        b"GET /" + b"x" * (70 * 1024) + b" HTTP/1.1\r\n\r\n",
        b"GET /v1/healthz HTTP/1.1\r\nX-Big: " + b"y" * (70 * 1024)
        + b"\r\n\r\n",
    ],
    ids=["request_line", "header"],
)
def test_overlong_line_is_a_protocol_error(raw):
    """A line over the StreamReader's 64 KiB limit is dropped as bad
    framing, not leaked as ``ValueError`` from the connection task."""

    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await server_module._read_request(reader)

    with pytest.raises(server_module._ProtocolError, match="too long"):
        asyncio.run(read())
