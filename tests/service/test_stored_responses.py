"""Stored response bytes: a repeat request is answered from the store.

With a ``cache_dir`` the server keeps the canonical body of every
``200`` reply under a digest of the request's single-flight key and
answers the next identical request from those bytes on the event loop.
These tests pin the contract:

* cold and stored replies are byte-identical to an uncached
  :func:`~repro.service.protocol.execute_request` →
  :func:`~repro.service.protocol.encode_json`;
* only ``200`` replies are stored;
* a corrupt entry reads as a miss and is rewritten;
* without a ``cache_dir`` nothing is stored anywhere;
* process-mode workers store too (the worker entry pickles).
"""

import pytest

from repro.cache import CacheStore, digest
from repro.errors import LintError
from repro.fuzz.case import FuzzCase
from repro.lint.diagnostics import Diagnostic, Severity
from repro.schedule.base import DataSchedulerBase
from repro.service.protocol import encode_json, execute_request, request_key
from repro.service.server import ServerThread
from tests.service.test_service import _spec, request


def _inline_workload(experiment_id):
    spec = _spec(experiment_id)
    application, clustering = spec.build()
    case = FuzzCase.from_workload(
        application, clustering, spec.fb_words, name=experiment_id
    )
    return case.to_dict()


def _post(thread, path, body):
    """One POST; returns ``(status, raw_body_bytes)``."""
    return request(thread, path, "POST", encode_json(body))


def _counter(thread, name):
    return thread.service.registry.counter(name, scope="service")


def _entry_path(cache_dir, endpoint, body):
    key = digest(("response", request_key(endpoint, body)))
    return CacheStore(cache_dir)._path(key)


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


@pytest.fixture
def cached_server(cache_dir):
    with ServerThread(cache_dir=cache_dir, mode="thread", jobs=2) as thread:
        yield thread


_INFEASIBLE = {"experiment": "MPEG", "fb_words": "1K", "scheduler": "basic"}

_SCHEDULE_BODIES = {
    "experiment-traced": {"experiment": "E1"},
    "experiment-untraced": {"experiment": "E3", "trace": False},
    "workload-traced": {"workload": _inline_workload("E2"), "trace": True},
    "workload-untraced": {
        "workload": _inline_workload("E1"), "scheduler": "ds",
        "trace": False,
    },
    "infeasible": _INFEASIBLE,
}

_BATCH_CASES = [
    {"experiment": "E1"},
    _INFEASIBLE,
    {"workload": _inline_workload("E2"), "scheduler": "basic"},
]


@pytest.mark.parametrize(
    "endpoint, body",
    [("schedule", body) for body in _SCHEDULE_BODIES.values()]
    + [
        ("batch", {"cases": _BATCH_CASES, "trace": trace})
        for trace in (True, False)
    ],
    ids=list(_SCHEDULE_BODIES) + ["batch-traced", "batch-untraced"],
)
def test_cold_and_stored_replies_match_uncached_pipeline(
    cached_server, cache_dir, endpoint, body
):
    status, payload, _ = execute_request(endpoint, body)
    assert status == 200
    expected = encode_json(payload)

    assert _post(cached_server, f"/v1/{endpoint}", body) == (200, expected)
    assert _counter(cached_server, "response.hit") == 0
    assert _counter(cached_server, "response.put") == 1

    assert _post(cached_server, f"/v1/{endpoint}", body) == (200, expected)
    assert _counter(cached_server, "response.hit") == 1
    assert _counter(cached_server, "singleflight.leader") == 1
    assert cached_server.service.registry.counter(
        "cache.hit", scope="cache"
    ) >= 1
    stored = CacheStore(cache_dir).get(
        digest(("response", request_key(endpoint, body)))
    )
    assert stored == expected


def test_bad_request_is_never_stored(cached_server, cache_dir):
    body = {"experiment": "E1", "no_such_key": 1}
    first = _post(cached_server, "/v1/schedule", body)
    assert first[0] == 400
    assert _post(cached_server, "/v1/schedule", body) == first
    assert _counter(cached_server, "singleflight.leader") == 2
    assert _counter(cached_server, "response.hit") == 0
    assert _counter(cached_server, "response.put") == 0
    assert not _entry_path(cache_dir, "schedule", body).exists()


def test_lint_error_is_never_stored(cached_server, cache_dir, monkeypatch):
    """A 422 is recomputed on repeat; thread-mode workers share the
    test process, so the sabotaged self-lint reaches them."""
    diagnostic = Diagnostic(
        code="SCHED999",
        severity=Severity("error"),
        layer="schedule",
        location="cluster Cl1",
        message="sabotaged for the stored-response test",
        cost_words=7,
    )

    def sabotage(self, schedule):
        raise LintError("1 lint error(s)", (diagnostic,))

    monkeypatch.setattr(DataSchedulerBase, "_self_lint", sabotage)
    body = {"experiment": "E1", "options": {"strict_lint": True}}
    first = _post(cached_server, "/v1/schedule", body)
    assert first[0] == 422
    assert _post(cached_server, "/v1/schedule", body) == first
    assert _counter(cached_server, "singleflight.leader") == 2
    assert _counter(cached_server, "response.hit") == 0
    assert not _entry_path(cache_dir, "schedule", body).exists()


def test_truncated_entry_reads_as_miss_and_is_rewritten(
    cached_server, cache_dir
):
    body = {"experiment": "E3", "scheduler": "ds"}
    status, expected = _post(cached_server, "/v1/schedule", body)
    assert status == 200
    path = _entry_path(cache_dir, "schedule", body)
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) // 2])

    assert _post(cached_server, "/v1/schedule", body) == (200, expected)
    assert _counter(cached_server, "response.hit") == 0
    assert _counter(cached_server, "singleflight.leader") == 2
    assert path.read_bytes() == whole

    assert _post(cached_server, "/v1/schedule", body) == (200, expected)
    assert _counter(cached_server, "response.hit") == 1


def test_server_without_cache_dir_stores_nothing(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    body = {"experiment": "E1", "trace": False}
    with ServerThread(mode="thread", jobs=2) as thread:
        first = _post(thread, "/v1/schedule", body)
        assert first[0] == 200
        assert _post(thread, "/v1/schedule", body) == first
        assert _counter(thread, "singleflight.leader") == 2
        assert _counter(thread, "response.hit") == 0
        assert _counter(thread, "response.put") == 0
    assert list(tmp_path.iterdir()) == []


def test_process_mode_serves_stored_hits(cache_dir):
    body = {"experiment": "E2", "trace": False}
    status, payload, _ = execute_request("schedule", body)
    expected = encode_json(payload)
    with ServerThread(cache_dir=cache_dir, mode="process", jobs=1) as thread:
        assert _post(thread, "/v1/schedule", body) == (200, expected)
        assert _post(thread, "/v1/schedule", body) == (200, expected)
        assert _counter(thread, "singleflight.leader") == 1
        assert _counter(thread, "response.hit") == 1
    assert _entry_path(cache_dir, "schedule", body).exists()
