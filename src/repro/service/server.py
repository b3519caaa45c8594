"""Asyncio HTTP/JSON front-end of the scheduler service.

A deliberately small, dependency-free HTTP/1.1 server (the container
has no web framework): one :func:`asyncio.start_server` accept loop,
keep-alive request framing via ``Content-Length``, and four routes:

* ``POST /v1/schedule`` — one workload through one scheduler.
* ``POST /v1/batch``    — many cases, each through
  :func:`~repro.analysis.compare.run_scheduler` in request order.
* ``GET  /v1/metrics``  — the service's merged metrics registry plus
  latency percentiles and single-flight counters.
* ``GET  /v1/healthz``  — liveness.

Compute never runs on the event loop: parsed requests are dispatched
into a :class:`~repro.analysis.parallel.WorkerPool` (thread or process
mode) running :func:`execute_and_store`, and the per-request metrics
snapshot each worker returns is merged into the service-global
registry.

A request for ``/v1/schedule`` or ``/v1/batch`` meets three layers,
all keyed by content:

* **Stored responses.**  With a ``cache_dir``, the canonical body of
  every ``200`` reply is kept in the :class:`~repro.cache.CacheStore`
  under a digest of the request's
  :func:`~repro.service.protocol.request_key`.  A repeat is answered
  from those bytes on the event loop — one small file read, with no
  worker, decode, unpickle or re-encode.
* **Single-flight.**  Concurrent identical requests (same endpoint +
  canonical body) coalesce onto one in-flight computation: the first
  becomes the *leader* and executes; the rest are *followers* that
  await the leader's future and share its response bytes.
* **Outcome cache.**  The leader's worker runs the pipeline against
  the same store's outcome entries, so a workload already compiled
  under another request body (or another batch) is not compiled again.

Together, N concurrent identical requests compile exactly once —
asserted down to the metrics counters in
``tests/service/test_service.py``.
"""

from __future__ import annotations

import asyncio
import collections
import json
import signal
import threading
import time
from typing import Any, Deque, Dict, Optional, Tuple

from repro.analysis.parallel import WorkerPool
from repro.cache import CacheStore, digest
from repro.obs.metrics import MetricsRegistry
from repro.service.protocol import (
    encode_json,
    error_payload,
    execute_request,
    percentile,
    request_key,
)

__all__ = ["SchedulerService", "ServerThread", "execute_and_store"]

_MAX_BODY_BYTES = 32 * 1024 * 1024
_MAX_RECORDED_LATENCIES = 200_000

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
}


def _reject_constant(name: str) -> None:
    """Refuse ``NaN``/``Infinity``/``-Infinity``: canonical request keys
    are encoded with ``allow_nan=False`` and could not represent them."""
    raise ValueError(f"non-finite JSON constant {name}")


class _ProtocolError(Exception):
    """Unparseable HTTP framing; the connection is dropped."""


async def _readline(reader: asyncio.StreamReader) -> bytes:
    """One line; a line over the reader's limit is a protocol error."""
    try:
        return await reader.readline()
    except ValueError as exc:
        # StreamReader.readline reports an overlong line as ValueError.
        raise _ProtocolError(f"line too long: {exc}") from None


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """One framed request, or ``None`` on a clean EOF between requests."""
    line = await _readline(reader)
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _ProtocolError(f"malformed request line: {line!r}")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    while True:
        header = await _readline(reader)
        if header in (b"\r\n", b"\n"):
            break
        if not header:
            raise _ProtocolError("connection closed inside headers")
        name, separator, value = header.decode("latin-1").partition(":")
        if not separator:
            raise _ProtocolError(f"malformed header: {header!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _ProtocolError("malformed Content-Length") from None
    if length < 0 or length > _MAX_BODY_BYTES:
        raise _ProtocolError(f"unacceptable Content-Length {length}")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


def _response_bytes(status: int, body: bytes, *, keep_alive: bool) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


def execute_and_store(
    endpoint: str,
    body: Dict[str, Any],
    cache_dir: Optional[str],
    response_key: Optional[str],
) -> Tuple[int, bytes, Dict[str, Any]]:
    """The worker entry point: execute, encode, store a ``200`` reply.

    Returns ``(http_status, response_bytes, metrics_snapshot)``.  The
    bytes are stored under *response_key* (when given) before they are
    returned, so the next identical request is answered from the store
    on the event loop.  Top-level, so process-mode pools can pickle it.
    """
    status, payload, snapshot = execute_request(endpoint, body, cache_dir)
    encoded = encode_json(payload)
    if status == 200 and response_key is not None:
        CacheStore(cache_dir).put(response_key, encoded)
    return status, encoded, snapshot


def _error(status: int, kind: str, message: str) -> Tuple[int, bytes]:
    return status, encode_json(error_payload(kind, message))


class SchedulerService:
    """The scheduler-as-a-service server: routes, stored responses,
    single-flight, worker pool.

    Args:
        host/port: bind address; ``port=0`` picks an ephemeral port
            (read ``self.port`` after :meth:`start`).
        cache_dir: :class:`~repro.cache.CacheStore` root shared by all
            requests (outcomes and stored responses); ``None`` disables
            the cross-request cache.
        jobs: worker-pool size (``None``/0 for the CPU-count default).
        mode: ``"thread"`` or ``"process"`` worker pool.  Thread mode
            keeps workers in-process (tests can monkeypatch scheduler
            internals; no pickling); process mode buys real
            parallelism for CPU-bound fleets.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: Optional[str] = None,
        jobs: Optional[int] = None,
        mode: str = "thread",
    ) -> None:
        self.host = host
        self.port = port
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self._store = (
            CacheStore(self.cache_dir) if self.cache_dir is not None else None
        )
        self.registry = MetricsRegistry()
        self._pool = WorkerPool(jobs=jobs, mode=mode)
        self._mode = mode
        self._inflight: Dict[str, "asyncio.Future"] = {}
        # Rolling window: /v1/metrics percentiles describe the newest
        # requests, not the first ones the server ever saw.
        self._latencies: Deque[float] = collections.deque(
            maxlen=_MAX_RECORDED_LATENCIES
        )
        self._started = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; resolves ``self.port``."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, backlog=2048
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        finally:
            await self.aclose()

    # -- connection handling -------------------------------------------

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                request = await _read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                started = time.perf_counter()
                status, response = await self._dispatch(method, path, body)
                self._record_latency(time.perf_counter() - started)
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                )
                writer.write(
                    _response_bytes(status, response, keep_alive=keep_alive)
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (
            _ProtocolError,
            asyncio.IncompleteReadError,
            ConnectionError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _record_latency(self, seconds: float) -> None:
        self.registry.inc("requests", scope="service")
        self._latencies.append(seconds)

    # -- routing -------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes]:
        """``(status, response body)`` for one request."""
        self.registry.inc(f"http.{method} {path}", scope="service")
        if path == "/v1/healthz":
            if method != "GET":
                return _error(405, "MethodNotAllowed", "use GET")
            return 200, encode_json(self._healthz_payload())
        if path == "/v1/metrics":
            if method != "GET":
                return _error(405, "MethodNotAllowed", "use GET")
            return 200, encode_json(self._metrics_payload())
        if path in ("/v1/schedule", "/v1/batch"):
            if method != "POST":
                return _error(405, "MethodNotAllowed", "use POST")
            try:
                parsed = json.loads(
                    body.decode("utf-8"), parse_constant=_reject_constant
                )
            except (UnicodeDecodeError, ValueError, RecursionError):
                return _error(
                    400, "BadRequest", "request body is not valid JSON"
                )
            if not isinstance(parsed, dict):
                return _error(
                    400, "BadRequest", "request body must be a JSON object"
                )
            endpoint = path.rsplit("/", 1)[1]
            return await self._compute(endpoint, parsed)
        return _error(404, "NotFound", f"no route for {path}")

    # -- stored responses and single-flight ----------------------------

    async def _compute(
        self, endpoint: str, body: Dict[str, Any]
    ) -> Tuple[int, bytes]:
        """Answer from a stored response, else through single-flight."""
        key = request_key(endpoint, body)
        response_key = None
        if self._store is not None:
            response_key = digest(("response", key))
            stored = self._store.get(response_key)
            if stored is not None:
                self.registry.inc("cache.hit", scope="cache")
                self.registry.inc("response.hit", scope="service")
                return 200, stored
        return await self._singleflight(key, endpoint, body, response_key)

    async def _singleflight(
        self,
        key: str,
        endpoint: str,
        body: Dict[str, Any],
        response_key: Optional[str],
    ) -> Tuple[int, bytes]:
        """Coalesce concurrent identical requests onto one execution."""
        existing = self._inflight.get(key)
        if existing is not None:
            self.registry.inc("singleflight.follower", scope="service")
            return await asyncio.shield(existing)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._inflight[key] = future
        self.registry.inc("singleflight.leader", scope="service")
        try:
            status, response, snapshot = await loop.run_in_executor(
                self._pool.executor,
                execute_and_store,
                endpoint,
                body,
                self.cache_dir,
                response_key,
            )
        except BaseException as exc:
            self._inflight.pop(key, None)
            if not future.done():
                future.set_exception(exc)
                # Mark retrieved so a follower-less failure does not
                # log "exception was never retrieved"; awaiting
                # followers still see it raised.
                future.exception()
            raise
        self._inflight.pop(key, None)
        self.registry.merge(snapshot)
        if status == 200 and response_key is not None:
            self.registry.inc("response.put", scope="service")
        result = (status, response)
        if not future.done():
            future.set_result(result)
        return result

    # -- introspection payloads ----------------------------------------

    def _healthz_payload(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "status": "ok",
            "uptime_s": round(time.monotonic() - self._started, 6),
            "requests": self.registry.counter("requests", scope="service"),
            "workers": {"mode": self._mode, "jobs": self._pool.jobs},
        }

    def _metrics_payload(self) -> Dict[str, Any]:
        latencies = list(self._latencies)
        return {
            "ok": True,
            "service": {
                "requests": self.registry.counter(
                    "requests", scope="service"
                ),
                "inflight": len(self._inflight),
                "workers": {"mode": self._mode, "jobs": self._pool.jobs},
                "latency": {
                    "count": len(latencies),
                    "mean_s": (
                        sum(latencies) / len(latencies) if latencies else 0.0
                    ),
                    "p50_s": percentile(latencies, 0.50),
                    "p99_s": percentile(latencies, 0.99),
                    "max_s": max(latencies) if latencies else 0.0,
                },
            },
            "metrics": self.registry.snapshot(),
        }


async def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 8753,
    cache_dir: Optional[str] = None,
    jobs: Optional[int] = None,
    mode: str = "process",
    ready=None,
) -> None:
    """Start a service and serve until cancelled (the CLI entry).

    SIGTERM cancels it too, so :meth:`SchedulerService.serve_forever`'s
    ``finally`` closes the worker pool and no process-mode worker
    outlives the server.
    """
    service = SchedulerService(
        host=host, port=port, cache_dir=cache_dir, jobs=jobs, mode=mode
    )
    await service.start()
    if ready is not None:
        ready(service)
    try:
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
    except NotImplementedError:
        pass  # no signal support in this event loop (Windows)
    await service.serve_forever()


class ServerThread:
    """A service running on its own event loop in a daemon thread.

    The self-hosting harness used by the loadgen driver and the test
    suite: :meth:`start` returns ``(host, port)``
    once the socket is bound, :meth:`stop` tears the loop and worker
    pool down.  ``service`` stays accessible for in-process assertions
    (metrics counters, single-flight state).
    """

    def __init__(self, **service_kwargs: Any) -> None:
        self.service = SchedulerService(**service_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> Tuple[str, int]:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("service thread failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"service failed to start: {self._startup_error!r}"
            )
        return self.service.host, self.service.port

    def _run(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.service.start())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.service.aclose())
            # Handlers still waiting on an idle keep-alive client would
            # otherwise be destroyed with the closed loop.
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
            self._loop.close()

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=60)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
