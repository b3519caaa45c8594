"""What a client can make the service grow is bounded.

* Route counters: only the four routes are counted by name; every
  other method/path lands on one fixed counter, so distinct unknown
  paths cannot grow ``/v1/metrics``.
* Header lines: a request with more than a fixed number of header
  lines is bad framing and the connection is dropped.
* Shutdown: stopping a server while keep-alive clients sit idle ends
  their handlers quietly, without an asyncio error report each.
"""

import asyncio
import logging
import socket

import pytest

from repro.service import server as server_module
from repro.service.loadgen import _read_response
from repro.service.server import ServerThread


async def _get_many(host, port, paths, method="GET"):
    """Send one request per path on a single keep-alive connection."""
    reader, writer = await asyncio.open_connection(host, port)
    statuses = []
    try:
        for path in paths:
            writer.write(
                f"{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode("latin-1")
            )
            await writer.drain()
            status, _ = await _read_response(reader)
            statuses.append(status)
    finally:
        writer.close()
    return statuses


def test_route_counters_are_bounded():
    with ServerThread(mode="thread", jobs=1) as thread:
        host, port = thread.service.host, thread.service.port
        unknown = [f"/probe/{index}" for index in range(200)]
        assert set(asyncio.run(_get_many(host, port, unknown))) == {404}
        assert asyncio.run(
            _get_many(host, port, ["/v1/healthz"] * 3, method="BREW")
        ) == [405] * 3
        assert asyncio.run(
            _get_many(host, port, ["/v1/healthz", "/v1/metrics"])
        ) == [200, 200]
        counters = thread.service.registry.counters
    routes = {
        name: count for name, count in counters.items()
        if name.startswith("service/http.")
    }
    assert routes == {
        "service/http.GET /v1/healthz": 1,
        "service/http.GET /v1/metrics": 1,
        "service/http.other": 203,
    }


def _framed(header_count):
    return (
        b"GET /v1/healthz HTTP/1.1\r\n"
        + b"".join(b"X-H%d: v\r\n" % index for index in range(header_count))
        + b"\r\n"
    )


def _read(raw):
    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await server_module._read_request(reader)

    return asyncio.run(read())


def test_header_count_is_capped():
    method, path, headers, _ = _read(_framed(50))
    assert (method, path, len(headers)) == ("GET", "/v1/healthz", 50)
    with pytest.raises(server_module._ProtocolError, match="too many headers"):
        _read(_framed(10_000))


def test_too_many_headers_drop_the_connection():
    with ServerThread(mode="thread", jobs=1) as thread:
        with socket.create_connection(
            (thread.service.host, thread.service.port), timeout=30
        ) as client:
            client.sendall(_framed(10_000))
            client.shutdown(socket.SHUT_WR)
            received = b""
            while True:
                chunk = client.recv(65536)
                if not chunk:
                    break
                received += chunk
    assert received == b""


def test_stop_with_idle_keepalive_clients_is_quiet(caplog):
    thread = ServerThread(mode="thread", jobs=1)
    host, port = thread.start()
    clients = []
    try:
        for _ in range(3):
            client = socket.create_connection((host, port), timeout=30)
            clients.append(client)
            client.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            reply = client.makefile("rb")
            assert reply.readline().startswith(b"HTTP/1.1 200")
            length = 0
            for line in iter(reply.readline, b"\r\n"):
                name, _, value = line.decode("latin-1").partition(":")
                if name.lower() == "content-length":
                    length = int(value)
            assert len(reply.read(length)) == length
        # Every handler is now parked on its idle keep-alive client.
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            thread.stop()
    finally:
        for client in clients:
            client.close()
        thread.stop()
    reports = [
        record for record in caplog.records
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ]
    assert reports == [], [record.getMessage() for record in reports]
