"""``repro serve`` shuts down cleanly on SIGTERM.

A process-mode server that has spawned its workers must, on SIGTERM,
close its pool, print ``service stopped`` and exit 0 — leaving no
worker process behind.
"""

import json
import os
import pathlib
import select
import signal
import subprocess
import sys
import urllib.request

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]


def _children(pid):
    """Pids whose parent is *pid* (from ``/proc``)."""
    children = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(int(entry.name))
    return children


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="lists worker processes through /proc")
def test_sigterm_closes_process_pool(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--mode", "process", "--jobs", "2",
         "--cache-dir", str(tmp_path / "cache")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    workers = []
    try:
        ready, _, _ = select.select([server.stdout], [], [], 60)
        assert ready, "server did not announce itself"
        banner = server.stdout.readline()
        port = int(banner.split("http://", 1)[1].split(":")[1].split()[0])

        # One cache miss, so the pool has started its worker processes.
        miss = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/schedule",
            data=json.dumps({"experiment": "E1", "scheduler": "cds"})
            .encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(miss, timeout=60) as response:
            assert response.status == 200
        workers = _children(server.pid)
        assert workers, "process mode started no worker"

        server.send_signal(signal.SIGTERM)
        stdout, stderr = server.communicate(timeout=10)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        leftover = [pid for pid in workers if _alive(pid)]
        for pid in leftover:
            os.kill(pid, signal.SIGKILL)
    assert server.returncode == 0, stderr[-2000:]
    assert "service stopped" in stdout
    assert not leftover, f"workers outlived the server: {leftover}"
