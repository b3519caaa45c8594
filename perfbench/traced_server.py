"""``repro serve`` in thread mode, under the benchmark's span tracer.

    PYTHONPATH=src python3 perfbench/traced_server.py PORT CACHE_DIR JOBS SPANS_OUT

Installs the service and pipeline wrappers of ``tracer.py``, serves
through ``repro.service.server.run_server`` until SIGTERM, then writes
every span it recorded to SPANS_OUT as JSON.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys

from tracer import Tracer, install_service


async def _serve(port, cache_dir, jobs):
    from repro.service.server import run_server

    task = asyncio.ensure_future(run_server(
        host="127.0.0.1", port=port, cache_dir=cache_dir, jobs=jobs,
        mode="thread",
    ))
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, task.cancel)
    try:
        await task
    except asyncio.CancelledError:
        pass


def main(port, cache_dir, jobs, spans_out):
    tracer = Tracer()
    install_service(tracer)
    asyncio.run(_serve(int(port), cache_dir, int(jobs)))
    with open(spans_out, "w") as handle:
        json.dump(tracer.spans, handle)


if __name__ == "__main__":
    main(*sys.argv[1:])
