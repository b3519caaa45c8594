"""Scheduler-as-a-service: async batch API over the repro pipeline.

A dependency-free asyncio HTTP/JSON server that exposes the exact CLI
pipeline (:func:`~repro.analysis.compare.run_scheduler`, once per
case) as a long-lived service:

* :mod:`repro.service.protocol` — request schema, worker-side
  execution, canonical JSON encoding (byte-identical to the CLI path);
* :mod:`repro.service.server` — the HTTP front-end: stored response
  bytes and outcomes in a shared :class:`~repro.cache.CacheStore`,
  single-flight dedup and a
  :class:`~repro.analysis.parallel.WorkerPool` fan-out;
* :mod:`repro.service.loadgen` — zipf-skewed concurrent load harness.

See ``docs/service.md`` for the endpoint and schema reference.
"""

from repro.service.protocol import (
    ServiceError,
    encode_json,
    execute_request,
    outcome_payload,
    request_key,
)
from repro.service.server import SchedulerService, ServerThread

__all__ = [
    "SchedulerService",
    "ServerThread",
    "ServiceError",
    "encode_json",
    "execute_request",
    "outcome_payload",
    "request_key",
]
