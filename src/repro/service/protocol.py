"""Wire protocol of the scheduler service: parse, execute, encode.

Everything the HTTP layer (:mod:`repro.service.server`) does not want
to know lives here:

* **Request schema.**  A ``/v1/schedule`` body names a workload (an
  inline :class:`~repro.fuzz.case.FuzzCase`-format dict under
  ``"workload"``, or a Table-1 row id under ``"experiment"``), a
  scheduler (``basic``/``ds``/``cds``), optional
  :class:`~repro.schedule.base.ScheduleOptions` overrides, a ``trace``
  flag and an ``fb_words`` override.  A ``/v1/batch`` body carries a
  list of such case dicts plus a shared ``trace`` setting.
* **Execution.**  :func:`execute_request` is the worker entry point —
  a top-level picklable function so the server can dispatch it into a
  :class:`~repro.analysis.parallel.WorkerPool` of either mode.  It
  runs the exact CLI pipeline (:func:`~repro.analysis.compare.
  run_scheduler`, once per case of a batch) under a
  :func:`~repro.obs.metrics.request_scope`, so per-request stage
  timings come back as a picklable snapshot instead of polluting a
  process-global registry.
* **Canonical encoding.**  :func:`encode_json` is the one JSON
  serialiser (sorted keys, compact separators) used for responses and
  for the single-flight request key, which makes "byte-identical to
  the CLI pipeline" a testable property rather than an aspiration.

Status mapping: infeasible schedules are *successful* responses
(``200`` with ``"feasible": false`` and the structured
required/available numbers), mirroring
:class:`~repro.analysis.compare.SchedulerOutcome`; strict-mode lint
failures are ``422`` with the diagnostics payload; malformed requests
are ``400``; everything unexpected is ``500``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.compare import run_scheduler
from repro.arch.params import Architecture
from repro.errors import LintError, ReproError
from repro.fuzz.case import FuzzCase
from repro.obs import metrics
from repro.obs.trace import report_to_dict
from repro.schedule import SCHEDULERS
from repro.schedule.base import ScheduleOptions

__all__ = [
    "SCHEDULERS",
    "ServiceError",
    "encode_json",
    "error_payload",
    "execute_request",
    "outcome_payload",
    "percentile",
    "request_key",
]

_OPTION_FIELDS = frozenset(
    field.name for field in dataclasses.fields(ScheduleOptions)
)

_SCHEDULE_KEYS = frozenset(
    ("workload", "experiment", "scheduler", "options", "trace", "fb_words")
)
_BATCH_KEYS = frozenset(("cases", "trace"))
_CASE_KEYS = frozenset(
    ("workload", "experiment", "scheduler", "options", "fb_words")
)


class ServiceError(ReproError):
    """A request the service rejects with a specific HTTP status."""

    def __init__(self, status: int, message: str, *,
                 kind: str = "BadRequest"):
        super().__init__(message)
        self.status = status
        self.kind = kind


# -- canonical JSON ------------------------------------------------------


def encode_json(payload: Any) -> bytes:
    """The one response/keying serialiser: sorted keys, no whitespace.

    Every response body and every single-flight key goes through this,
    so two requests for the same computation produce byte-identical
    payloads no matter which worker, cache generation or request
    ordering served them.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def request_key(endpoint: str, body: Dict[str, Any]) -> str:
    """Single-flight identity of a request: endpoint + canonical body.

    Parsing then re-encoding canonically makes the key insensitive to
    client-side whitespace and key ordering — N concurrent clients
    asking the same question coalesce regardless of how their JSON
    serialisers format it.
    """
    digest = hashlib.sha256()
    digest.update(endpoint.encode("utf-8"))
    digest.update(b"\0")
    digest.update(encode_json(body))
    return digest.hexdigest()


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of *values* (0.0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered)) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


# -- payload builders ----------------------------------------------------


def error_payload(kind: str, message: str,
                  **extra: Any) -> Dict[str, Any]:
    """The uniform error body: ``{"ok": false, "error": {...}}``."""
    error: Dict[str, Any] = {"type": kind, "message": message}
    error.update(extra)
    return {"ok": False, "error": error}


def outcome_payload(outcome, *, workload: str) -> Dict[str, Any]:
    """JSON-ready dump of one :class:`~repro.analysis.compare.
    SchedulerOutcome`.

    Every key is always present (``null`` when not applicable) so the
    response shape is stable for clients and byte-comparable in the
    equivalence tests.  Infeasible outcomes carry the structured
    ``cluster``/``required``/``available`` numbers — the same ones the
    CLI renders — under ``"error"``.
    """
    payload: Dict[str, Any] = {
        "ok": True,
        "workload": workload,
        "scheduler": outcome.scheduler,
        "feasible": outcome.feasible,
        "schedule": None,
        "report": None,
        "infeasible_reason": outcome.infeasible_reason,
        "error": None,
    }
    if outcome.feasible:
        schedule = outcome.schedule
        payload["schedule"] = {
            "rf": schedule.rf,
            "rounds": schedule.rounds,
            "describe": schedule.describe(),
        }
        payload["report"] = report_to_dict(outcome.report)
    elif outcome.error is not None:
        payload["error"] = {
            "type": type(outcome.error).__name__,
            "message": str(outcome.error),
            "cluster": outcome.error.cluster,
            "required": outcome.error.required,
            "available": outcome.error.available,
        }
    return payload


# -- request parsing -----------------------------------------------------


def _reject_unknown_keys(body: Dict[str, Any], allowed: frozenset,
                         where: str) -> None:
    unknown = sorted(set(body) - allowed)
    if unknown:
        raise ServiceError(
            400, f"unknown {where} key(s): {', '.join(unknown)}"
        )


def _parse_options(data: Any) -> ScheduleOptions:
    if data is None:
        return ScheduleOptions()
    if not isinstance(data, dict):
        raise ServiceError(400, "options must be a JSON object")
    unknown = sorted(set(data) - _OPTION_FIELDS)
    if unknown:
        raise ServiceError(
            400, f"unknown option(s): {', '.join(unknown)}"
        )
    try:
        return ScheduleOptions(**data)
    except (TypeError, ValueError, ReproError) as exc:
        raise ServiceError(400, f"invalid options: {exc}") from exc


def _parse_case(body: Dict[str, Any]):
    """One case dict -> ``(name, application, clustering, architecture,
    scheduler_name, options)``."""
    workload = body.get("workload")
    experiment = body.get("experiment")
    if (workload is None) == (experiment is None):
        raise ServiceError(
            400, "exactly one of 'workload' or 'experiment' is required"
        )
    if workload is not None:
        if not isinstance(workload, dict):
            raise ServiceError(400, "workload must be a JSON object")
        try:
            case = FuzzCase.from_dict(workload)
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ServiceError(
                400, f"malformed workload: {exc!r}"
            ) from exc
        try:
            application, clustering = case.build()
        except ReproError as exc:
            raise ServiceError(400, f"invalid workload: {exc}") from exc
        name = case.name
        fb_words: Any = body.get("fb_words", case.fb_words)
    else:
        from repro.workloads.spec import paper_experiments

        spec = next(
            (item for item in paper_experiments() if item.id == experiment),
            None,
        )
        if spec is None:
            known = ", ".join(item.id for item in paper_experiments())
            raise ServiceError(
                400, f"unknown experiment {experiment!r}; known: {known}"
            )
        application, clustering = spec.build()
        name = spec.id
        fb_words = body.get("fb_words", spec.fb)
    try:
        architecture = Architecture.m1(fb_words)
    except (TypeError, ValueError, ReproError) as exc:
        raise ServiceError(400, f"invalid fb_words: {exc}") from exc
    scheduler_name = body.get("scheduler", "cds")
    if scheduler_name not in SCHEDULERS:
        known = ", ".join(sorted(SCHEDULERS))
        raise ServiceError(
            400, f"unknown scheduler {scheduler_name!r}; known: {known}"
        )
    options = _parse_options(body.get("options"))
    return name, application, clustering, architecture, scheduler_name, options


def _parse_trace(body: Dict[str, Any], default: bool = True) -> bool:
    trace = body.get("trace", default)
    if not isinstance(trace, bool):
        raise ServiceError(400, "trace must be a boolean")
    return trace


# -- execution (worker entry point) --------------------------------------


def _make_cache(cache_dir: Optional[str]):
    if cache_dir is None:
        return None
    from repro.cache import CacheStore

    return CacheStore(cache_dir)


def _execute_schedule(body: Dict[str, Any],
                      cache_dir: Optional[str]) -> Tuple[int, Dict]:
    _reject_unknown_keys(body, _SCHEDULE_KEYS, "request")
    name, application, clustering, architecture, scheduler_name, options = (
        _parse_case(body)
    )
    trace = _parse_trace(body)
    scheduler = SCHEDULERS[scheduler_name](architecture, options)
    outcome = run_scheduler(
        scheduler, application, clustering, architecture,
        trace=trace, cache=_make_cache(cache_dir),
    )
    return 200, outcome_payload(outcome, workload=name)


def _execute_batch(body: Dict[str, Any],
                   cache_dir: Optional[str]) -> Tuple[int, Dict]:
    _reject_unknown_keys(body, _BATCH_KEYS, "request")
    cases = body.get("cases")
    if not isinstance(cases, list) or not cases:
        raise ServiceError(400, "cases must be a non-empty JSON array")
    trace = _parse_trace(body)
    parsed = []
    for index, case_body in enumerate(cases):
        if not isinstance(case_body, dict):
            raise ServiceError(400, f"cases[{index}] must be a JSON object")
        _reject_unknown_keys(case_body, _CASE_KEYS, f"cases[{index}]")
        parsed.append(_parse_case(case_body))
    cache = _make_cache(cache_dir)
    results = [
        outcome_payload(
            run_scheduler(
                SCHEDULERS[scheduler_name](architecture, options),
                application, clustering, architecture,
                trace=trace, cache=cache,
            ),
            workload=name,
        )
        for (name, application, clustering, architecture, scheduler_name,
             options) in parsed
    ]
    return 200, {"ok": True, "count": len(results), "results": results}


_ENDPOINTS = {
    "schedule": _execute_schedule,
    "batch": _execute_batch,
}


def execute_request(
    endpoint: str,
    body: Dict[str, Any],
    cache_dir: Optional[str] = None,
) -> Tuple[int, Dict[str, Any], Dict[str, Any]]:
    """Run one parsed request; the worker-pool entry point.

    Returns ``(http_status, response_payload, metrics_snapshot)`` and
    never raises: every failure mode is folded into a status + error
    payload so a bad request can not poison the worker or the pool.
    Top-level (picklable) so process-mode pools can dispatch it, and
    wrapped in :func:`~repro.obs.metrics.request_scope` so pipeline
    stage timings and cache counters come back with the response
    instead of interleaving with other requests' samples.
    """
    with metrics.request_scope(merge_into_global=False) as registry:
        try:
            handler = _ENDPOINTS[endpoint]
        except KeyError:
            return (
                404,
                error_payload("NotFound", f"unknown endpoint {endpoint!r}"),
                registry.snapshot(),
            )
        try:
            status, payload = handler(body, cache_dir)
        except ServiceError as exc:
            status, payload = exc.status, error_payload(exc.kind, str(exc))
        except LintError as exc:
            status = 422
            payload = error_payload(
                "LintError", str(exc),
                diagnostics=[
                    diagnostic.to_json() for diagnostic in exc.diagnostics
                ],
            )
        except ReproError as exc:
            status = 400
            payload = error_payload(type(exc).__name__, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            status = 500
            payload = error_payload(
                "InternalError", f"{type(exc).__name__}: {exc}"
            )
    return status, payload, registry.snapshot()
