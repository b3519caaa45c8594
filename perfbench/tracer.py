"""Span tracer for the benchmark's traced runs.

The program's source is never edited: :func:`install_pipeline` and
:func:`install_service` replace each layer's public entry points with
timing wrappers, at the module or class attribute its callers look up
at call time.

Each thread keeps its own span stack.  A span's self time is its
duration minus the durations of the spans nested directly inside it on
the same thread, so the self times of a thread's spans sum to the
inclusive time of its outermost spans.  Spans stay in memory as plain
tuples and are reduced by :func:`summarize` once the run ends.

Programs from the templated code generator fill their visits in
lazily; that cost lands in whichever span first touches a visit
(``sim.run``, ``codegen.verify_program`` or ``dataflow.lower_program``),
which is where users pay it too.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class Tracer:
    """Collects spans from every thread of one process.

    A span is ``(name, start_ns, duration_ns, self_ns, depth, value)``:
    times on the system-wide monotonic clock (comparable across
    processes), ``depth`` 0 for a thread's outermost span, and
    ``value`` a per-span count (IR nodes, cache hit, ...) or ``None``.
    """

    def __init__(self) -> None:
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name) -> bool:
        """Whether span *name* is open on the calling thread."""
        return any(frame[0] == name for frame in self._stack())

    def wrap(self, name, fn, value=None):
        """*fn* timed as span *name*.

        ``value(result)`` gives the span's count when *fn* returns and
        ``value(exc)`` when it raises (the exception propagates).
        """
        clock = time.monotonic_ns
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            frame = [name, 0]  # name, children's inclusive time
            stack.append(frame)
            start = clock()
            count = None
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    count = value(result)
                return result
            except Exception as exc:
                if value is not None:
                    count = value(exc)
                raise
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                spans.append((
                    name, start, duration, duration - frame[1],
                    len(stack), count,
                ))

        return traced


def summarize(spans, since_ns=0, until_ns=None):
    """Per-name ``calls``/``self_ns``/``value`` totals over the spans
    starting in ``[since_ns, until_ns]``, plus ``top_ns``: the summed
    inclusive time of the outermost ones."""
    layers = defaultdict(lambda: {"calls": 0, "self_ns": 0, "value": 0})
    top_ns = 0
    for name, start, duration, self_ns, depth, value in spans:
        if start < since_ns or (until_ns is not None and start > until_ns):
            continue
        entry = layers[name]
        entry["calls"] += 1
        entry["self_ns"] += self_ns
        if value is not None:
            entry["value"] += value
        if depth == 0:
            top_ns += duration
    return {"layers": dict(layers), "top_ns": top_ns}


# -- installation ----------------------------------------------------------


def _patch(tracer, owner, attribute, name, value=None):
    """Replace ``owner.attribute`` with its traced version."""
    raw = owner.__dict__[attribute]
    if isinstance(raw, classmethod):
        traced = classmethod(tracer.wrap(name, raw.__func__, value))
    else:
        traced = tracer.wrap(name, raw, value)
    setattr(owner, attribute, traced)
    return traced


def install_pipeline(tracer):
    """Trace the compile pipeline: workload generation, dataflow,
    scheduling, code generation, simulation, cache and hazard analysis.
    """
    import repro.alloc.allocator as allocator
    import repro.analysis.compare as compare
    import repro.analysis.corpus as corpus
    import repro.cache as cache
    import repro.codegen.generator as generator
    import repro.dataflow.analyzer as analyzer
    import repro.dataflow.hazards as hazards
    import repro.dataflow.passes as passes
    import repro.schedule.base as base
    import repro.schedule.batch as batch
    import repro.schedule.batch.compiler as batch_compiler
    import repro.sim.engine as engine
    import repro.workloads.random_gen as random_gen
    from repro.errors import InfeasibleScheduleError

    def ir_nodes(ir):
        return None if isinstance(ir, Exception) else len(ir.nodes)

    def infeasible_results(results):
        if isinstance(results, Exception):
            return None
        return sum(result.error is not None for result in results)

    def infeasible_raised(outcome):
        # Inside compile_many the verdict is counted from its results.
        if (isinstance(outcome, InfeasibleScheduleError)
                and not tracer.inside("schedule.compile_many")):
            return 1
        return None

    def cache_hit(result):
        return int(result is not None and not isinstance(result, Exception))

    # Functions imported by name into several modules share one wrapper.
    generate = _patch(tracer, generator, "generate_program",
                      "codegen.generate_program")
    compare.generate_program = generate
    _patch(tracer, engine, "verify_program", "codegen.verify_program")
    dataflow = _patch(tracer, compare, "analyze_dataflow",
                      "core.analyze_dataflow")
    base.analyze_dataflow = dataflow
    batch_compiler.analyze_dataflow = dataflow
    random_app = _patch(tracer, random_gen, "random_application",
                        "workloads.random_application")
    corpus.random_application = random_app

    _patch(tracer, analyzer, "lower_program", "dataflow.lower_program",
           ir_nodes)
    _patch(tracer, hazards.HappensBefore, "build", "dataflow.happens_before")
    for check in ("check_races", "check_interference", "check_capacity",
                  "check_dead_transfers", "check_retention_liveness"):
        _patch(tracer, passes, check, f"dataflow.{check}")
    _patch(tracer, allocator.FrameBufferAllocator, "allocate",
           "alloc.allocate")
    _patch(tracer, engine.Simulator, "run", "sim.run")
    _patch(tracer, batch, "compile_many", "schedule.compile_many",
           infeasible_results)
    _patch(tracer, base.DataSchedulerBase, "schedule", "schedule.schedule",
           infeasible_raised)
    _patch(tracer, cache, "outcome_key", "cache.outcome_key")
    _patch(tracer, cache.CacheStore, "get", "cache.get", cache_hit)
    _patch(tracer, cache.CacheStore, "put", "cache.put")
    _patch(tracer, compare, "run_scheduler", "analysis.run_scheduler")
    _patch(tracer, compare, "compare_experiment",
           "analysis.compare_experiment")
    _patch(tracer, corpus, "corpus_study", "analysis.corpus_study")


def install_service(tracer):
    """Trace the service layer on top of the pipeline (server side)."""
    install_pipeline(tracer)
    import repro.analysis.compare as compare
    import repro.fuzz.case as case
    import repro.service.protocol as protocol
    import repro.service.server as server

    protocol.run_scheduler = compare.run_scheduler
    _patch(tracer, server, "execute_request", "service.execute_request")
    _patch(tracer, case.FuzzCase, "from_dict", "service.decode")
    _patch(tracer, case.FuzzCase, "build", "service.decode")
    _patch(tracer, protocol, "outcome_payload", "service.outcome_payload")
    server.encode_json = _patch(tracer, protocol, "encode_json",
                                "service.encode_json")
