"""One benchmark process: set up a workload, time its ops, check outputs.

``run.py`` starts a fresh interpreter for every measured run and every
set-up probe::

    PYTHONPATH=src python3 perfbench/workload.py CONFIG.json

The config (JSON) names the workload and its ``seed``, either a time
budget (``seconds``) or the exact ops to replay (``plan``), whether to
trace, whether to stop once set up (``probe``), a scratch directory and
the result file.  The result records the
wall-clock instant set-up ended (``ready_at``), every op's latency (raw,
and untraced also rescaled to the reference speed of speed.py) and
verdict, the ops run (the plan a traced replay repeats), the peak RSS
of the process that ran the pipeline and, when traced, the span
summary.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import itertools
import json
import os
import random
import resource
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from speed import SpeedMeter
from tracer import Tracer, install_pipeline, summarize

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"
HOST = "127.0.0.1"

#: corpus_cold draws workload seeds from ``range(CORPUS_POOL)``, never
#: twice in one run, taking one seed from each of ``CORPUS_STRATA`` cost
#: strata in turn; expected/corpus_cold.json holds the pool ordered by
#: cost and every seed's outcome.  Each stratum spans 4% of the pool, so
#: the ~70 ops of a run sample its cost distribution nearly the same
#: way whatever the seed, and the run's median op is steady.
CORPUS_POOL = 1000
CORPUS_STRATA = 25
CORPUS_ARGS = {"fb": "16K", "iterations": 48}

#: service_zipf: the request pool (the same workloads for every seed;
#: the seed draws the request sequence), its zipf skew, and the draws
#: each client holds (more than one run sends).
SERVICE_POOL = 1000
SERVICE_SKEW = 1.1
SERVICE_DRAWS = 20_000

#: Untimed reference-loop time after each in-process op, as a share of
#: the op's own time (at least one loop); see speed.py.
REFERENCE_SHARE = 0.05
#: service_zipf runs its closed loop in rounds of this length, all
#: clients idle between rounds while the reference loop runs.
SERVICE_ROUND_S = 0.5
SERVICE_ROUND_REFERENCE_S = 0.05
#: A run stops at this many times its budget of wall time, however
#: little reference-speed time it has spent.
WALL_CAP = 2


def load_expected(workload):
    return json.loads((EXPECTED_DIR / f"{workload}.json").read_text())


def corpus_outcome(stats):
    """One seed's ``CorpusStats`` as the list the expected file holds."""
    return list(dataclasses.astuple(stats))


def paper_outcome(row):
    """Cycles, data words and RF of each scheduler in a comparison row."""
    return {
        name: [outcome.total_cycles, outcome.data_words, outcome.rf]
        for name, outcome in (
            ("basic", row.basic), ("ds", row.ds), ("cds", row.cds)
        )
    }


# -- in-process workloads ------------------------------------------------


def stratified_order(strata, rng):
    """Every pool seed once, in rounds that take one unused seed from
    each cost stratum, so any prefix holds the same mix of workloads."""
    shuffled = [rng.sample(stratum, len(stratum)) for stratum in strata]
    order = []
    for picks in zip(*shuffled):
        picks = list(picks)
        rng.shuffle(picks)
        order.extend(picks)
    return order


def corpus_cold(config):
    """A cold ``repro corpus`` study of one fresh workload seed per op."""
    import repro.analysis.corpus as corpus
    import repro.lint  # noqa: F401  (the first hazard analysis imports it)

    recorded = load_expected("corpus_cold")
    expected = recorded["outcomes"]
    by_cost = recorded["by_cost"]
    size = CORPUS_POOL // CORPUS_STRATA
    strata = [sorted(by_cost[start:start + size])
              for start in range(0, CORPUS_POOL, size)]
    seeds = config["plan"] or stratified_order(
        strata, random.Random(config["seed"])
    )

    def op(seed):
        stats = corpus.corpus_study([seed], **CORPUS_ARGS)
        return corpus_outcome(stats) == expected[seed]

    return seeds, op


def paper_run(config):
    """``compare_experiment`` over Table 1, in seed-shuffled passes."""
    import repro.analysis.compare as compare
    from repro.workloads.spec import paper_experiments

    specs = {spec.id: spec for spec in paper_experiments()}
    expected = load_expected("paper_run")

    def passes():
        rng = random.Random(config["seed"])
        for number in itertools.count():
            ids = sorted(specs)
            rng.shuffle(ids)
            for spec_id in ids:
                yield [number, spec_id]

    def op(item):
        row = compare.compare_experiment(specs[item[1]])
        return paper_outcome(row) == expected[item[1]]

    return config["plan"] or passes(), op


IN_PROCESS = {"corpus_cold": corpus_cold, "paper_run": paper_run}


class _Budget:
    """A run's time budget, spent on the reference-speed clock when a
    meter runs (see speed.py) and on the wall clock otherwise, and cut
    off on the wall clock at :data:`WALL_CAP` times its length.  With
    no budget (a replayed plan) the run is never over."""

    def __init__(self, seconds, start):
        self.seconds = seconds
        self.spent = 0.0
        self.cutoff = None if seconds is None else start + WALL_CAP * seconds

    def spend(self, took, meter):
        self.spent += took if meter is None else meter.scale_recent(took)

    def remaining(self):
        return self.seconds - self.spent

    def over(self):
        return self.seconds is not None and (
            self.spent >= self.seconds or time.perf_counter() >= self.cutoff
        )


def _reset_peak_rss():
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def _peak_rss_mb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_in_process(config):
    """Time the ops serially.  Untraced, the reference loop runs after
    every op for :data:`REFERENCE_SHARE` of its time, and each op's
    peak RSS is read from a high-water mark reset before it."""
    tracer = None
    if config["trace"]:
        tracer = Tracer()
        install_pipeline(tracer)
    items, op = IN_PROCESS[config["workload"]](config)
    meter = None if config["trace"] or config["probe"] else SpeedMeter()
    result = {"ready_at": time.time()}
    if config["probe"]:
        return result
    timings, peaks, verdicts, plan = [], [], [], []
    start = time.perf_counter()
    budget = _Budget(config["seconds"], start)
    for item in items:
        if budget.over():
            break
        if meter is not None:
            _reset_peak_rss()
        began = time.perf_counter()
        try:
            ok = op(item)
        except Exception:
            traceback.print_exc()
            ok = False
        took = time.perf_counter() - began
        timings.append((began + took / 2, took))
        verdicts.append(ok)
        plan.append(item)
        if meter is not None:
            peaks.append(_peak_rss_mb())
            meter.sample(REFERENCE_SHARE * took)
        budget.spend(took, meter)
    elapsed = time.perf_counter() - start
    raw = [took for _, took in timings]
    result.update(
        elapsed_s=elapsed,
        busy_s=elapsed,
        work_s=sum(raw),
        raw_latencies_s=raw,
        latencies_s=raw,
        ok=verdicts,
        plan=plan,
    )
    if meter is not None:
        scaled = [meter.scale(took, at) for at, took in timings]
        result.update(
            latencies_s=scaled,
            scaled_work_s=sum(scaled),
            peak_rss_mb=statistics.median(peaks),
            reference_loop_ms=meter.median_loop_ms(),
        )
    if tracer is not None:
        result["trace"] = summarize(tracer.spans)
    return result


# -- service_zipf ----------------------------------------------------------


def _post(connection, body):
    connection.request("POST", "/v1/schedule", body=body,
                       headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.read()


def _get_json(port, path):
    connection = http.client.HTTPConnection(HOST, port, timeout=60)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class _Client:
    """One keep-alive client of the closed loop: its next request goes
    out once the previous reply is in.  Records are ``(index, began,
    latency, status, body digest)``."""

    def __init__(self, port, draws):
        self.connection = http.client.HTTPConnection(HOST, port, timeout=120)
        self.draws = iter(draws)
        self.records = []
        self.done = False
        self.finished = 0.0

    def run(self, requests, deadline):
        """Send requests until *deadline* (``None``: until the draws
        run out or a request fails)."""
        while not self.done and (deadline is None
                                 or time.perf_counter() < deadline):
            index = next(self.draws, None)
            if index is None:
                self.done = True
                break
            began = time.perf_counter()
            try:
                status, body = _post(self.connection, requests[index])
                digest = hashlib.sha256(body).hexdigest()
            except (OSError, http.client.HTTPException):
                traceback.print_exc()
                status, digest, self.done = 0, "", True
            self.records.append(
                (index, began, time.perf_counter() - began, status, digest)
            )
        self.finished = time.perf_counter()


def _closed_loop(port, requests, schedules, seconds, meter):
    """Run one client thread per schedule, until a budget of *seconds*
    is spent (see :class:`_Budget`) or every schedule is sent.  With a
    *meter*, the loop runs in rounds and the reference loop runs between
    them, with no request in flight.
    Returns the clients, each round's ``(start, wall time)`` and the
    clients' summed active time."""
    clients = [_Client(port, schedule) for schedule in schedules]
    rounds, busy = [], 0.0
    budget = _Budget(seconds, time.perf_counter())
    try:
        while not all(client.done for client in clients):
            if meter is not None:
                meter.sample(SERVICE_ROUND_REFERENCE_S)
            if budget.over():
                break
            began = time.perf_counter()
            deadline = None
            if seconds is not None:
                # The rest of the budget, in wall time at the latest speed.
                rest = budget.remaining()
                if meter is not None:
                    rest = min(SERVICE_ROUND_S, meter.wall_recent(rest))
                deadline = began + rest
            threads = [
                threading.Thread(target=client.run, args=(requests, deadline))
                for client in clients
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            took = time.perf_counter() - began
            rounds.append((began, took))
            busy += sum(client.finished - began for client in clients)
            budget.spend(took, meter)
        if meter is not None:
            meter.sample(SERVICE_ROUND_REFERENCE_S)
    finally:
        for client in clients:
            client.connection.close()
    return clients, rounds, busy


def _free_port():
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


def _start_server(config, port, cache_dir, spans_path, jobs):
    jobs = str(jobs)
    if config["trace"]:
        argv = [sys.executable, str(BENCH_DIR / "traced_server.py"),
                str(port), cache_dir, jobs, spans_path]
    else:
        argv = [sys.executable, "-m", "repro", "serve", "--host", HOST,
                "--port", str(port), "--cache-dir", cache_dir,
                "--jobs", jobs, "--mode", "thread"]
    return subprocess.Popen(argv, stdout=subprocess.DEVNULL)


def _wait_healthy(server, port):
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if server.poll() is not None:
            raise RuntimeError(f"server exited with code {server.returncode}")
        try:
            status, payload = _get_json(port, "/v1/healthz")
        except OSError:
            time.sleep(0.01)
            continue
        if status == 200 and payload.get("ok") is True:
            return
    raise RuntimeError("server did not answer /v1/healthz in time")


def _pin(pid, cpus):
    """Bind every thread of process *pid* to *cpus*."""
    for task in os.listdir(f"/proc/{pid}/task"):
        os.sched_setaffinity(int(task), cpus)


def _stop(server):
    if server.poll() is None:
        server.send_signal(signal.SIGTERM)
    try:
        server.wait(timeout=60)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()


def _cache_bytes(cache_dir):
    return sum(path.stat().st_size for path in cache_dir.rglob("*.pkl"))


def _cold_digest(body):
    """Digest of the response body an uncached in-process compile of
    *body* gives."""
    from repro.analysis.compare import run_scheduler
    from repro.fuzz.case import FuzzCase
    from repro.service.protocol import SCHEDULERS, encode_json, outcome_payload

    case = FuzzCase.from_dict(body["workload"])
    application, clustering = case.build()
    architecture = case.architecture()
    outcome = run_scheduler(
        SCHEDULERS[body["scheduler"]](architecture), application,
        clustering, architecture, trace=body["trace"],
    )
    payload = outcome_payload(outcome, workload=case.name)
    return hashlib.sha256(encode_json(payload)).hexdigest()


def service_zipf(config):
    """``repro serve`` under a closed loop of keep-alive clients."""
    from repro.service.loadgen import build_corpus, zipf_indices
    from repro.service.protocol import encode_json

    # nproc clients and workers but, once set up, the server and its
    # clients share one CPU.  Spread over two CPUs, each request crossed
    # between them several times, and in busy spells of a shared host
    # those wake-ups slowed the service by up to 2x, three times as much
    # as the reference loop of speed.py, which runs on the pinned CPU.
    clients = len(os.sched_getaffinity(0))
    cpus = {min(os.sched_getaffinity(0))}
    scratch = Path(config["scratch"])
    cache_dir, spans_path = scratch / "cache", scratch / "spans.json"
    port = _free_port()
    server = _start_server(config, port, str(cache_dir), str(spans_path),
                           jobs=clients)
    try:
        bodies = build_corpus(SERVICE_POOL)
        requests = [encode_json(body) for body in bodies]
        draws = zipf_indices(clients * SERVICE_DRAWS, SERVICE_POOL,
                             skew=SERVICE_SKEW, seed=config["seed"])
        schedules = [draws[slot::clients] for slot in range(clients)]
        if config["plan"] is not None:
            schedules = [schedule[:count] for schedule, count
                         in zip(schedules, config["plan"])]
        # A workload outside the pool takes the lazy first-request cost.
        warm_up = encode_json(build_corpus(1, seed=SERVICE_POOL)[0])
        _wait_healthy(server, port)
        connection = http.client.HTTPConnection(HOST, port, timeout=120)
        try:
            status, _ = _post(connection, warm_up)
        finally:
            connection.close()
        if status != 200:
            raise RuntimeError(f"warm-up request answered {status}")
        result = {"ready_at": time.time()}
        if config["probe"]:
            return result
        _pin(server.pid, cpus)
        _pin(os.getpid(), cpus)
        meter = None if config["trace"] else SpeedMeter()
        before = _get_json(port, "/v1/metrics")[1]["metrics"]["counters"]
        written = _cache_bytes(cache_dir)
        since_ns = time.monotonic_ns()
        start = time.perf_counter()
        loop, rounds, busy = _closed_loop(
            port, requests, schedules, config["seconds"], meter
        )
        elapsed = time.perf_counter() - start
        until_ns = time.monotonic_ns()
        after = _get_json(port, "/v1/metrics")[1]["metrics"]["counters"]
        written = _cache_bytes(cache_dir) - written
    finally:
        _stop(server)

    flat = [record for client in loop for record in client.records]
    expected = {
        index: _cold_digest(bodies[index])
        for index in sorted({record[0] for record in flat})
    }
    sent = max(1, len(flat))

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    raw = [record[2] for record in flat]
    result.update(
        elapsed_s=elapsed,
        busy_s=busy,
        work_s=sum(took for _, took in rounds),
        raw_latencies_s=raw,
        latencies_s=raw,
        ok=[status == 200 and digest == expected[index]
            for index, _, _, status, digest in flat],
        plan=[len(client.records) for client in loop],
        # The server is this process's only child, so this is its peak.
        peak_rss_mb=resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        cache_bytes_written=written,
        properties={
            "clients": clients,
            "hit_share": delta("cache/cache.hit") / sent,
            "follower_share": delta("service/singleflight.follower") / sent,
            "misses": delta("cache/cache.miss"),
            "distinct_workloads": len(expected),
        },
    )
    if meter is not None:
        result.update(
            latencies_s=[meter.scale(took, began + took / 2)
                         for _, began, took, _, _ in flat],
            scaled_work_s=sum(meter.scale(took, began + took / 2)
                              for began, took in rounds),
            reference_loop_ms=meter.median_loop_ms(),
        )
    if config["trace"]:
        spans = json.loads(spans_path.read_text())
        result["trace"] = summarize(spans, since_ns, until_ns)
    return result


def main(config_path):
    config = json.loads(Path(config_path).read_text())
    if config["workload"] == "service_zipf":
        result = service_zipf(config)
    else:
        result = run_in_process(config)
    Path(config["out"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
