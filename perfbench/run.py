"""The repository benchmark: cold corpus, zipf service and paper run.

Run from the root of a checkout; nothing needs installing, since every
process it starts gets ``PYTHONPATH=src``::

    python3 perfbench/run.py --workload corpus_cold --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` starts a few set-up-only processes and one measured
process (``perfbench/workload.py``) and reports the end-to-end metrics.
``--trace 1`` replays the ops of an untraced half-length run in a
process whose layer entry points are wrapped (``perfbench/tracer.py``)
and reports per-layer metrics; it fails when more than 10% of the
traced wall time is unattributed.  The last line of standard output is
the JSON result.  ``perfbench/README.md`` describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

WORKLOADS = ("corpus_cold", "service_zipf", "paper_run")

#: The percentile reported as ``op_tail_ms``: the highest that leaves at
#: least ten samples beyond it at the benchmark's run length.
TAIL_PERCENTILE = {
    "corpus_cold": 0.80, "service_zipf": 0.99, "paper_run": 0.98,
}

#: Set-up-only processes started before the measured one; ``setup_s``
#: is the median over them.  It is raw wall time: a process start is
#: file reads, mappings and page faults more than interpreter work, and
#: the reference loop of speed.py does not track its speed.
SETUP_PROBES = {"corpus_cold": 9, "service_zipf": 5, "paper_run": 9}

MAX_UNATTRIBUTED_PCT = 10.0
CHILD_TIMEOUT_S = 170

#: Every traced entry point (see tracer.py); each reports its self time.
SPANS = (
    "dataflow.lower_program", "dataflow.happens_before",
    "dataflow.check_races", "dataflow.check_interference",
    "dataflow.check_capacity", "dataflow.check_dead_transfers",
    "dataflow.check_retention_liveness", "alloc.allocate", "sim.run",
    "codegen.generate_program", "codegen.verify_program",
    "schedule.compile_many", "schedule.schedule",
    "core.analyze_dataflow", "workloads.random_application",
    "cache.outcome_key", "cache.get", "cache.put",
    "service.execute_request", "service.decode",
    "service.outcome_payload", "service.encode_json",
    "analysis.run_scheduler", "analysis.corpus_study",
    "analysis.compare_experiment",
)
#: Entry points whose call counts are reported too.
COUNTED = (
    "alloc.allocate", "sim.run", "codegen.generate_program",
    "codegen.verify_program", "schedule.compile_many",
    "schedule.schedule", "core.analyze_dataflow",
    "workloads.random_application", "cache.outcome_key", "cache.get",
    "cache.put", "service.execute_request",
)
UNITS = {
    "op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB", "cache.hit_ratio": "ratio",
    "service.follower_ratio": "ratio", "cache.bytes_written": "bytes",
}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    return "count"


def percentile(values, fraction):
    """Nearest-rank percentile of *values*."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def run_child(root, scratch, config):
    """Run one fresh workload process; returns its result and its
    set-up time (spawn until its first op could start)."""
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    config = dict(config, scratch=str(workdir),
                  out=str(workdir / "result.json"))
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    started = time.time()
    # A session of its own, so a child that overruns is killed together
    # with the server it may have started.
    child = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "workload.py"), str(config_path)],
        cwd=root, env=env, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, child.args)
    result = json.loads(Path(config["out"]).read_text())
    return result, result["ready_at"] - started


def base_config(args):
    return {
        "workload": args.workload, "seed": args.seed, "trace": False,
        "probe": False, "seconds": None, "plan": None,
    }


def properties(workload, result):
    """Facts about a run that are not metrics (printed, not gated)."""
    facts = dict(result.get("properties", {}),
                 ops=len(result["latencies_s"]))
    if workload == "paper_run":
        # Repeats of an experiment must not be served by a memo: the
        # first pass and the later ones should time alike.
        passes = [(number, latency) for (number, _), latency
                  in zip(result["plan"], result["latencies_s"])]
        first = [latency for number, latency in passes if number == 0]
        later = [latency for number, latency in passes if number > 0]
        facts["first_pass_p50_ms"] = statistics.median(first) * 1e3
        if later:
            facts["later_pass_p50_ms"] = statistics.median(later) * 1e3
    return facts


def end_to_end(args, root, scratch):
    config = base_config(args)
    setups = [
        run_child(root, scratch, dict(config, probe=True))[1]
        for _ in range(SETUP_PROBES[args.workload])
    ]
    result, _ = run_child(root, scratch, dict(config, seconds=args.seconds))
    latencies = result["latencies_s"]
    raw = result["raw_latencies_s"]
    tail = TAIL_PERCENTILE[args.workload]
    print(json.dumps(dict(
        properties(args.workload, result),
        tail_percentile=tail,
        raw_op_p50_ms=statistics.median(raw) * 1e3,
        raw_ops_per_s=len(raw) / result["work_s"],
        setup_samples_s=setups,
        reference_loop_ms=result["reference_loop_ms"],
    )))
    return [result], {
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": percentile(latencies, tail) * 1e3,
        "ops_per_s": len(latencies) / result["scaled_work_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(args, root, scratch):
    config = base_config(args)
    untraced, _ = run_child(
        root, scratch, dict(config, seconds=args.seconds / 2)
    )
    traced, _ = run_child(
        root, scratch, dict(config, trace=True, plan=untraced["plan"])
    )
    layers = traced["trace"]["layers"]

    def total(name, key):
        return layers.get(name, {}).get(key, 0)

    metrics = {f"{name}.self_ms": total(name, "self_ns") / 1e6
               for name in SPANS}
    metrics.update({f"{name}.calls": total(name, "calls")
                    for name in COUNTED})
    gets = total("cache.get", "calls")
    metrics.update({
        "dataflow.calls": total("dataflow.lower_program", "calls"),
        "dataflow.ir_nodes": total("dataflow.lower_program", "value"),
        "schedule.infeasible": (total("schedule.compile_many", "value")
                                + total("schedule.schedule", "value")),
        "cache.hit_ratio": total("cache.get", "value") / gets if gets else 0.0,
        "cache.bytes_written": traced.get("cache_bytes_written", 0),
        "service.overhead_ms": 0.0,
        "service.follower_ratio": traced.get("properties", {}).get(
            "follower_share", 0.0),
    })
    if args.workload == "service_zipf":
        # Client latency no server-side span covers: HTTP, JSON parsing,
        # single-flight and executor queue waits, the response write.
        metrics["service.overhead_ms"] = (
            sum(traced["latencies_s"]) * 1e3
            - traced["trace"]["top_ns"] / 1e6
        )
    # The wall time to explain: the timed loop, or on the service the
    # clients' summed active time (each waits on one request at a time).
    wall_ms = traced["busy_s"] * 1e3
    attributed = (sum(metrics[f"{name}.self_ms"] for name in SPANS)
                  + metrics["service.overhead_ms"])
    metrics["unattributed_ms"] = wall_ms - attributed
    metrics["unattributed_pct"] = 100 * metrics["unattributed_ms"] / wall_ms
    metrics["trace_overhead_pct"] = 100 * (
        traced["work_s"] / untraced["work_s"] - 1
    )
    print(json.dumps(properties(args.workload, traced)))
    if metrics["unattributed_pct"] > MAX_UNATTRIBUTED_PCT:
        raise SystemExit(
            f"perfbench: {metrics['unattributed_pct']:.1f}% of the traced "
            f"wall time is unattributed (limit {MAX_UNATTRIBUTED_PCT}%)"
        )
    return [untraced, traced], metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout "
              "(src/repro is missing)", file=sys.stderr)
        return 2
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        measure = per_layer if args.trace else end_to_end
        results, metrics = measure(args, root, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    verdicts = [ok for result in results for ok in result["ok"]]
    failed = verdicts.count(False)
    print(json.dumps({
        "correct": bool(verdicts) and failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
