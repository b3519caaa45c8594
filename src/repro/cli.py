"""Command-line interface: ``python -m repro <command>`` or ``repro``.

Commands:

* ``table1``   — regenerate the paper's Table 1 (measured vs paper);
* ``figure6``  — regenerate Figure 6 as an ASCII bar chart;
* ``run <exp>`` — run one experiment and print the full comparison,
  schedules and Gantt charts;
* ``ablation <exp>`` — run the keep/RF/DMA ablations on one experiment;
* ``alloc <exp>`` — print the frame-buffer allocation walkthrough
  (Figure 5 style) for the CDS schedule of an experiment;
* ``sweep <exp>`` — trace RF/traffic/makespan against the FB size;
* ``corpus`` — robustness study over seeded random workloads;
* ``trace <exp>`` — export one experiment's simulated timeline (and the
  scheduler's decision trace) as Chrome ``trace_event`` JSON for
  Perfetto / ``chrome://tracing``, raw JSON, or text;
* ``tinyrisc <exp>`` — emit the TinyRISC control-program listing;
* ``lint <exp>`` — run the static-analysis lint passes over an
  experiment's full pipeline (exit 1 when errors are found);
* ``analyze <target>`` — timing-aware hazard analysis (def-use IR +
  happens-before graph) of generated programs: DMA/compute races,
  live-range interference, dead transfers, retention liveness,
  capacity over time (exit 1 on any error-severity finding);
* ``fuzz``    — differential fuzzing: adversarial workload regimes
  cross-checked by the oracle stack, failures shrunk to minimal
  reproducers (exit 1 on any violation);
* ``gap``     — greedy-vs-exact optimality gap table: every workload
  scheduled by both the greedy CDS and the exact branch-and-bound
  solver, reporting the traffic words each moves (exit 1 on any
  unsound row — a case where greedy "beats" exact or the schedulers
  disagree on feasibility);
* ``cache``   — inspect (``stats``) or wipe (``clear``) the persistent
  cross-run pipeline cache used by ``--cache-dir``;
* ``serve``   — run the scheduler service: an asyncio HTTP/JSON server
  exposing the pipeline (``POST /v1/schedule``, ``POST /v1/batch``,
  ``GET /v1/metrics``, ``GET /v1/healthz``) over a worker pool with
  single-flight dedup and a shared pipeline cache;
* ``loadgen`` — drive a zipf-skewed concurrent load campaign against a
  running service (or a self-hosted one) and report latency
  percentiles, throughput and cache effectiveness;
* ``list``     — list the available experiments.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.analysis.ablation import render_ablation
from repro.analysis.compare import compare_experiment
from repro.analysis.figure6 import render_figure6
from repro.analysis.table1 import build_table1, render_table1
from repro.alloc.allocator import FrameBufferAllocator
from repro.fuzz.generator import regime_names
from repro.fuzz.oracles import ORACLE_NAMES
from repro.schedule import SCHEDULERS
from repro.workloads.spec import ExperimentSpec, paper_experiments

__all__ = ["main"]


def _jobs_count(text: str) -> int:
    """argparse type for ``--jobs``: a non-negative worker count."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid jobs count {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"jobs must be >= 0 (0 = one worker per CPU), got {value}"
        )
    return value


def _find_spec(experiment_id: str) -> ExperimentSpec:
    for spec in paper_experiments():
        if spec.id.lower() == experiment_id.lower():
            return spec
    known = ", ".join(spec.id for spec in paper_experiments())
    raise SystemExit(f"unknown experiment {experiment_id!r}; known: {known}")


def _cmd_list(_args) -> None:
    for spec in paper_experiments():
        note = f"  ({spec.notes})" if spec.notes else ""
        print(f"{spec.id:<10} FB={spec.fb:<3} paper RF={spec.paper_rf}{note}")


def _cmd_table1(args) -> None:
    rows = build_table1()
    if getattr(args, "json", False):
        import json
        payload = {}
        for row in rows:
            comparison = row.comparison
            payload[row.id] = {
                "rf": row.measured_rf,
                "dt_words": row.measured_dt_words,
                "ds_pct": row.measured_ds_pct,
                "cds_pct": row.measured_cds_pct,
                "basic_cycles": comparison.basic.total_cycles,
                "ds_cycles": comparison.ds.total_cycles,
                "cds_cycles": comparison.cds.total_cycles,
                "cds_data_words": comparison.cds.data_words,
            }
        print(json.dumps(payload, indent=1))
        return
    print(render_table1(rows))


def _cmd_figure6(_args) -> None:
    print(render_figure6())


@contextmanager
def _collecting_metrics(enabled: bool) -> Iterator[None]:
    """Collect into a fresh global metrics registry when *enabled*."""
    from repro.obs.metrics import get_registry, set_metrics_active

    if not enabled:
        yield
        return
    get_registry().reset()
    set_metrics_active(True)
    try:
        yield
    finally:
        set_metrics_active(False)


def _print_profile() -> None:
    from repro.obs.metrics import get_registry

    print("\npipeline profile (metrics registry):")
    print(get_registry().render())


def _cmd_run(args) -> None:
    profile = getattr(args, "profile", False)
    spec = _find_spec(args.experiment)
    with _collecting_metrics(profile):
        row = compare_experiment(spec, trace=args.gantt)
    print(f"experiment {spec.id} on {row.architecture}")
    for outcome in (row.basic, row.ds, row.cds):
        if not outcome.feasible:
            print(f"\n[{outcome.scheduler}] INFEASIBLE: "
                  f"{outcome.infeasible_reason}")
            continue
        print(f"\n[{outcome.scheduler}] cycles={outcome.total_cycles} "
              f"data_words={outcome.data_words} RF={outcome.rf}")
        print(outcome.schedule.describe())
        if args.gantt:
            print(outcome.report.gantt())
    print(f"\nDS  improvement: {row.ds_improvement_pct:.1f}%"
          if row.ds_improvement_pct is not None else "\nDS  improvement: n/a")
    print(f"CDS improvement: {row.cds_improvement_pct:.1f}%"
          if row.cds_improvement_pct is not None else "CDS improvement: n/a")
    if profile:
        _print_profile()


def _cmd_trace(args) -> int:
    import json

    from repro.arch.machine import MorphoSysM1
    from repro.arch.params import Architecture
    from repro.codegen.generator import generate_program
    from repro.obs import (
        chrome_trace,
        render_text_timeline,
        report_to_dict,
        validate_chrome_trace,
    )
    from repro.schedule.base import ScheduleOptions
    from repro.sim.engine import Simulator

    spec = _find_spec(args.experiment)
    application, clustering = spec.build()
    architecture = Architecture.m1(spec.fb)
    options = ScheduleOptions(decision_trace=True)
    schedule = SCHEDULERS[args.scheduler](architecture, options).schedule(
        application, clustering
    )
    # Extend the scheduler's decision trace with the Figure-4
    # placement/rollback events of both FB sets.
    FrameBufferAllocator(schedule, decisions=schedule.decisions).allocate()
    program = generate_program(schedule)
    report = Simulator(MorphoSysM1(architecture), trace=True).run(program)

    if args.format == "chrome":
        payload = chrome_trace(report, decisions=schedule.decisions)
        validate_chrome_trace(payload)
        text = json.dumps(payload, indent=1)
    elif args.format == "json":
        payload = {
            "report": report_to_dict(report),
            "decisions": schedule.decisions.to_dicts(),
        }
        text = json.dumps(payload, indent=1)
    else:
        lines = [
            f"{spec.id} ({args.scheduler}): {report.total_cycles} cycles, "
            f"{len(schedule.decisions)} recorded decisions",
            render_text_timeline(report),
        ]
        if args.decisions:
            lines.append("")
            lines.append("decision trace:")
            lines.append(schedule.decisions.render())
        text = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_ablation(args) -> None:
    from repro.analysis.parallel import run_all_ablations

    spec = _find_spec(args.experiment)
    print(render_ablation(run_all_ablations(
        spec, jobs=args.jobs, cache_dir=args.cache_dir,
    )))


def _cmd_tinyrisc(args) -> None:
    from repro.arch.params import Architecture
    from repro.codegen.generator import generate_program
    from repro.codegen.tinyrisc import lower_to_tinyrisc
    from repro.schedule.complete import CompleteDataScheduler

    spec = _find_spec(args.experiment)
    application, clustering = spec.build()
    schedule = CompleteDataScheduler(Architecture.m1(spec.fb)).schedule(
        application, clustering
    )
    control = lower_to_tinyrisc(generate_program(schedule))
    listing = control.render().splitlines()
    limit = args.lines if args.lines > 0 else len(listing)
    print("\n".join(listing[:limit]))
    if limit < len(listing):
        print(f"    ... {len(listing) - limit} more instructions")
    print(
        f"\n{len(control.instructions)} instructions; data loaded "
        f"{control.data_words_loaded}w, stored "
        f"{control.data_words_stored}w, contexts "
        f"{control.context_words_loaded}w"
    )


def _cmd_sweep(args) -> None:
    from repro.analysis.sweep import render_sweep, sweep_fb_sizes
    from repro.units import kwords

    spec = _find_spec(args.experiment)
    application, clustering = spec.build()
    sizes = [kwords(k) for k in (0.5, 1, 1.5, 2, 3, 4, 6, 8, 12, 16)]
    points = sweep_fb_sizes(
        application, clustering, sizes, jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    print(render_sweep(
        points, title=f"frame-buffer sweep of {spec.id} "
                      f"(paper point: FB={spec.fb})"
    ))


def _cmd_corpus(args) -> None:
    from repro.analysis.corpus import corpus_study

    profile = getattr(args, "profile", False)
    with _collecting_metrics(profile):
        stats = corpus_study(
            range(args.seeds), fb=args.fb, iterations=args.iterations,
            jobs=args.jobs, cache_dir=args.cache_dir,
        )
    print(stats.summary())
    if profile:
        _print_profile()


def _cmd_alloc(args) -> None:
    from repro.arch.params import Architecture
    from repro.schedule.complete import CompleteDataScheduler

    spec = _find_spec(args.experiment)
    application, clustering = spec.build()
    architecture = Architecture.m1(spec.fb)
    schedule = CompleteDataScheduler(architecture).schedule(
        application, clustering
    )
    allocator = FrameBufferAllocator(schedule, snapshots=True)
    for fb_set in (0, 1):
        allocation = allocator.allocate_set(fb_set)
        print(f"\n=== FB set {fb_set} "
              f"(peak {allocation.peak_words}/{allocation.capacity_words} "
              f"words, {allocation.splits} splits) ===")
        for snapshot in allocation.snapshots:
            regions = ", ".join(
                f"{name}#{instance}@{extents[0]}"
                for name, instance, extents in snapshot.regions
            )
            print(f"  {snapshot.label:<40} [{regions}]")


def _cmd_lint(args) -> int:
    import json

    from repro.lint import (
        lint_experiment,
        lint_targets,
        render_json,
        render_text,
    )
    from repro.lint.reporters import severity_overrides_from_args

    try:
        overrides = severity_overrides_from_args(args.severity)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.experiment.lower() == "all":
        names = [target.id for target in lint_targets()]
    else:
        names = [args.experiment]

    exit_code = 0
    json_reports = []
    for name in names:
        context, collector = lint_experiment(
            name,
            scheduler=args.scheduler,
            severity_overrides=overrides,
            suppress=args.disable,
            corrupt=args.corrupt,
        )
        if collector.has_errors:
            exit_code = 1
        if args.json:
            json_reports.append(
                render_json(
                    collector,
                    extra={"experiment": name, "scheduler": args.scheduler},
                )
            )
        else:
            print(render_text(
                collector,
                title=f"{name} ({args.scheduler})",
                verbose=args.verbose,
            ))
            print()
    if args.json:
        payload = json_reports[0] if len(json_reports) == 1 else json_reports
        print(json.dumps(payload, indent=2))
    return exit_code


def _cmd_analyze(args) -> int:
    import json

    from repro.dataflow.analyzer import parse_policy
    from repro.dataflow.runner import (
        analyze_targets,
        render_analysis_json,
        render_analysis_text,
    )

    schedulers = (
        list(SCHEDULERS) if args.scheduler == "all"
        else [args.scheduler]
    )
    if args.policy == "all":
        policy_names = ["contexts_first", "loads_first", "adaptive"]
    else:
        policy_names = [args.policy]
    policies = [parse_policy(name) for name in policy_names]

    results = analyze_targets(
        args.target,
        schedulers=schedulers,
        policies=policies,
        corpus_dir=args.corpus_dir,
    )
    if args.json or args.output:
        payload = render_analysis_json(results)
        text = json.dumps(payload, indent=2)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.write("\n")
            print(f"wrote {args.output}")
        if args.json or not args.output:
            print(text)
    if not args.json:
        print(render_analysis_text(results, verbose=args.verbose))
    return 1 if any(result.has_errors for result in results) else 0


def _cmd_fuzz(args) -> int:
    from repro.fuzz.runner import run_fuzz

    report = run_fuzz(
        range(args.seeds),
        regimes=args.regime or None,
        quick=args.quick,
        jobs=args.jobs,
        shrink=not args.no_shrink,
        failures_dir=args.failures_dir,
        include_paper=not args.no_paper,
        functional=not args.no_functional,
        cache_dir=args.cache_dir,
        oracles=args.oracle or None,
    )
    print(report.summary())
    if not report.ok and args.failures_dir:
        print(f"reproducers written to {args.failures_dir}/ — copy into "
              f"tests/corpus/ to pin them as regression tests")
    return 0 if report.ok else 1


def _cmd_gap(args) -> int:
    from repro.analysis.gap import (
        build_gap_table, gap_table_json, render_gap_table,
    )
    from repro.schedule.exact import DEFAULT_MAX_NODES

    specs = None
    if args.experiment:
        specs = [_find_spec(name) for name in args.experiment]
    rows = build_gap_table(
        specs,
        seeds=args.seeds,
        fb=args.fb,
        iterations=args.iterations,
        corpus_dir=None if args.no_corpus else args.corpus_dir,
        max_nodes=(DEFAULT_MAX_NODES if args.max_nodes is None
                   else args.max_nodes),
        budget_ms=args.budget_ms,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(gap_table_json(rows))
            handle.write("\n")
        print(f"wrote {args.output}")
    if args.json:
        print(gap_table_json(rows))
    else:
        print(render_gap_table(rows))
    return 1 if any(not row.sound for row in rows) else 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service.server import run_server

    def announce(service) -> None:
        print(
            f"repro service listening on "
            f"http://{service.host}:{service.port} "
            f"({service.cache_dir or 'no'} cache, "
            f"{args.mode} workers)",
            flush=True,
        )

    try:
        asyncio.run(run_server(
            host=args.host, port=args.port, cache_dir=args.cache_dir,
            jobs=args.jobs, mode=args.mode, ready=announce,
        ))
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass  # Ctrl-C, or SIGTERM (see run_server)
    print("service stopped")
    return 0


def _cmd_loadgen(args) -> int:
    import json

    from repro.service.loadgen import (
        check_loadgen,
        render_loadgen,
        run_loadgen,
    )

    payload = run_loadgen(
        clients=args.clients,
        requests_per_client=args.requests,
        distinct=args.distinct,
        skew=args.skew,
        seed=args.seed,
        host=args.host,
        port=args.port,
        scheduler=args.scheduler,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        mode=args.mode,
    )
    print(render_loadgen(payload))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}")
    if args.check:
        findings = check_loadgen(payload, min_hit_rate=args.min_hit_rate)
        if findings:
            print("\nLOADGEN CHECK FAILED:")
            for finding in findings:
                print(f"  {finding}")
            return 1
        print(f"\nloadgen check passed (hit_rate "
              f"{payload['hit_rate']:.3f} > {args.min_hit_rate:.2f}, "
              f"0 errors)")
    return 0


def _cmd_cache(args) -> int:
    from repro.cache import CacheStore, default_cache_dir

    root = args.cache_dir if args.cache_dir else default_cache_dir()
    store = CacheStore(root)
    if args.action == "stats":
        stats = store.stats()
        print(f"cache root:        {stats['root']}")
        print(f"code fingerprint:  {stats['code_fingerprint']}")
        print(f"generations:       {stats['generations']}")
        print(f"entries (current): {stats['entries']}")
        print(f"entries (stale):   {stats['stale_entries']}")
        print(f"total size:        {stats['total_bytes']} bytes")
        return 0
    try:
        removed = store.clear()
    except ValueError as exc:
        raise SystemExit(str(exc))
    print(f"cleared {removed} entries from {store.root}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Complete Data Scheduler reproduction (DATE 2002)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiments").set_defaults(func=_cmd_list)
    table1 = sub.add_parser("table1", help="regenerate Table 1")
    table1.add_argument("--json", action="store_true",
                        help="machine-readable output")
    table1.set_defaults(func=_cmd_table1)
    sub.add_parser("figure6", help="regenerate Figure 6").set_defaults(
        func=_cmd_figure6
    )
    run = sub.add_parser("run", help="run one experiment in detail")
    run.add_argument("experiment")
    run.add_argument("--gantt", action="store_true",
                     help="print per-scheduler Gantt charts")
    run.add_argument("--profile", action="store_true",
                     help="collect and print per-stage pipeline metrics")
    run.set_defaults(func=_cmd_run)
    trace = sub.add_parser(
        "trace",
        help="export a simulated timeline (Chrome trace_event / "
             "JSON / text)",
    )
    trace.add_argument("experiment")
    trace.add_argument("--scheduler", choices=tuple(SCHEDULERS),
                       default="cds", help="scheduler to trace")
    trace.add_argument("--format", choices=("chrome", "json", "text"),
                       default="chrome",
                       help="chrome: trace_event JSON for Perfetto / "
                            "chrome://tracing (default)")
    trace.add_argument("--output", metavar="PATH", default=None,
                       help="write to a file instead of stdout")
    trace.add_argument("--decisions", action="store_true",
                       help="include the full decision log in text "
                            "output")
    trace.set_defaults(func=_cmd_trace)
    ablation = sub.add_parser("ablation", help="design-choice ablations")
    ablation.add_argument("experiment")
    ablation.add_argument("--jobs", type=_jobs_count, default=None,
                          help="worker processes (0 = one per CPU; "
                               "default serial)")
    ablation.add_argument("--cache-dir", metavar="DIR", default=None,
                          help="persistent pipeline cache directory")
    ablation.set_defaults(func=_cmd_ablation)
    alloc = sub.add_parser("alloc", help="FB allocation walkthrough")
    alloc.add_argument("experiment")
    alloc.set_defaults(func=_cmd_alloc)
    sweep = sub.add_parser("sweep", help="frame-buffer size sweep")
    sweep.add_argument("experiment")
    sweep.add_argument("--jobs", type=_jobs_count, default=None,
                       help="worker processes (0 = one per CPU; "
                            "default serial)")
    sweep.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="persistent pipeline cache directory")
    sweep.set_defaults(func=_cmd_sweep)
    corpus = sub.add_parser(
        "corpus", help="random-workload robustness study"
    )
    corpus.add_argument("--seeds", type=int, default=20,
                        help="number of seeded workloads (default 20)")
    corpus.add_argument("--fb", default="4K",
                        help="frame-buffer set size (default 4K)")
    corpus.add_argument("--iterations", type=int, default=6,
                        help="iterations per workload (default 6)")
    corpus.add_argument("--jobs", type=_jobs_count, default=None,
                        help="worker processes (0 = one per CPU; "
                             "default serial)")
    corpus.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="persistent pipeline cache directory")
    corpus.add_argument("--profile", action="store_true",
                        help="collect and print per-stage pipeline and "
                             "analysis metrics")
    corpus.set_defaults(func=_cmd_corpus)
    tinyrisc = sub.add_parser(
        "tinyrisc", help="emit the TinyRISC control program"
    )
    tinyrisc.add_argument("experiment")
    tinyrisc.add_argument("--lines", type=int, default=40,
                          help="listing lines to print (0 = all)")
    tinyrisc.set_defaults(func=_cmd_tinyrisc)
    lint = sub.add_parser(
        "lint",
        help="static-analysis lint of an experiment's full pipeline",
    )
    lint.add_argument(
        "experiment",
        help="experiment id (see `repro list`), WAVELET, or `all`",
    )
    lint.add_argument("--scheduler", choices=tuple(SCHEDULERS),
                      default="cds", help="scheduler under lint")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable report")
    lint.add_argument("--verbose", action="store_true",
                      help="also list every rule checked")
    lint.add_argument("--disable", metavar="CODE", action="append",
                      default=[], help="suppress a rule code (repeatable)")
    lint.add_argument("--severity", metavar="CODE=LEVEL", action="append",
                      default=[],
                      help="override a rule's severity (repeatable)")
    lint.add_argument("--corrupt", action="store_true",
                      help="deliberately corrupt the schedule first "
                           "(framework self-test)")
    lint.set_defaults(func=_cmd_lint)
    analyze = sub.add_parser(
        "analyze",
        help="timing-aware hazard analysis of generated programs",
    )
    analyze.add_argument(
        "target",
        help="experiment id, WAVELET, `all` (every bundled workload), "
             "or `corpus` (pinned reproducers)",
    )
    analyze.add_argument("--scheduler",
                         choices=(*SCHEDULERS, "all"),
                         default="cds", help="scheduler(s) to analyze")
    analyze.add_argument("--policy",
                         choices=("contexts_first", "loads_first",
                                  "adaptive", "all"),
                         default="contexts_first",
                         help="DMA serialization policy for the "
                              "happens-before graph (contexts_first is "
                              "the sound one; `all` = every policy "
                              "incl. the loads_first ablation)")
    analyze.add_argument("--json", action="store_true",
                         help="machine-readable report on stdout")
    analyze.add_argument("--output", metavar="PATH", default=None,
                         help="write the JSON report to a file")
    analyze.add_argument("--verbose", action="store_true",
                         help="also print clean targets and rules "
                              "checked")
    analyze.add_argument("--corpus-dir", metavar="DIR",
                         default="tests/corpus",
                         help="reproducer directory for the `corpus` "
                              "target (default tests/corpus)")
    analyze.set_defaults(func=_cmd_analyze)
    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing with oracle cross-checks",
    )
    fuzz.add_argument("--seeds", type=int, default=100,
                      help="number of generator seeds to sweep (default 100)")
    fuzz.add_argument("--quick", action="store_true",
                      help="round-robin seeds across regimes instead of the "
                           "full regimes x seeds cross product")
    fuzz.add_argument("--regime", action="append", metavar="NAME",
                      choices=regime_names(),
                      help="restrict to one regime (repeatable; default all: "
                           f"{', '.join(regime_names())})")
    fuzz.add_argument("--jobs", type=_jobs_count, default=None,
                      help="parallel workers (0 = one per CPU; default "
                           "serial)")
    fuzz.add_argument("--failures-dir", metavar="DIR", default=None,
                      help="write shrunk reproducer JSON files here")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip shrinking failures to minimal reproducers")
    fuzz.add_argument("--no-paper", action="store_true",
                      help="skip the Table-1 experiment anchor cases")
    fuzz.add_argument("--no-functional", action="store_true",
                      help="skip the functional-simulation oracle (faster)")
    fuzz.add_argument("--cache-dir", metavar="DIR", default=None,
                      help="persistent pipeline cache directory (warm "
                           "reruns replay oracle verdicts from disk)")
    fuzz.add_argument("--oracle", action="append", metavar="NAME",
                      choices=ORACLE_NAMES,
                      help="restrict to one oracle (repeatable; default "
                           "the full stack)")
    fuzz.set_defaults(func=_cmd_fuzz)
    gap = sub.add_parser(
        "gap",
        help="greedy-vs-exact optimality gap table",
    )
    gap.add_argument("experiment", nargs="*", metavar="EXP",
                     help="restrict to these Table-1 experiments "
                          "(default: all twelve rows)")
    gap.add_argument("--seeds", type=int, default=0,
                     help="also sweep N seeded random workloads "
                          "(default 0)")
    gap.add_argument("--fb", default="4K", metavar="SIZE",
                     help="frame-buffer set size for the seeded sweep "
                          "(default 4K)")
    gap.add_argument("--iterations", type=int, default=6,
                     help="loop iterations for the seeded sweep "
                          "(default 6)")
    gap.add_argument("--corpus-dir", default="tests/corpus", metavar="DIR",
                     help="pinned-reproducer corpus to include "
                          "(default tests/corpus)")
    gap.add_argument("--no-corpus", action="store_true",
                     help="skip the pinned corpus workloads")
    gap.add_argument("--max-nodes", type=int, default=None,
                     help="branch-and-bound node budget (deterministic; "
                          "default 200000)")
    gap.add_argument("--budget-ms", type=float, default=None,
                     help="wall-clock budget per workload in ms "
                          "(anytime: still never worse than greedy)")
    gap.add_argument("--json", action="store_true",
                     help="print the JSON artifact instead of the table")
    gap.add_argument("--output", metavar="FILE", default=None,
                     help="also write the JSON artifact to FILE")
    gap.set_defaults(func=_cmd_gap)
    cache = sub.add_parser(
        "cache", help="inspect or clear the persistent pipeline cache"
    )
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="cache directory (default: $REPRO_CACHE_DIR "
                            "or .repro-cache)")
    cache.set_defaults(func=_cmd_cache)
    serve = sub.add_parser(
        "serve", help="run the scheduler service (HTTP/JSON)"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8753,
                       help="bind port (default 8753; 0 = ephemeral)")
    serve.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="shared cross-request pipeline cache "
                            "directory (default: no persistent cache)")
    serve.add_argument("--jobs", type=_jobs_count, default=None,
                       help="worker-pool size (0 = one per CPU)")
    serve.add_argument("--mode", choices=("process", "thread"),
                       default="process",
                       help="worker pool kind (default process)")
    serve.set_defaults(func=_cmd_serve)
    loadgen = sub.add_parser(
        "loadgen", help="zipf-skewed load campaign against the service"
    )
    loadgen.add_argument("--clients", type=int, default=1000,
                         help="concurrent keep-alive clients "
                              "(default 1000)")
    loadgen.add_argument("--requests", type=int, default=3,
                         help="requests per client (default 3)")
    loadgen.add_argument("--distinct", type=int, default=32,
                         help="distinct generated workloads (default 32)")
    loadgen.add_argument("--skew", type=float, default=1.1,
                         help="zipf skew exponent (default 1.1)")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="campaign seed (default 0)")
    loadgen.add_argument("--host", default=None,
                         help="target host (default: self-host a "
                              "service for the run)")
    loadgen.add_argument("--port", type=int, default=None,
                         help="target port (required with --host)")
    loadgen.add_argument("--scheduler", choices=tuple(SCHEDULERS),
                         default="cds", help="scheduler to request")
    loadgen.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="cache directory for the self-hosted "
                              "service (ignored with --host)")
    loadgen.add_argument("--jobs", type=_jobs_count, default=None,
                         help="self-hosted worker-pool size")
    loadgen.add_argument("--mode", choices=("process", "thread"),
                         default="thread",
                         help="self-hosted worker pool kind "
                              "(default thread)")
    loadgen.add_argument("--output", metavar="PATH", default=None,
                         help="write the JSON payload")
    loadgen.add_argument("--check", action="store_true",
                         help="exit 1 unless the smoke gate passes "
                              "(healthz ok, zero errors, cache "
                              "hit-rate above --min-hit-rate)")
    loadgen.add_argument("--min-hit-rate", type=float, default=0.5,
                         metavar="FRACTION",
                         help="required hit rate for --check "
                              "(default 0.5)")
    loadgen.set_defaults(func=_cmd_loadgen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    result = args.func(args)
    return int(result) if result else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
