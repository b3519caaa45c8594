"""Robustness study over a corpus of random workloads.

The paper evaluates on twelve hand-picked experiments; this module
checks the Complete Data Scheduler's claims *in distribution*: over a
seeded corpus of random applications, how often is CDS strictly better
than the Data Scheduler, how large is the improvement, and does it ever
regress?  Used by ``benchmarks/test_corpus_robustness.py``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.compare import compare_workloads
from repro.analysis.parallel import default_jobs, parallel_map
from repro.arch.params import Architecture
from repro.units import SizeLike
from repro.workloads.random_gen import random_application

__all__ = ["CorpusStats", "corpus_study"]


@dataclass
class CorpusStats:
    """Aggregate outcomes over the corpus."""

    seeds_total: int
    feasible: int = 0
    infeasible: int = 0
    with_keeps: int = 0
    cds_strictly_faster_than_ds: int = 0
    cds_regressions_vs_ds: int = 0
    ds_improvements_pct: List[float] = field(default_factory=list)
    cds_improvements_pct: List[float] = field(default_factory=list)
    #: Workloads whose CDS program has error-severity hazard findings
    #: under the default DMA policy (should stay 0).
    hazard_flagged: int = 0
    #: Summed DFA001 cost over the corpus: words moved by loads no
    #: kernel ever reads (wasted traffic the scheduler left behind).
    dead_transfer_words: int = 0
    #: Summed DFA002 cost over the corpus: traffic savings claimed by
    #: keep decisions whose retained values are never re-read.
    retention_waste_words: int = 0

    @property
    def mean_cds_pct(self) -> Optional[float]:
        values = self.cds_improvements_pct
        return statistics.fmean(values) if values else None

    @property
    def median_cds_pct(self) -> Optional[float]:
        values = self.cds_improvements_pct
        return statistics.median(values) if values else None

    @property
    def min_cds_pct(self) -> Optional[float]:
        values = self.cds_improvements_pct
        return min(values) if values else None

    def summary(self) -> str:
        lines = [
            f"corpus: {self.seeds_total} workloads, {self.feasible} "
            f"feasible, {self.infeasible} infeasible at this FB size",
            f"retention found work on {self.with_keeps}/{self.feasible} "
            f"feasible workloads",
            f"CDS strictly faster than DS on "
            f"{self.cds_strictly_faster_than_ds}, regressions: "
            f"{self.cds_regressions_vs_ds}",
        ]
        if self.cds_improvements_pct:
            lines.append(
                f"CDS improvement over Basic: mean {self.mean_cds_pct:.1f}%"
                f", median {self.median_cds_pct:.1f}%, min "
                f"{self.min_cds_pct:.1f}%"
            )
        lines.append(
            f"hazard analysis: {self.hazard_flagged} flagged, "
            f"{self.dead_transfer_words}w dead transfers, "
            f"{self.retention_waste_words}w unrealised retention savings"
        )
        return "\n".join(lines)


def _row_outcome(row):
    """Reduce one comparison row to the study's picklable aggregates."""
    if not (row.basic.feasible and row.ds.feasible and row.cds.feasible):
        return None
    from repro.dataflow.analyzer import analyze_schedule

    _, collector = analyze_schedule(row.cds.schedule)
    dead_words = sum(
        d.cost_words for d in collector.diagnostics
        if d.code == "DFA001"
    )
    retention_words = sum(
        d.cost_words for d in collector.diagnostics
        if d.code == "DFA002"
    )
    return (
        bool(row.cds.schedule.keeps),
        row.cds.total_cycles - row.ds.total_cycles,
        row.ds_improvement_pct,
        row.cds_improvement_pct,
        collector.has_errors,
        dead_words,
        retention_words,
    )


def _seed_chunk(task):
    """One worker's share of seeds, reduced to picklable aggregates.

    Top-level so :func:`parallel_map` can ship it to worker processes;
    the serial path runs the same function over one chunk holding every
    seed, so serial and parallel studies are identical by construction.

    With a cache directory, the reduced aggregates are memoised per
    ``(seed, fb, iterations)`` — a warm rerun skips the generator, the
    schedulers and the simulator for every unchanged seed.  Cache
    *misses* are compiled together through the batch front-end
    (:func:`~repro.analysis.compare.compare_workloads`); their
    per-scheduler outcomes are additionally cached under their own
    content keys, so other drivers touching the same workloads hit too.
    """
    seeds, fb, iterations, cache_dir = task
    architecture = Architecture.m1(fb)
    cache = None
    if cache_dir is not None:
        from repro.cache import CacheStore, digest

        cache = CacheStore(cache_dir)
    outcomes: dict = {}
    pending = []
    seed_keys = {}
    for seed in seeds:
        if cache is not None:
            seed_keys[seed] = digest((
                "corpus_seed", seed, architecture.fb_set_words, iterations,
            ))
            cached = cache.get(seed_keys[seed])
            if cached is not None:
                # Wrapped in a 1-tuple: ``None`` (infeasible seed) is a
                # legitimate outcome but the store's miss sentinel.
                outcomes[seed] = cached[0]
                continue
        application, clustering = random_application(
            seed, iterations=iterations
        )
        pending.append((seed, application, clustering))

    if pending:
        # The study consumes aggregates only, so the per-transfer DMA
        # trace is not recorded.
        rows = compare_workloads(
            [
                (application, clustering, architecture, None)
                for _, application, clustering in pending
            ],
            trace=False, cache=cache,
        )
        for (seed, _, _), row in zip(pending, rows):
            outcome = _row_outcome(row)
            if cache is not None:
                cache.put(seed_keys[seed], (outcome,))
            outcomes[seed] = outcome
    return [outcomes[seed] for seed in seeds]


def corpus_study(
    seeds: Sequence[int],
    *,
    fb: SizeLike = "4K",
    iterations: int = 6,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> CorpusStats:
    """Run the three-scheduler comparison over seeded random workloads.

    ``jobs`` partitions the seeds over worker processes (``None``/``1``
    = serial, ``0`` = one per CPU); the resulting stats are identical
    either way.  Each worker batch-compiles its whole share of cache
    misses in one :mod:`repro.schedule.batch` call.  ``cache_dir``
    enables the persistent pipeline cache: reruns over unchanged seeds
    (and unchanged code) are served from disk with byte-identical
    results.
    """
    stats = CorpusStats(seeds_total=len(seeds))
    seeds = list(seeds)
    workers = 1 if jobs in (None, 1) else (jobs if jobs > 0 else default_jobs())
    n_chunks = max(1, min(workers, len(seeds)))
    chunks = [seeds[i::n_chunks] for i in range(n_chunks)]
    chunk_outcomes = parallel_map(
        _seed_chunk,
        [(chunk, fb, iterations, cache_dir) for chunk in chunks],
        jobs=jobs,
    )
    by_seed = {}
    for chunk, results in zip(chunks, chunk_outcomes):
        by_seed.update(zip(chunk, results))
    for seed in seeds:
        outcome = by_seed[seed]
        if outcome is None:
            stats.infeasible += 1
            continue
        (with_keeps, cds_minus_ds, ds_pct, cds_pct,
         hazard_flagged, dead_words, retention_words) = outcome
        stats.feasible += 1
        if with_keeps:
            stats.with_keeps += 1
        if cds_minus_ds < 0:
            stats.cds_strictly_faster_than_ds += 1
        elif cds_minus_ds > 0:
            stats.cds_regressions_vs_ds += 1
        stats.ds_improvements_pct.append(ds_pct)
        stats.cds_improvements_pct.append(cds_pct)
        if hazard_flagged:
            stats.hazard_flagged += 1
        stats.dead_transfer_words += dead_words
        stats.retention_waste_words += retention_words
    return stats
