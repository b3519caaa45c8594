"""Frame-buffer-size sweeps.

Section 6: "We also have tested a fixed kernel schedule but different
memory sizes as shown MPEG and MPEG*, ATR-FI and ATR-FI* or E1 and E1*.
A bigger memory allows reusing contexts for an increased number of
iterations (RF)."  The paper samples that curve at two points per
workload; :func:`sweep_fb_sizes` traces it densely — RF, retention
volume, traffic and makespan as functions of the frame-buffer set size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.compare import compare_workload, compare_workloads
from repro.analysis.parallel import default_jobs, parallel_map
from repro.arch.params import Architecture
from repro.core.application import Application
from repro.core.cluster import Clustering
from repro.units import SizeLike, format_size, parse_size

__all__ = ["SweepPoint", "sweep_fb_sizes", "render_sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One (workload, FB size) sample."""

    fb_words: int
    basic_feasible: bool
    ds_feasible: bool
    rf: Optional[int]
    kept_items: Optional[int]
    ds_improvement_pct: Optional[float]
    cds_improvement_pct: Optional[float]
    cds_cycles: Optional[int]
    dt_words: Optional[float]


def _row_to_point(row, words: int) -> SweepPoint:
    return SweepPoint(
        fb_words=words,
        basic_feasible=row.basic.feasible,
        ds_feasible=row.ds.feasible,
        rf=row.rf,
        kept_items=(
            len(row.cds.schedule.keeps)
            if row.cds.schedule else None
        ),
        ds_improvement_pct=row.ds_improvement_pct,
        cds_improvement_pct=row.cds_improvement_pct,
        cds_cycles=row.cds.total_cycles,
        dt_words=row.dt_words,
    )


def _sweep_chunk(task) -> List[SweepPoint]:
    """One worker's share of FB sizes (top-level: picklable).

    The chunk's scheduling problems — three schedulers at every size —
    compile in one batch.
    """
    application, clustering, words_list, cache_dir = task
    cache = None
    if cache_dir is not None:
        from repro.cache import CacheStore

        cache = CacheStore(cache_dir)
    rows = compare_workloads(
        [
            (application, clustering, Architecture.m1(words), None)
            for words in words_list
        ],
        cache=cache,
    )
    return [
        _row_to_point(row, words)
        for row, words in zip(rows, words_list)
    ]


def sweep_fb_sizes(
    application: Application,
    clustering: Clustering,
    fb_sizes: Sequence[SizeLike],
    *,
    architecture_factory: Callable[[int], Architecture] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> List[SweepPoint]:
    """Run the three-scheduler comparison at each frame-buffer size.

    Infeasible sizes yield points with ``rf = None`` (and the relevant
    feasibility flags cleared) rather than raising, so the caller can
    plot the feasibility frontier.

    ``jobs`` partitions the sizes over worker processes (``None``/``1``
    = serial, ``0`` = one per CPU) with identical results; each
    worker's share compiles in one :mod:`repro.schedule.batch` call.
    A custom ``architecture_factory`` (often a closure, not picklable)
    forces the serial, uncached path.  ``cache_dir`` enables the
    persistent pipeline cache for the standard-architecture path.
    """
    words_list = [parse_size(size) for size in fb_sizes]
    if architecture_factory is None:
        workers = (
            1 if jobs in (None, 1)
            else (jobs if jobs > 0 else default_jobs())
        )
        n_chunks = max(1, min(workers, len(words_list)))
        chunks = [words_list[i::n_chunks] for i in range(n_chunks)]
        chunk_points = parallel_map(
            _sweep_chunk,
            [
                (application, clustering, chunk, cache_dir)
                for chunk in chunks
            ],
            jobs=jobs,
        )
        by_words = {}
        for chunk, points in zip(chunks, chunk_points):
            by_words.update(zip(chunk, points))
        return [by_words[words] for words in words_list]
    points: List[SweepPoint] = []
    for words in words_list:
        row = compare_workload(
            application, clustering, architecture_factory(words)
        )
        points.append(_row_to_point(row, words))
    return points


def render_sweep(points: Sequence[SweepPoint], *, title: str = "") -> str:
    """Text table of a sweep."""
    lines = []
    if title:
        lines.append(title)
    header = (
        f"{'FB':>6} {'basic':>6} {'RF':>4} {'keeps':>5} {'DT':>7} "
        f"{'DS%':>6} {'CDS%':>6} {'CDS cycles':>11}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for point in points:
        if not point.ds_feasible:
            lines.append(
                f"{format_size(point.fb_words):>6} {'—':>6} "
                f"{'infeasible':>10}"
            )
            continue
        basic = "ok" if point.basic_feasible else "INF"
        ds_pct = (
            f"{point.ds_improvement_pct:5.1f}%"
            if point.ds_improvement_pct is not None else "  n/a"
        )
        cds_pct = (
            f"{point.cds_improvement_pct:5.1f}%"
            if point.cds_improvement_pct is not None else "  n/a"
        )
        lines.append(
            f"{format_size(point.fb_words):>6} {basic:>6} {point.rf:>4} "
            f"{point.kept_items:>5} {point.dt_words or 0:>7.0f} "
            f"{ds_pct:>6} {cds_pct:>6} {point.cds_cycles:>11}"
        )
    return "\n".join(lines)
