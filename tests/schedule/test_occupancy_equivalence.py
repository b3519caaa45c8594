"""Property-based equivalence: incremental occupancy engine vs. naive.

The schedulers serve RF search, keep acceptance, and capacity
validation from the memoised
:class:`~repro.schedule.occupancy.OccupancyEngine`; a scheduler
subclass with ``occupancy_cls = ReferenceOccupancy`` recomputes every
``DS(C_c)`` from scratch.  The contract is that the two produce
**byte-identical** schedules — same RF, same keeps in the same order,
same cluster plans — agree on infeasibility, and that everything
downstream (allocation) is therefore identical too.  These tests enforce that contract over
random workloads across frame-buffer sizes and scheduler policies.
"""

from hypothesis import given, settings, strategies as st

from repro.alloc.allocator import FrameBufferAllocator
from repro.arch.params import Architecture
from repro.core.dataflow import analyze_dataflow
from repro.core.metrics import cluster_data_size, cluster_data_size_naive
from repro.errors import InfeasibleScheduleError
from repro.lint.runner import lint_schedule
from repro.schedule.base import ScheduleOptions
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.schedule.occupancy import ReferenceOccupancy
from repro.workloads.random_gen import random_application
from repro.workloads.spec import paper_experiments


def _outcome(scheduler_cls, application, clustering, architecture,
             **option_overrides):
    """Schedule once, reduced to a comparable outcome."""
    options = ScheduleOptions(**option_overrides)
    try:
        schedule = scheduler_cls(architecture, options).schedule(
            application, clustering
        )
    except InfeasibleScheduleError:
        return None
    return schedule


def _reference(scheduler_cls):
    """*scheduler_cls* on the naive reference occupancy engine."""
    return type(
        f"Reference{scheduler_cls.__name__}", (scheduler_cls,),
        {"occupancy_cls": ReferenceOccupancy},
    )


def _fingerprint(schedule):
    return (schedule.rf, schedule.keeps, schedule.cluster_plans)


def _assert_engines_agree(scheduler_cls, application, clustering,
                          architecture, **option_overrides):
    incremental = _outcome(
        scheduler_cls, application, clustering, architecture,
        **option_overrides,
    )
    naive = _outcome(
        _reference(scheduler_cls), application, clustering, architecture,
        **option_overrides,
    )
    assert (incremental is None) == (naive is None)
    if incremental is None:
        return None
    assert _fingerprint(incremental) == _fingerprint(naive)
    return incremental, naive


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=5000),
    st.sampled_from(["1K", "2K", "4K"]),
    st.sampled_from(["max_then_keep", "joint"]),
    st.sampled_from(["tf", "size", "fifo"]),
)
def test_cds_engines_byte_identical(seed, fb, rf_policy, keep_policy):
    application, clustering = random_application(seed, iterations=4)
    architecture = Architecture.m1(fb)
    _assert_engines_agree(
        CompleteDataScheduler, application, clustering, architecture,
        rf_policy=rf_policy, keep_policy=keep_policy,
    )


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=5000),
    st.sampled_from(["1K", "2K", "4K"]),
)
def test_data_scheduler_engines_byte_identical(seed, fb):
    application, clustering = random_application(seed, iterations=4)
    architecture = Architecture.m1(fb)
    _assert_engines_agree(
        DataScheduler, application, clustering, architecture
    )


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=5000),
    st.sampled_from(["2K", "4K"]),
)
def test_allocations_identical_across_engines(seed, fb):
    application, clustering = random_application(seed, iterations=4)
    architecture = Architecture.m1(fb)
    schedules = _assert_engines_agree(
        CompleteDataScheduler, application, clustering, architecture
    )
    if schedules is None:
        return
    incremental, naive = schedules
    maps_incremental = FrameBufferAllocator(incremental).allocate()
    maps_naive = FrameBufferAllocator(naive).allocate()
    for map_a, map_b in zip(maps_incremental, maps_naive):
        assert map_a.records == map_b.records


def test_paper_experiments_engines_byte_identical():
    """The bundled experiments, including the rf_cap variants."""
    for spec in paper_experiments():
        application, clustering = spec.build()
        architecture = Architecture.m1(spec.fb)
        _assert_engines_agree(
            CompleteDataScheduler, application, clustering, architecture
        )


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=1, max_value=12),
)
def test_closed_form_occupancy_matches_naive_sweep(seed, rf):
    """``cluster_data_size`` closed form vs. the original event sweep,
    with and without the CDS's own keep decisions in effect."""
    application, clustering = random_application(seed, iterations=4)
    dataflow = analyze_dataflow(application, clustering)
    schedule = _outcome(
        CompleteDataScheduler, application, clustering,
        Architecture.m1("4K"),
    )
    keep_sets = [()]
    if schedule is not None:
        keep_sets.append(schedule.keeps)
    for keeps in keep_sets:
        for cluster in clustering:
            assert cluster_data_size(
                dataflow, cluster.index, rf, keeps
            ) == cluster_data_size_naive(dataflow, cluster.index, rf, keeps)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=5000),
    st.sampled_from(["2K", "4K"]),
)
def test_cds_schedules_are_lint_clean(seed, fb):
    """Acceptance criterion: every schedule the CDS hands out passes
    the application- and schedule-layer lint with no errors."""
    schedule = _outcome(
        CompleteDataScheduler, *random_application(seed, iterations=4),
        Architecture.m1(fb),
    )
    if schedule is None:
        return
    collector = lint_schedule(schedule)
    assert not collector.has_errors, [str(d) for d in collector.errors]
