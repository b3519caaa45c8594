"""The batch driver equals the per-case pipeline, outcome for outcome.

:func:`~repro.analysis.compare.run_pipeline_batch` (cache lookups, one
:func:`~repro.schedule.batch.compile_many` over the misses, then
codegen and simulation per miss) must return exactly the outcomes of
:func:`~repro.analysis.compare.run_scheduler` run item by item — same
schedules, same simulation reports, same
:class:`~repro.errors.InfeasibleScheduleError` payloads — with the
cache off and on.  Infeasible items must never perturb their batch
neighbors.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis.compare import run_pipeline_batch, run_scheduler
from repro.arch.params import Architecture
from repro.cache import CacheStore
from repro.errors import InfeasibleScheduleError
from repro.fuzz.generator import generate_case
from repro.schedule.base import ScheduleOptions
from repro.schedule.batch import compile_many
from repro.service.protocol import SCHEDULERS
from repro.workloads.random_gen import random_application
from repro.workloads.spec import paper_experiments

_NAMES = ("basic", "ds", "cds")


def _items(application, clustering, architecture, options=None):
    return [
        (name, application, clustering, architecture, options, None)
        for name in _NAMES
    ]


def _doomed_items():
    """One tiny_fb case squeezed to 64 words: all three infeasible."""
    case = generate_case("tiny_fb", 0)
    case.fb_words = 64
    application, clustering = case.build()
    return _items(application, clustering, case.architecture())


def _fingerprint(outcome):
    error = outcome.error
    payload = None if error is None else (
        str(error), error.cluster, error.required, error.available
    )
    return (outcome, payload)


def _per_item(items):
    return [
        run_scheduler(
            SCHEDULERS[name](architecture, options), application,
            clustering, architecture, trace=False, dataflow=dataflow,
        )
        for name, application, clustering, architecture, options, dataflow
        in items
    ]


def _assert_batch_matches_per_item(items, cache_dir=None):
    """Compare cache off, then (with *cache_dir*) a cold and a warm
    cached batch, against the per-item pipeline."""
    expected = [_fingerprint(outcome) for outcome in _per_item(items)]
    runs = [run_pipeline_batch(items, trace=False)]
    if cache_dir is not None:
        store = CacheStore(cache_dir)
        runs.append(run_pipeline_batch(items, trace=False, cache=store))
        runs.append(run_pipeline_batch(items, trace=False, cache=store))
        assert store.hits == len(items)
    for outcomes in runs:
        assert [_fingerprint(outcome) for outcome in outcomes] == expected
    return runs[0]


def test_paper_experiments_byte_identical(tmp_path):
    items = []
    for spec in paper_experiments():
        application, clustering = spec.build()
        items.extend(
            _items(application, clustering, Architecture.m1(spec.fb))
        )
    outcomes = _assert_batch_matches_per_item(items, tmp_path)
    assert all(outcome.feasible for outcome in outcomes)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=5000),
    st.sampled_from(["1K", "2K", "4K", "16K"]),
    st.sampled_from([0, 1, 3]),
    st.sampled_from(["tf", "size", "fifo"]),
)
def test_options_matrix_byte_identical(seed, fb, rf_cap, keep_policy):
    application, clustering = random_application(seed, iterations=4)
    options = ScheduleOptions(rf_cap=rf_cap, keep_policy=keep_policy)
    _assert_batch_matches_per_item(
        _items(application, clustering, Architecture.m1(fb), options)
    )


def test_empty_batch():
    assert compile_many([]) == []
    assert run_pipeline_batch([]) == []


def test_single_case_batch():
    application, clustering = random_application(7, iterations=4)
    outcomes = _assert_batch_matches_per_item(
        _items(application, clustering, Architecture.m1("4K"))[2:]
    )
    assert len(outcomes) == 1 and outcomes[0].feasible


def test_all_infeasible_batch(tmp_path):
    """Every item infeasible: identical error payloads, no schedule."""
    items = []
    for seed in range(5):
        case = generate_case("tiny_fb", seed)
        case.fb_words = 64
        application, clustering = case.build()
        items.extend(_items(application, clustering, case.architecture()))
    outcomes = _assert_batch_matches_per_item(items, tmp_path)
    for outcome in outcomes:
        assert not outcome.feasible
        assert isinstance(outcome.error, InfeasibleScheduleError)


def test_mixed_batch_no_neighbor_poisoning(tmp_path):
    """Feasible items come out identical whether or not infeasible
    items sit before, between and after them in the batch."""
    application, clustering = random_application(11, iterations=4)
    feasible = _items(application, clustering, Architecture.m1("4K"))
    doomed = _doomed_items()
    mixed = [doomed[0], feasible[0], doomed[1], feasible[1],
             feasible[2], doomed[2]]

    alone = run_pipeline_batch(feasible, trace=False)
    shared = _assert_batch_matches_per_item(mixed, tmp_path)
    assert [shared[1], shared[3], shared[4]] == alone
    assert all(outcome.feasible for outcome in alone)
    for index in (0, 2, 5):
        assert not shared[index].feasible
