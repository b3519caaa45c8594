"""Decision traces stay out of pickled outcome transport.

``ScheduleOptions(decision_trace=True)`` attaches a
:class:`~repro.obs.events.DecisionTrace` to the schedule — process-local
observability data that is ``compare=False`` in equality and can run to
megabytes.  ``SchedulerOutcome.for_transport()`` strips it before the
outcome crosses a pickling boundary (worker pools, the persistent
cache): the stripped outcome must compare equal to the original and
pickle strictly smaller, and untraced outcomes — every driver default —
must pass through untouched.
"""

import dataclasses
import pickle

from repro.analysis.compare import run_scheduler
from repro.arch.params import Architecture
from repro.schedule.base import ScheduleOptions
from repro.schedule.complete import CompleteDataScheduler
from repro.workloads.spec import paper_experiments


def _outcome(*, traced: bool):
    spec = paper_experiments()[0]
    application, clustering = spec.build()
    architecture = Architecture.m1(spec.fb)
    options = ScheduleOptions(decision_trace=True) if traced else None
    scheduler = CompleteDataScheduler(architecture, options=options)
    return run_scheduler(scheduler, application, clustering, architecture)


def test_traced_outcome_strips_smaller_and_equal():
    outcome = _outcome(traced=True)
    assert outcome.schedule.decisions is not None
    stripped = outcome.for_transport()
    assert stripped is not outcome
    assert stripped.schedule.decisions is None
    # The trace is compare=False: identical outcomes either way.
    assert stripped == outcome
    assert stripped.schedule == outcome.schedule
    assert len(pickle.dumps(stripped)) < len(pickle.dumps(outcome))


def test_untraced_outcome_passes_through():
    outcome = _outcome(traced=False)
    assert outcome.schedule.decisions is None
    assert outcome.for_transport() is outcome


def test_schedule_without_decisions_identity():
    outcome = _outcome(traced=False)
    schedule = outcome.schedule
    assert schedule.without_decisions() is schedule
    traced = _outcome(traced=True).schedule
    stripped = traced.without_decisions()
    assert stripped is not traced
    assert stripped.decisions is None
    assert stripped == traced


def test_program_stays_out_of_pickles():
    """The simulated program rides along in-process only: it is
    ``compare=False`` and no pickle carries it."""
    outcome = _outcome(traced=False)
    assert outcome.program is not None
    assert outcome.program.schedule is outcome.schedule
    without = dataclasses.replace(outcome, program=None)
    assert without == outcome
    assert pickle.dumps(outcome) == pickle.dumps(without)
    restored = pickle.loads(pickle.dumps(outcome))
    assert "program" not in vars(restored)
    assert restored.program is None
    assert restored == outcome
