"""Decision-trace completeness and zero-impact guarantees.

Every retention decision the Complete Data Scheduler makes on the
bundled paper experiments must be explainable from the trace: each kept
object has a ``keep.accept`` record with its occupancy numbers, each
considered-but-dropped candidate a ``keep.reject`` with a reason, and
the chosen RF an ``rf.result`` backed by the ``rf.bound`` line that
stops the next reuse factor.  And
with tracing off (the default) nothing may change: schedules and
reports must be identical to the traced run's.
"""

import pytest

from repro.alloc.allocator import FrameBufferAllocator
from repro.arch.machine import MorphoSysM1
from repro.arch.params import Architecture
from repro.codegen.generator import generate_program
from repro.core.metrics import cluster_data_size_naive
from repro.schedule.base import ScheduleOptions
from repro.schedule.basic import BasicScheduler
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.schedule.occupancy import ReferenceOccupancy
from repro.sim.engine import Simulator
from repro.workloads.spec import paper_experiments


def _traced_cds(spec, scheduler_cls=CompleteDataScheduler,
                **option_overrides):
    application, clustering = spec.build()
    architecture = Architecture.m1(spec.fb)
    options = ScheduleOptions(decision_trace=True, **option_overrides)
    schedule = scheduler_cls(architecture, options).schedule(
        application, clustering
    )
    return architecture, schedule


class TestCompletenessOnPaperExperiments:
    def test_trace_attached_and_non_empty(self):
        for spec in paper_experiments():
            _, schedule = _traced_cds(spec)
            assert schedule.decisions is not None, spec.id
            assert len(schedule.decisions) > 0, spec.id

    def test_every_keep_has_an_accept_record(self):
        for spec in paper_experiments():
            _, schedule = _traced_cds(spec)
            accepted = {d.subject for d in schedule.decisions.accepted_keeps()}
            for keep in schedule.keeps:
                assert keep.name in accepted, (spec.id, keep.name)
                about = schedule.decisions.why(keep.name)
                assert about, (spec.id, keep.name)
                accept = [d for d in about if d.kind == "keep.accept"]
                assert accept, (spec.id, keep.name)
                detail = accept[-1].detail
                assert detail["reason"]
                assert "occupancies" in detail
                assert detail["rf"] == schedule.rf

    def test_every_accept_or_reject_was_ranked_first(self):
        for spec in paper_experiments():
            _, schedule = _traced_cds(spec)
            ranked = {d.subject for d in schedule.decisions.of_kind("tf.rank")}
            for decision in schedule.decisions.of_kind(
                "keep.accept", "keep.reject"
            ):
                assert decision.subject in ranked, (spec.id, decision.subject)

    def test_rejections_carry_reasons(self):
        # The paper experiments all fit their candidates at the paper FB
        # sizes; this seeded workload considers one candidate too big.
        from repro.workloads.random_gen import random_application

        application, clustering = random_application(
            0, max_clusters=6, iterations=8
        )
        architecture = Architecture.m1("4K")
        schedule = CompleteDataScheduler(
            architecture, ScheduleOptions(decision_trace=True)
        ).schedule(application, clustering)
        rejected = schedule.decisions.rejected_keeps()
        assert rejected, "workload did not exercise a keep rejection"
        for decision in rejected:
            assert decision.detail["reason"]
            assert "occupancies" in decision.detail
            assert decision.subject not in schedule.keep_names()

    @pytest.mark.parametrize("scheduler_cls",
                             [DataScheduler, CompleteDataScheduler])
    def test_rf_result_matches_schedule_and_bound_proves_it(
        self, scheduler_cls
    ):
        for spec in paper_experiments():
            _, schedule = _traced_cds(spec, scheduler_cls)
            results = schedule.decisions.of_kind("rf.result")
            assert results, spec.id
            assert results[-1].detail["rf"] == schedule.rf, spec.id
            bounds = schedule.decisions.of_kind("rf.bound")
            assert len(bounds) == 1, spec.id
            detail = bounds[0].detail
            rf, fbs = detail["rf"], detail["fb_set_words"]
            assert rf == schedule.rf, spec.id
            assert fbs == schedule.fb_set_words, spec.id
            if detail["bound"] == "cap":
                assert rf == schedule.application.total_iterations, spec.id
                continue
            assert detail["bound"] == "line", spec.id
            a, b = detail["a"], detail["b"]
            assert a * rf + b <= fbs < a * (rf + 1) + b, (spec.id, detail)
            # The named line is a real lower bound on that cluster's
            # DS(rf + 1), so the cluster itself overflows there.
            cluster = next(
                c for c in schedule.clustering
                if c.name == detail["cluster"]
            )
            peak = cluster_data_size_naive(
                schedule.dataflow, cluster.index, rf + 1
            )
            assert peak >= a * (rf + 1) + b, (spec.id, detail)
            if detail["kernel"] is not None:
                assert detail["kernel"] in cluster.kernel_names, spec.id

    def test_explain_answers_for_every_kept_object(self):
        spec = next(s for s in paper_experiments() if s.id == "ATR-FI")
        _, schedule = _traced_cds(spec)
        for keep in schedule.keeps:
            text = schedule.decisions.explain(keep.name)
            assert "keep.accept" in text

    def test_joint_rf_policy_records_sweep_points(self):
        for spec in paper_experiments():
            _, schedule = _traced_cds(spec, rf_policy="joint")
            points = schedule.decisions.of_kind("rf.joint")
            assert points, spec.id
            swept = {d.detail["rf"] for d in points}
            assert schedule.rf in swept, spec.id
            results = schedule.decisions.of_kind("rf.result")
            assert results[-1].detail["policy"] == "joint"

    def test_both_occupancy_engines_record_keep_decisions(self):
        spec = next(s for s in paper_experiments() if s.id == "ATR-FI")
        reference = type(
            "ReferenceCompleteDataScheduler", (CompleteDataScheduler,),
            {"occupancy_cls": ReferenceOccupancy},
        )
        traces = {}
        for engine, scheduler_cls in (("incremental", CompleteDataScheduler),
                                      ("naive", reference)):
            _, schedule = _traced_cds(spec, scheduler_cls)
            assert schedule.decisions.accepted_keeps(), engine
            traces[engine] = {
                (d.kind, d.subject)
                for d in schedule.decisions.of_kind(
                    "keep.accept", "keep.reject"
                )
            }
        assert traces["incremental"] == traces["naive"]


class TestAllocatorExtendsTrace:
    def test_placements_and_frees_recorded(self):
        spec = next(s for s in paper_experiments() if s.id == "ATR-FI")
        _, schedule = _traced_cds(spec)
        before = len(schedule.decisions)
        FrameBufferAllocator(schedule, decisions=schedule.decisions).allocate()
        assert len(schedule.decisions) > before
        placements = schedule.decisions.of_kind("alloc.place")
        assert placements
        for decision in placements:
            detail = decision.detail
            assert detail["size"] > 0
            for start, end in detail["extents"]:
                assert 0 <= start < end
        freed = {d.subject for d in schedule.decisions.of_kind("alloc.free")}
        assert freed

    def test_allocator_without_trace_records_nothing(self):
        spec = next(s for s in paper_experiments() if s.id == "ATR-FI")
        _, schedule = _traced_cds(spec)
        before = len(schedule.decisions)
        FrameBufferAllocator(schedule).allocate()
        assert len(schedule.decisions) == before


class TestZeroImpact:
    @pytest.mark.parametrize("scheduler_cls",
                             [BasicScheduler, DataScheduler,
                              CompleteDataScheduler])
    def test_traced_and_untraced_schedules_identical(self, scheduler_cls):
        from repro.core.dataflow import analyze_dataflow

        for spec in paper_experiments():
            application, clustering = spec.build()
            architecture = Architecture.m1(spec.fb)
            # Share one dataflow analysis so dataclass equality compares
            # the plans, not the (identity-compared) analysis objects.
            dataflow = analyze_dataflow(application, clustering)
            plain = scheduler_cls(architecture).schedule(
                application, clustering, dataflow=dataflow
            )
            traced = scheduler_cls(
                architecture, ScheduleOptions(decision_trace=True)
            ).schedule(application, clustering, dataflow=dataflow)
            assert plain.decisions is None
            assert traced.decisions is not None
            # `decisions` is compare=False, so dataclass equality is the
            # byte-identical-schedule check.
            assert plain == traced, (spec.id, scheduler_cls.name)
            assert plain.describe() == traced.describe()

    def test_traced_and_untraced_reports_identical(self):
        spec = next(s for s in paper_experiments() if s.id == "MPEG")
        application, clustering = spec.build()
        architecture = Architecture.m1(spec.fb)
        reports = []
        for trace in (False, True):
            schedule = CompleteDataScheduler(
                architecture, ScheduleOptions(decision_trace=trace)
            ).schedule(application, clustering)
            program = generate_program(schedule)
            reports.append(
                Simulator(MorphoSysM1(architecture), trace=True).run(program)
            )
        assert reports[0] == reports[1]

    def test_scheduler_reusable_and_trace_not_shared(self):
        spec = next(s for s in paper_experiments() if s.id == "E1")
        application, clustering = spec.build()
        architecture = Architecture.m1(spec.fb)
        scheduler = CompleteDataScheduler(
            architecture, ScheduleOptions(decision_trace=True)
        )
        first = scheduler.schedule(application, clustering)
        second = scheduler.schedule(application, clustering)
        assert first.decisions is not second.decisions
        assert first.decisions.to_dicts() == second.decisions.to_dicts()
