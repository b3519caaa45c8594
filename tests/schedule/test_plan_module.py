"""Tests for the Schedule/ClusterPlan/TransferSummary data structures."""

from dataclasses import replace

import pytest

from repro.arch.params import Architecture
from repro.errors import InfeasibleScheduleError, ReproError
from repro.schedule import SCHEDULERS
from repro.schedule.basic import BasicScheduler
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.schedule.plan import TransferSummary
from repro.workloads.random_gen import random_application
from repro.workloads.spec import paper_experiments


@pytest.fixture
def cds_schedule(sharing_app, sharing_clustering):
    return CompleteDataScheduler(Architecture.m1("2K")).schedule(
        sharing_app, sharing_clustering
    )


class TestLoadOrder:
    def test_last_kernel_first_without_duplicates(self, multi_kernel_app,
                                                  multi_clustering):
        """``a`` is last read by k3 and ``b`` by k2, so ``a`` is placed
        first whatever the plan's load order; a repeated name once."""
        schedule = DataScheduler(Architecture.m1("2K")).schedule(
            multi_kernel_app, multi_clustering
        )
        plan = schedule.plan_for(0)
        shuffled = replace(plan, loads=("b", "a", "b"))
        schedule = replace(
            schedule, cluster_plans=(shuffled,) + schedule.cluster_plans[1:]
        )
        assert schedule.load_order(0) == ("a", "b")


def _survivor_workloads():
    """``(label, application, clustering, architecture, schedulers)``:
    every paper experiment, and corpus seeds 0-29 at 2K and 16K."""
    for spec in paper_experiments():
        application, clustering = spec.build()
        yield (spec.id, application, clustering, Architecture.m1(spec.fb),
               tuple(SCHEDULERS))
    for seed in range(30):
        application, clustering = random_application(seed, iterations=48)
        for fb in ("2K", "16K"):
            yield (f"random-{seed}@{fb}", application, clustering,
                   Architecture.m1(fb), ("cds",))


def test_nothing_survives_the_last_cluster():
    """Every keep's span ends at its last consumer, so no keep outlives
    the round's last cluster: the visit-end drain after it empties the
    set with no special case."""
    checked = 0
    for label, application, clustering, architecture, schedulers in (
        _survivor_workloads()
    ):
        for name in schedulers:
            try:
                schedule = SCHEDULERS[name](architecture).schedule(
                    application, clustering
                )
            except InfeasibleScheduleError:
                continue
            last = len(schedule.clustering) - 1
            for fb_set in (0, 1):
                assert schedule.survivors(last, fb_set) == frozenset(), (
                    f"{label}/{name}/set{fb_set}"
                )
            checked += bool(schedule.keeps)
    assert checked > 0


class TestClusterPlan:
    def test_plan_partitions_inputs(self, cds_schedule):
        """loads + kept_inputs exactly cover the cluster's inputs."""
        dataflow = cds_schedule.dataflow
        for plan in cds_schedule.cluster_plans:
            expected = set(dataflow.inputs_of_cluster(plan.cluster_index))
            assert set(plan.loads) | set(plan.kept_inputs) == expected
            assert not set(plan.loads) & set(plan.kept_inputs)

    def test_stores_are_produced_here(self, cds_schedule):
        dataflow = cds_schedule.dataflow
        for plan in cds_schedule.cluster_plans:
            produced = set(dataflow.produced_by_cluster(plan.cluster_index))
            assert set(plan.stores) <= produced
            assert set(plan.retained_outputs) <= produced

    def test_retained_outputs_match_keeps(self, cds_schedule):
        retained = {
            name
            for plan in cds_schedule.cluster_plans
            for name in plan.retained_outputs
        }
        result_keeps = {
            keep.name for keep in cds_schedule.keeps
            if hasattr(keep, "producer_cluster")
        }
        assert retained == result_keeps

    def test_load_store_words(self, cds_schedule):
        dataflow = cds_schedule.dataflow
        plan = cds_schedule.plan_for(0)
        assert plan.load_words(dataflow, 1) == sum(
            dataflow[name].size for name in plan.loads
        )
        assert plan.load_words(dataflow, 3) >= plan.load_words(dataflow, 1)


class TestScheduleValidation:
    def test_bad_rf_rejected(self, cds_schedule):
        import dataclasses
        with pytest.raises(ReproError):
            dataclasses.replace(cds_schedule, rf=0)

    def test_plan_count_checked(self, cds_schedule):
        import dataclasses
        with pytest.raises(ReproError):
            dataclasses.replace(
                cds_schedule, cluster_plans=cds_schedule.cluster_plans[:-1]
            )


class TestTransferSummary:
    def test_totals_consistent(self, cds_schedule):
        summary = TransferSummary.from_schedule(cds_schedule)
        assert summary.total_data_words == (
            summary.total_data_loaded_words + summary.total_data_stored_words
        )
        assert summary.data_words_per_iteration == pytest.approx(
            summary.total_data_words
            / cds_schedule.application.total_iterations
        )

    def test_context_accounting_basic_vs_ds(self, sharing_app,
                                            sharing_clustering):
        arch = Architecture.m1("2K")
        basic = BasicScheduler(arch).schedule(
            sharing_app, sharing_clustering
        ).summary()
        ds = DataScheduler(arch).schedule(
            sharing_app, sharing_clustering
        ).summary()
        per_round = sum(k.context_words for k in sharing_app.kernels)
        assert basic.total_context_words == \
            per_round * sharing_app.total_iterations
        assert ds.total_context_words == per_round * ds.rounds

    def test_avoided_transfers(self, sharing_app, sharing_clustering):
        arch = Architecture.m1("2K")
        ds = DataScheduler(arch).schedule(
            sharing_app, sharing_clustering
        ).summary()
        cds = CompleteDataScheduler(arch).schedule(
            sharing_app, sharing_clustering
        ).summary()
        avoided = cds.data_transfers_avoided_per_iteration(ds)
        assert avoided > 0

    def test_peak_occupancy_reported(self, cds_schedule):
        summary = cds_schedule.summary()
        assert summary.max_peak_occupancy == max(
            plan.peak_occupancy for plan in cds_schedule.cluster_plans
        )
