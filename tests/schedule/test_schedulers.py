"""Tests for the Basic, Data and Complete Data Schedulers."""

import pytest

from repro.arch.params import Architecture
from repro.core.cluster import Clustering
from repro.errors import InfeasibleScheduleError
from repro.schedule.base import ScheduleOptions
from repro.schedule.basic import BasicScheduler
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.data_scheduler import DataScheduler
from repro.schedule.plan import TransferSummary


class TestBasicScheduler:
    def test_rf_is_one(self, sharing_app, sharing_clustering, m1_medium):
        schedule = BasicScheduler(m1_medium).schedule(
            sharing_app, sharing_clustering
        )
        assert schedule.rf == 1
        assert schedule.contexts_per_iteration
        assert not schedule.overlap_transfers
        assert schedule.keeps == ()

    def test_loads_everything(self, sharing_app, sharing_clustering,
                              m1_medium):
        schedule = BasicScheduler(m1_medium).schedule(
            sharing_app, sharing_clustering
        )
        plan2 = schedule.plan_for(2)
        assert set(plan2.loads) == {"r2", "shared", "r1"}
        assert plan2.kept_inputs == ()

    def test_stores_shared_results(self, sharing_app, sharing_clustering,
                                   m1_medium):
        schedule = BasicScheduler(m1_medium).schedule(
            sharing_app, sharing_clustering
        )
        assert "r1" in schedule.plan_for(0).stores

    def test_footprint_feasibility(self, sharing_app, sharing_clustering):
        # Largest cluster footprint (Cl3) = 192+128+192+128 = 640 words.
        BasicScheduler(Architecture.m1(640)).schedule(
            sharing_app, sharing_clustering
        )
        with pytest.raises(InfeasibleScheduleError):
            BasicScheduler(Architecture.m1(639)).schedule(
                sharing_app, sharing_clustering
            )

    def test_oversized_object_reported(self, sharing_app,
                                       sharing_clustering):
        with pytest.raises(InfeasibleScheduleError, match="exceeds"):
            BasicScheduler(Architecture.m1(200)).schedule(
                sharing_app, sharing_clustering
            )

    def test_context_block_overflow_reported(self, sharing_app):
        clustering = Clustering.single(sharing_app)
        arch = Architecture.m1("8K", context_block_words=64)
        with pytest.raises(InfeasibleScheduleError, match="context"):
            BasicScheduler(arch).schedule(sharing_app, clustering)


class TestDataScheduler:
    def test_maximises_rf(self, sharing_app, sharing_clustering, m1_medium):
        schedule = DataScheduler(m1_medium).schedule(
            sharing_app, sharing_clustering
        )
        assert schedule.rf > 1
        assert not schedule.contexts_per_iteration
        assert schedule.overlap_transfers

    def test_no_keeps(self, sharing_app, sharing_clustering, m1_medium):
        schedule = DataScheduler(m1_medium).schedule(
            sharing_app, sharing_clustering
        )
        assert schedule.keeps == ()

    def test_feasible_where_basic_is_not(self, multi_kernel_app,
                                         multi_clustering):
        """Replacement shrinks the peak below the Basic footprint."""
        arch = Architecture.m1(600)
        with pytest.raises(InfeasibleScheduleError):
            BasicScheduler(arch).schedule(multi_kernel_app, multi_clustering)
        schedule = DataScheduler(arch).schedule(
            multi_kernel_app, multi_clustering
        )
        assert schedule.rf >= 1

    def test_infeasible_raises(self, sharing_app, sharing_clustering):
        with pytest.raises(InfeasibleScheduleError):
            DataScheduler(Architecture.m1(300)).schedule(
                sharing_app, sharing_clustering
            )

    def test_rf_cap_option(self, sharing_app, sharing_clustering):
        arch = Architecture.m1("8K")
        schedule = DataScheduler(arch, ScheduleOptions(rf_cap=2)).schedule(
            sharing_app, sharing_clustering
        )
        assert schedule.rf == 2


class TestCompleteDataScheduler:
    def test_keeps_shared_items(self, sharing_app, sharing_clustering):
        schedule = CompleteDataScheduler(Architecture.m1("2K")).schedule(
            sharing_app, sharing_clustering
        )
        assert "shared" in schedule.keep_names()
        assert "r1" in schedule.keep_names()

    def test_kept_input_not_loaded_twice(self, sharing_app,
                                         sharing_clustering):
        schedule = CompleteDataScheduler(Architecture.m1("2K")).schedule(
            sharing_app, sharing_clustering
        )
        plan0 = schedule.plan_for(0)
        plan2 = schedule.plan_for(2)
        # First consumer loads the shared datum...
        assert "shared" in plan0.loads
        # ...later consumers read it from the FB.
        assert "shared" in plan2.kept_inputs
        assert "shared" not in plan2.loads

    def test_kept_result_not_stored(self, sharing_app, sharing_clustering):
        schedule = CompleteDataScheduler(Architecture.m1("8K")).schedule(
            sharing_app, sharing_clustering
        )
        if "r1" in schedule.keep_names():
            plan0 = schedule.plan_for(0)
            assert "r1" in plan0.retained_outputs
            # r1 is also consumed cross-set (cluster 1) -> still stored.
            assert "r1" in plan0.stores

    def test_keep_rejected_when_pass_through_cluster_is_full(self):
        """A keep must stay resident while non-consuming same-set
        clusters execute; if one of those clusters has no headroom the
        candidate is rejected (paper: 'If DS(C_c) > FBS for some shared
        data or results, these are not kept')."""
        from repro.core.application import Application

        def build(mid_words):
            app = (
                Application.build("tight", total_iterations=4)
                .data("tbl", 200)
                .data("a", 100).data("mid_in", mid_words).data("e", 100)
                .kernel("k1", context_words=8, cycles=50,
                        inputs=["a", "tbl"], outputs=["r1"],
                        result_sizes={"r1": 50})
                .kernel("k2", context_words=8, cycles=50, inputs=["r1"],
                        outputs=["r2"], result_sizes={"r2": 50})
                .kernel("k3", context_words=8, cycles=50, inputs=["mid_in", "r2"],
                        outputs=["r3"], result_sizes={"r3": 50})
                .kernel("k4", context_words=8, cycles=50, inputs=["r3"],
                        outputs=["r4"], result_sizes={"r4": 50})
                .kernel("k5", context_words=8, cycles=50,
                        inputs=["e", "tbl", "r4"], outputs=["out"],
                        result_sizes={"out": 50})
                .final("out")
                .finish()
            )
            return app, Clustering.per_kernel(app)

        arch = Architecture.m1(640)
        # Small middle cluster: tbl fits through it -> kept.
        app, clustering = build(mid_words=100)
        roomy = CompleteDataScheduler(arch).schedule(app, clustering)
        assert "tbl" in roomy.keep_names()
        # Middle cluster (k3, set 0) nearly full: keeping tbl would
        # overflow it while it executes -> rejected.
        app, clustering = build(mid_words=500)
        tight = CompleteDataScheduler(arch).schedule(app, clustering)
        assert "tbl" not in tight.keep_names()

    def test_same_rf_as_data_scheduler(self, sharing_app,
                                       sharing_clustering, m1_medium):
        ds = DataScheduler(m1_medium).schedule(sharing_app, sharing_clustering)
        cds = CompleteDataScheduler(m1_medium).schedule(
            sharing_app, sharing_clustering
        )
        assert cds.rf == ds.rf

    def test_traffic_never_worse(self, sharing_app, sharing_clustering,
                                 m1_medium):
        ds = TransferSummary.from_schedule(
            DataScheduler(m1_medium).schedule(sharing_app, sharing_clustering)
        )
        cds = TransferSummary.from_schedule(
            CompleteDataScheduler(m1_medium).schedule(
                sharing_app, sharing_clustering
            )
        )
        assert cds.total_data_words <= ds.total_data_words

    def test_default_clustering_is_per_kernel(self, sharing_app, m1_medium):
        schedule = CompleteDataScheduler(m1_medium).schedule(sharing_app)
        assert len(schedule.clustering) == len(sharing_app.kernels)

    def test_keep_policies_all_valid(self, sharing_app, sharing_clustering,
                                     m1_medium):
        for policy in ("tf", "size", "fifo"):
            schedule = CompleteDataScheduler(
                m1_medium, ScheduleOptions(keep_policy=policy)
            ).schedule(sharing_app, sharing_clustering)
            assert schedule.rf >= 1

    def test_joint_policy_never_slower(self, sharing_app, sharing_clustering,
                                       m1_medium):
        from repro.sim.engine import simulated_cycles
        default = CompleteDataScheduler(m1_medium).schedule(
            sharing_app, sharing_clustering
        )
        joint = CompleteDataScheduler(
            m1_medium, ScheduleOptions(rf_policy="joint")
        ).schedule(sharing_app, sharing_clustering)
        assert simulated_cycles(joint, m1_medium) <= \
            simulated_cycles(default, m1_medium)

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            ScheduleOptions(keep_policy="magic")
        with pytest.raises(ValueError):
            ScheduleOptions(rf_policy="magic")
        with pytest.raises(ValueError):
            ScheduleOptions(rf_cap=-1)


class TestScheduleObject:
    def test_rounds_and_partial_last_round(self, sharing_app,
                                           sharing_clustering, m1_medium):
        schedule = DataScheduler(m1_medium).schedule(
            sharing_app, sharing_clustering
        )
        total = sum(
            schedule.iterations_in_round(r) for r in range(schedule.rounds)
        )
        assert total == sharing_app.total_iterations
        with pytest.raises(IndexError):
            schedule.iterations_in_round(schedule.rounds)

    def test_describe_mentions_keeps(self, sharing_app, sharing_clustering):
        schedule = CompleteDataScheduler(Architecture.m1("2K")).schedule(
            sharing_app, sharing_clustering
        )
        text = schedule.describe()
        assert "keeps:" in text
        assert "RF=" in text

    def test_summary_traffic_positive(self, sharing_app, sharing_clustering,
                                      m1_medium):
        summary = DataScheduler(m1_medium).schedule(
            sharing_app, sharing_clustering
        ).summary()
        assert summary.total_data_loaded_words > 0
        assert summary.total_data_stored_words > 0
        assert summary.total_context_words > 0
        assert summary.data_words_per_iteration > 0

    def test_basic_context_traffic_scales_with_iterations(
            self, sharing_app, sharing_clustering, m1_medium):
        basic = BasicScheduler(m1_medium).schedule(
            sharing_app, sharing_clustering
        ).summary()
        ds = DataScheduler(m1_medium).schedule(
            sharing_app, sharing_clustering
        ).summary()
        assert basic.total_context_words > ds.total_context_words
