"""The exact retention/RF solver vs brute force and the greedy CDS.

The solver's contract is exhaustive optimality: its ``(RF, keeps)``
choice must tie the best of *every* feasible pair, measured on real
materialised :class:`~repro.schedule.plan.TransferSummary` totals.
Brute force here enumerates that space directly (small generated cases
keep the subset lattice tractable), which also cross-validates the
closed-form :class:`~repro.schedule.exact.traffic.TrafficModel` the
search prunes with.
"""

import itertools
from pathlib import Path

import pytest

from repro.arch.params import Architecture
from repro.core.dataflow import analyze_dataflow
from repro.errors import InfeasibleScheduleError
from repro.fuzz.case import FuzzCase
from repro.fuzz.generator import generate_case, regime_names
from repro.schedule.complete import CompleteDataScheduler
from repro.schedule.exact import (
    ExactDataScheduler,
    ExactRetentionSolver,
    TrafficModel,
)
from repro.schedule.occupancy import OccupancyEngine, ReferenceOccupancy
from repro.schedule.tf import retention_candidates
from repro.workloads.random_gen import random_application
from repro.workloads.spec import paper_experiments


def _materialised_total(architecture, dataflow, rf, keeps):
    """Real TransferSummary total for one (rf, keeps), or None when the
    pair does not fit a frame-buffer set (naive occupancy path)."""
    scheduler = CompleteDataScheduler(architecture)
    scheduler._engine = ReferenceOccupancy(
        dataflow, architecture.fb_set_words
    )
    try:
        schedule = scheduler._build_schedule(
            dataflow, rf=rf, keeps=keeps, contexts_per_iteration=False
        )
    except InfeasibleScheduleError:
        return None
    summary = schedule.summary()
    return summary.total_data_words + summary.total_context_words


def _brute_force_best(architecture, dataflow):
    """Exhaustive minimum over every (rf, keep subset), or None."""
    candidates = retention_candidates(dataflow)
    best = None
    for rf in range(1, dataflow.application.total_iterations + 1):
        for r in range(len(candidates) + 1):
            for subset in itertools.combinations(candidates, r):
                total = _materialised_total(
                    architecture, dataflow, rf, subset
                )
                if total is not None and (best is None or total < best):
                    best = total
    return best


def _small_cases(max_candidates=7, per_regime=6):
    """Generated cases whose candidate list keeps 2^k enumerable."""
    cases = []
    for regime in regime_names():
        picked = 0
        for seed in range(30):
            if picked >= per_regime:
                break
            case = generate_case(regime, seed)
            application, clustering = case.build()
            dataflow = analyze_dataflow(application, clustering)
            if len(retention_candidates(dataflow)) > max_candidates:
                continue
            if application.total_iterations > 24:
                continue
            cases.append((f"{regime}-{seed}", case))
            picked += 1
    return cases


class TestBruteForceEquivalence:
    @pytest.mark.parametrize(
        "label,case", _small_cases(), ids=lambda v: v if isinstance(v, str) else ""
    )
    def test_solver_ties_exhaustive_enumeration(self, label, case):
        application, clustering = case.build()
        architecture = case.architecture()
        dataflow = analyze_dataflow(application, clustering)
        engine = OccupancyEngine(dataflow, architecture.fb_set_words)
        solution = ExactRetentionSolver(dataflow, engine=engine).solve()
        brute = _brute_force_best(architecture, dataflow)
        if solution is None:
            assert brute is None
            return
        assert solution.complete, "budget must not truncate small cases"
        assert brute is not None
        assert solution.traffic_words == brute
        # The model total the search minimised is the real total.
        materialised = _materialised_total(
            architecture, dataflow, solution.rf, solution.keeps
        )
        assert materialised == solution.traffic_words


class TestExactVsGreedy:
    def test_exact_never_worse_across_regimes(self):
        for regime in regime_names():
            for seed in range(4):
                case = generate_case(regime, seed)
                application, clustering = case.build()
                architecture = case.architecture()
                dataflow = analyze_dataflow(application, clustering)
                try:
                    greedy = CompleteDataScheduler(architecture).schedule(
                        application, clustering, dataflow=dataflow
                    )
                except InfeasibleScheduleError:
                    with pytest.raises(InfeasibleScheduleError):
                        ExactDataScheduler(architecture).schedule(
                            application, clustering, dataflow=dataflow
                        )
                    continue
                exact_scheduler = ExactDataScheduler(architecture)
                exact = exact_scheduler.schedule(
                    application, clustering, dataflow=dataflow
                )
                greedy_summary = greedy.summary()
                exact_summary = exact.summary()
                greedy_total = (greedy_summary.total_data_words
                                + greedy_summary.total_context_words)
                exact_total = (exact_summary.total_data_words
                               + exact_summary.total_context_words)
                assert exact_total <= greedy_total
                solution = exact_scheduler.last_solution
                assert solution.traffic_words == exact_total
                assert solution.greedy_traffic_words == greedy_total
                # The solver's greedy mirror IS the CDS choice.
                assert solution.greedy_rf == greedy.rf
                assert solution.greedy_keeps == greedy.keeps

    def test_greedy_mirror_matches_cds_on_keep_policies(self, sharing_app,
                                                        sharing_clustering,
                                                        m1_medium):
        from repro.schedule.base import ScheduleOptions

        for policy in ("tf", "size", "fifo"):
            options = ScheduleOptions(keep_policy=policy)
            greedy = CompleteDataScheduler(m1_medium, options).schedule(
                sharing_app, sharing_clustering
            )
            scheduler = ExactDataScheduler(m1_medium, options)
            exact = scheduler.schedule(sharing_app, sharing_clustering)
            solution = scheduler.last_solution
            assert solution.greedy_rf == greedy.rf
            assert solution.greedy_keeps == greedy.keeps
            exact_summary = exact.summary()
            greedy_summary = greedy.summary()
            assert (exact_summary.total_data_words
                    + exact_summary.total_context_words) <= (
                greedy_summary.total_data_words
                + greedy_summary.total_context_words)


class TestBudgets:
    def test_node_budget_truncation_still_at_least_greedy(self):
        # The pinned gap anchor needs a real search (greedy is
        # suboptimal on it), so a one-node budget must truncate.
        from pathlib import Path

        from repro.fuzz.case import FuzzCase

        case = FuzzCase.load(
            Path("tests/corpus") / "gap-anchor-baseline-seed6.json"
        )
        application, clustering = case.build()
        scheduler = ExactDataScheduler(case.architecture(), max_nodes=1)
        scheduler.schedule(application, clustering)
        solution = scheduler.last_solution
        assert not solution.complete
        # The incumbent is seeded with greedy, so a fully truncated
        # search still returns exactly the greedy choice.
        assert solution.traffic_words == solution.greedy_traffic_words
        assert solution.rf == solution.greedy_rf
        assert solution.keeps == solution.greedy_keeps

    def test_wallclock_budget_expired_still_at_least_greedy(
        self, sharing_app, sharing_clustering, m1_medium
    ):
        scheduler = ExactDataScheduler(m1_medium, budget_ms=0.0)
        scheduler.schedule(sharing_app, sharing_clustering)
        solution = scheduler.last_solution
        assert solution.traffic_words <= solution.greedy_traffic_words

    def test_unbudgeted_run_is_complete_and_deterministic(
        self, sharing_app, sharing_clustering, m1_medium
    ):
        runs = []
        for _ in range(2):
            scheduler = ExactDataScheduler(m1_medium)
            scheduler.schedule(sharing_app, sharing_clustering)
            runs.append(scheduler.last_solution)
        first, second = runs
        assert first.complete
        assert first == second


class TestInfeasiblePayloadParity:
    """Satellite: an infeasible case renders the same payload from
    ``exact`` as from ``cds`` up to the scheduler-name prefix."""

    def _both_payloads(self, application, clustering, architecture):
        payloads = []
        for scheduler_cls, prefix in (
            (CompleteDataScheduler, "cds: "),
            (ExactDataScheduler, "exact: "),
        ):
            with pytest.raises(InfeasibleScheduleError) as excinfo:
                scheduler_cls(architecture).schedule(
                    application, clustering
                )
            exc = excinfo.value
            message = str(exc)
            # Static-capacity diagnostics come from shared code and
            # carry no scheduler prefix; scheduler-specific ones do.
            if message.startswith(prefix):
                message = message[len(prefix):]
            payloads.append((
                message, exc.cluster, exc.required, exc.available,
            ))
        return payloads

    def test_rf1_diagnostic_is_identical(self):
        application, clustering = random_application(13)
        cds, exact = self._both_payloads(
            application, clustering, Architecture.m1(300)
        )
        assert cds == exact
        assert "RF=1" in cds[0] or "even at RF=1" in cds[0]

    def test_static_capacity_diagnostic_is_identical(self):
        # deep_chains seed 0 overflows a context-memory block: a
        # *static* infeasibility that fires before any solver runs.
        case = generate_case("deep_chains", 0)
        application, clustering = case.build()
        dataflow = analyze_dataflow(application, clustering)
        architecture = case.architecture()
        try:
            CompleteDataScheduler(architecture).schedule(
                application, clustering, dataflow=dataflow
            )
        except InfeasibleScheduleError:
            cds, exact = self._both_payloads(
                application, clustering, architecture
            )
            assert cds == exact
        else:
            pytest.skip("generator no longer makes this case infeasible")

    def test_cross_set_guard_matches_cds_wording(self, sharing_app,
                                                 sharing_clustering):
        from repro.schedule.base import ScheduleOptions

        architecture = Architecture.m1(4096)
        assert not architecture.fb_cross_set_access
        options = ScheduleOptions(cross_set_retention=True)
        messages = []
        for scheduler_cls, prefix in (
            (CompleteDataScheduler, "cds: "),
            (ExactDataScheduler, "exact: "),
        ):
            with pytest.raises(InfeasibleScheduleError) as excinfo:
                scheduler_cls(architecture, options).schedule(
                    sharing_app, sharing_clustering
                )
            assert str(excinfo.value).startswith(prefix)
            messages.append(str(excinfo.value)[len(prefix):])
        assert messages[0] == messages[1]


class TestTrafficModel:
    def test_model_totals_match_summaries_on_paper_experiments(self):
        from repro.workloads.spec import paper_experiments

        for spec in paper_experiments():
            application, clustering = spec.build()
            architecture = Architecture.m1(spec.fb_words)
            dataflow = analyze_dataflow(application, clustering)
            model = TrafficModel(dataflow)
            schedule = CompleteDataScheduler(architecture).schedule(
                application, clustering, dataflow=dataflow
            )
            summary = schedule.summary()
            assert model.total_traffic(schedule.rf, schedule.keeps) == (
                summary.total_data_words + summary.total_context_words
            ), spec.id

    def test_savings_are_additive(self, sharing_app, sharing_clustering,
                                  m1_medium):
        dataflow = analyze_dataflow(sharing_app, sharing_clustering)
        model = TrafficModel(dataflow)
        candidates = retention_candidates(dataflow)
        assert candidates, "fixture must expose retention candidates"
        rf = 2
        base = model.data_traffic(rf, ())
        together = model.data_traffic(rf, candidates)
        individual = sum(model.keep_saving(c, rf) for c in candidates)
        assert base - together == individual


class TestPinnedGapAnchors:
    """The two corpus anchors where greedy is provably suboptimal.

    Both are RF-first greediness: lowering the common RF by one admits
    an extra keep worth more than the added context traffic.  They pin
    the measured gap — if the greedy CDS ever starts matching exact
    here, or the gap widens, the heuristic changed.
    """

    @pytest.mark.parametrize("stem,gap", [
        ("gap-anchor-baseline-seed6", 578),
        ("gap-anchor-baseline-seed12", 816),
    ])
    def test_anchor_gap_is_pinned(self, stem, gap):
        from pathlib import Path

        from repro.fuzz.case import FuzzCase

        path = Path("tests/corpus") / f"{stem}.json"
        case = FuzzCase.load(path)
        application, clustering = case.build()
        architecture = case.architecture()
        dataflow = analyze_dataflow(application, clustering)
        greedy = CompleteDataScheduler(architecture).schedule(
            application, clustering, dataflow=dataflow
        )
        scheduler = ExactDataScheduler(architecture)
        scheduler.schedule(application, clustering, dataflow=dataflow)
        solution = scheduler.last_solution
        assert solution.complete
        assert solution.greedy_rf == greedy.rf
        assert solution.gap_words == gap
        # The exact solution trades RF down for an extra keep.
        assert solution.rf == greedy.rf - 1
        assert len(solution.keeps) == len(greedy.keeps) + 1


def _paper_and_anchor_workloads():
    for spec in paper_experiments():
        application, clustering = spec.build()
        yield spec.id, application, clustering, Architecture.m1(spec.fb_words)
    for path in sorted(Path("tests/corpus").glob("gap-anchor-*.json")):
        case = FuzzCase.load(path)
        application, clustering = case.build()
        yield path.stem, application, clustering, case.architecture()


@pytest.mark.parametrize(
    "label,application,clustering,architecture",
    list(_paper_and_anchor_workloads()),
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_exact_traffic_never_exceeds_greedy(label, application, clustering,
                                            architecture):
    dataflow = analyze_dataflow(application, clustering)
    greedy = CompleteDataScheduler(architecture).schedule(
        application, clustering, dataflow=dataflow
    )
    exact = ExactDataScheduler(architecture).schedule(
        application, clustering, dataflow=dataflow
    )
    greedy_summary = greedy.summary()
    exact_summary = exact.summary()
    assert (exact_summary.total_data_words
            + exact_summary.total_context_words) <= (
        greedy_summary.total_data_words
        + greedy_summary.total_context_words)
    # Greedy is optimal on the paper experiments; the pinned gap
    # anchors are cases where exact strictly wins.
    if label.startswith("gap-anchor"):
        assert (exact_summary.total_data_words
                + exact_summary.total_context_words) < (
            greedy_summary.total_data_words
            + greedy_summary.total_context_words)
