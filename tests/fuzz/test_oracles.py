"""The oracle stack: clean on healthy cases, sharp on planted bugs."""

from types import SimpleNamespace

import pytest

from repro.core.dataflow import analyze_dataflow
from repro.errors import InfeasibleScheduleError
from repro.fuzz.case import FuzzCase
from repro.fuzz.generator import generate_case
from repro.fuzz.oracles import (
    ORACLE_NAMES,
    FreeListMismatch,
    MirroredFreeList,
    OracleFailure,
    _check_diagnostics,
    _check_feasibility,
    _check_rfbound,
    _check_traffic,
    _Run,
    run_oracles,
)
from repro.schedule.base import ScheduleOptions
from repro.schedule.data_scheduler import DataScheduler
from repro.workloads.spec import paper_experiments


def test_paper_experiment_passes_all_oracles():
    spec = next(s for s in paper_experiments() if s.id == "E1")
    application, clustering = spec.build()
    case = FuzzCase.from_workload(
        application, clustering, spec.fb_words, name="paper-E1"
    )
    assert run_oracles(case) == []


def test_infeasible_case_passes_diagnostics_oracle():
    """A workload far beyond the set size fails cleanly, not wrongly."""
    case = generate_case("tiny_fb", 0)
    case.fb_words = 64
    failures = run_oracles(case, functional=False)
    assert failures == []


def test_unknown_oracle_names_rejected():
    case = generate_case("baseline", 0)
    with pytest.raises(ValueError, match="unknown oracles"):
        run_oracles(case, oracles=("bogus",))


def test_oracle_subset_runs_only_requested():
    case = generate_case("baseline", 1)
    assert run_oracles(case, oracles=("traffic",)) == []


def test_unbuildable_case_reports_build_failure():
    case = generate_case("baseline", 0)
    case.kernels[0]["inputs"] = ["no_such_object"]
    failures = run_oracles(case)
    assert [f.oracle for f in failures] == ["build"]


# -- planted-bug detection (each oracle must catch its bug class) --------


def _rfbound_check(rf_shift):
    """The ``rfbound`` verdict on baseline case 1 (DS picks RF 8 of 13
    iterations) with the schedule's RF moved by *rf_shift*."""
    case = generate_case("baseline", 1)
    application, clustering = case.build()
    dataflow = analyze_dataflow(application, clustering)
    schedule = DataScheduler(case.architecture()).schedule(
        application, clustering, dataflow=dataflow
    )
    assert 1 < schedule.rf < application.total_iterations
    moved = SimpleNamespace(
        rf=schedule.rf + rf_shift, fb_set_words=schedule.fb_set_words
    )
    runs = {"ds": _Run(scheduler="ds", schedule=moved)}
    return _check_rfbound(case, runs, dataflow, ScheduleOptions())


def test_rfbound_oracle_flags_rf_below_the_bound():
    failures = _rfbound_check(-1)
    assert len(failures) == 1
    assert failures[0].oracle == "rfbound"
    assert "RF=8 fits" in failures[0].message


def test_rfbound_oracle_flags_rf_over_the_bound():
    failures = _rfbound_check(+1)
    assert len(failures) == 1
    assert failures[0].oracle == "rfbound"
    assert "RF=9 overflows" in failures[0].message


def test_rfbound_oracle_accepts_the_highest_rf():
    assert _rfbound_check(0) == []


def test_diagnostics_oracle_flags_rounding_collision():
    """The exact pre-fix bug shape: 1029 vs 1024 both render as 1K."""
    case = generate_case("baseline", 0)
    exc = InfeasibleScheduleError(
        "basic: cluster Cl4 needs 1K (RF=1) but one frame-buffer set "
        "holds 1K",
        cluster="Cl4", required=1029, available=1024,
    )
    failures = _check_diagnostics(case, {"basic": _Run("basic", error=exc)})
    assert len(failures) == 1
    assert "exact numbers" in failures[0].message


def test_diagnostics_oracle_flags_inverted_numbers():
    case = generate_case("baseline", 0)
    exc = InfeasibleScheduleError(
        "needs 512 words but holds 1024 words",
        cluster="Cl1", required=512, available=1024,
    )
    failures = _check_diagnostics(case, {"ds": _Run("ds", error=exc)})
    assert len(failures) == 1
    assert "required 512 <= available 1024" in failures[0].message


def test_diagnostics_oracle_flags_missing_numbers():
    case = generate_case("baseline", 0)
    exc = InfeasibleScheduleError("it just does not fit")
    failures = _check_diagnostics(case, {"cds": _Run("cds", error=exc)})
    assert len(failures) == 1
    assert "lacks required/available" in failures[0].message


def test_diagnostics_oracle_accepts_exact_message():
    case = generate_case("baseline", 0)
    exc = InfeasibleScheduleError(
        "basic: cluster Cl4 needs 1029 words (RF=1) but one frame-buffer "
        "set holds 1024 words",
        cluster="Cl4", required=1029, available=1024,
    )
    assert _check_diagnostics(case, {"basic": _Run("basic", error=exc)}) == []


def test_feasibility_oracle_flags_nonmonotone_hierarchy():
    case = generate_case("baseline", 0)
    runs = {
        "basic": _Run("basic", schedule=object()),
        "ds": _Run("ds", error=InfeasibleScheduleError("x")),
        "cds": _Run("cds", schedule=object()),
    }
    oracles = {f.oracle for f in _check_feasibility(case, runs)}
    assert oracles == {"feasibility"}
    assert len(_check_feasibility(case, runs)) == 2  # basic>ds and ds!=cds


class _FakeReport:
    def __init__(self, data_words, context_words):
        self.data_words = data_words
        self.context_words = context_words


def test_traffic_oracle_flags_cds_regression():
    case = generate_case("baseline", 0)
    runs = {
        "basic": _Run("basic", report=_FakeReport(1000, 100)),
        "ds": _Run("ds", report=_FakeReport(800, 50)),
        "cds": _Run("cds", report=_FakeReport(900, 50)),  # worse than DS
    }
    failures = _check_traffic(case, runs)
    assert failures
    assert all(f.oracle == "traffic" for f in failures)
    assert any("cds" == f.scheduler for f in failures)


def test_traffic_oracle_accepts_proper_ordering():
    case = generate_case("baseline", 0)
    runs = {
        "basic": _Run("basic", report=_FakeReport(1000, 100)),
        "ds": _Run("ds", report=_FakeReport(800, 50)),
        "cds": _Run("cds", report=_FakeReport(700, 50)),
    }
    assert _check_traffic(case, runs) == []


# -- the mirrored free list ------------------------------------------------


def test_mirrored_free_list_agrees_on_normal_traffic():
    mirror = MirroredFreeList(256)
    a = mirror.allocate_high(64)
    b = mirror.allocate_low(32)
    mirror.allocate_at(100, 10)
    mirror.free(a.start, a.size)
    mirror.free(b.start, b.size)
    mirror.free(100, 10)
    mirror.check_invariants()
    assert mirror.free_words == 256
    assert mirror.operations >= 6


def test_mirrored_free_list_catches_divergence():
    mirror = MirroredFreeList(128)
    mirror.allocate_high(32)
    # Desynchronise the two lists behind the mirror's back.
    mirror.primary.allocate_low(16)
    with pytest.raises(FreeListMismatch):
        mirror.allocate_low(16)


def test_mirrored_free_list_mirrors_exceptions():
    mirror = MirroredFreeList(64)
    mirror.allocate_high(64)
    from repro.errors import FragmentationError

    with pytest.raises(FragmentationError):
        mirror.allocate_high(1)
    mirror.check_invariants()


def test_exactgap_oracle_clean_on_generated_case():
    case = generate_case("baseline", 3)
    assert run_oracles(case, oracles=("exactgap",)) == []


def test_exactgap_oracle_flags_greedy_mirror_divergence(monkeypatch):
    """Plant: the solver's internal greedy seed stops replaying CDS."""
    from repro.schedule.exact.solver import ExactRetentionSolver

    monkeypatch.setattr(
        ExactRetentionSolver, "_greedy_keeps",
        lambda self, rf, ranked: (),
    )
    spec = next(s for s in paper_experiments() if s.id == "E1")
    application, clustering = spec.build()
    case = FuzzCase.from_workload(
        application, clustering, spec.fb_words, name="paper-E1"
    )
    failures = run_oracles(case, oracles=("exactgap",))
    assert failures, "a desynchronised greedy mirror must fire"
    assert all(f.oracle == "exactgap" for f in failures)
    assert any("greedy mirror diverges" in f.message for f in failures)


def test_exactgap_oracle_flags_traffic_model_divergence(monkeypatch):
    """Plant: the closed-form model over-reports every keep saving."""
    from repro.schedule.exact.traffic import TrafficModel

    original = TrafficModel.keep_saving
    monkeypatch.setattr(
        TrafficModel, "keep_saving",
        lambda self, keep, rf: 10 * original(self, keep, rf),
    )
    spec = next(s for s in paper_experiments() if s.id == "E1")
    application, clustering = spec.build()
    case = FuzzCase.from_workload(
        application, clustering, spec.fb_words, name="paper-E1"
    )
    failures = run_oracles(case, oracles=("exactgap",))
    assert failures, "a lying traffic model must fire"
    assert any("traffic model diverges" in f.message for f in failures)


def test_progequiv_oracle_flags_divergent_stamping(monkeypatch):
    """Plant: the template backend drops every visit's stores."""
    from repro.codegen.templated import ClusterTemplate

    original = ClusterTemplate.__init__

    def lying_init(self, cluster_index, fb_set, context_loads, loads,
                   compute, stores):
        original(self, cluster_index, fb_set, context_loads, loads,
                 compute, ())

    monkeypatch.setattr(ClusterTemplate, "__init__", lying_init)
    spec = next(s for s in paper_experiments() if s.id == "E1")
    application, clustering = spec.build()
    case = FuzzCase.from_workload(
        application, clustering, spec.fb_words, name="paper-E1"
    )
    failures = run_oracles(case, oracles=("progequiv",))
    assert failures, "a lying template backend must fire"
    assert any("differs from reference" in f.message for f in failures)


def test_simengine_oracle_flags_divergent_template_rows(monkeypatch):
    """Plant: the template-driven timing rows overcount every store."""
    import repro.sim.engine as engine

    original = engine._template_groups

    def lying_groups(template, n_iters, data_cycles):
        compute, loads, (words, duration, count) = original(
            template, n_iters, data_cycles
        )
        return compute, loads, (words + 1, duration + 1, count)

    monkeypatch.setattr(engine, "_template_groups", lying_groups)
    spec = next(s for s in paper_experiments() if s.id == "E1")
    application, clustering = spec.build()
    case = FuzzCase.from_workload(
        application, clustering, spec.fb_words, name="paper-E1"
    )
    failures = run_oracles(case, oracles=("simengine",))
    assert failures, "lying template rows must fire"
    assert any("materialised-op" in f.message for f in failures)
    # The traced re-simulation stamps stores from the ops, which end
    # one cycle before the lying block: a reported failure, not a crash.
    assert any(
        "traced simulation failed" in f.message for f in failures
    )


def _paper_e1_case():
    spec = next(s for s in paper_experiments() if s.id == "E1")
    application, clustering = spec.build()
    return FuzzCase.from_workload(
        application, clustering, spec.fb_words, name="paper-E1"
    )


def test_hazards_oracle_flags_divergent_race_pass(monkeypatch):
    """Plant: the HAZ001 sweep drops every reader predecessor."""
    import repro.dataflow.passes as passes

    original = passes._accessor_pairs

    def writers_only(write, first):
        pred_at, succ_at = original(write, first)
        kept = write.take(pred_at)
        return pred_at[kept], succ_at[kept]

    monkeypatch.setattr(passes, "_accessor_pairs", writers_only)
    failures = run_oracles(_paper_e1_case(), oracles=("hazards",))
    assert failures, "a divergent race pass must fire"
    assert any(
        "diverges from its reference" in f.message and "HAZ001" in f.message
        for f in failures
    )


def test_hazards_oracle_flags_divergent_interference(monkeypatch):
    """Plant: the HAZ002 sweep reports a phantom overlap."""
    import repro.dataflow.passes as passes

    def phantom(ir, emit):
        emit("HAZ002", "phantom", location="visit 0", cost_words=1)

    monkeypatch.setattr(passes, "check_interference", phantom)
    failures = run_oracles(_paper_e1_case(), oracles=("hazards",))
    assert any(
        "diverges from its reference" in f.message and "HAZ002" in f.message
        for f in failures
    )


def test_oracle_names_are_stable():
    assert set(ORACLE_NAMES) == {
        "rfbound", "diagnostics", "feasibility", "traffic", "engine",
        "trace", "exactgap", "progequiv", "freelist",
        "verifier", "hazards", "simengine", "functional",
    }
    failure = OracleFailure("traffic", "case", "msg", scheduler="cds")
    assert failure.to_dict() == {
        "oracle": "traffic", "case": "case", "message": "msg",
        "scheduler": "cds",
    }
