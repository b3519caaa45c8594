"""The shrinking loop: minimal reproducers that still fail their oracle."""

from repro.fuzz.case import FuzzCase
from repro.fuzz.generator import generate_case
from repro.fuzz.oracles import OracleFailure
from repro.fuzz.shrink import shrink_case


def _fails_when(predicate):
    """A synthetic oracle check from a case predicate."""

    def check(case):
        if predicate(case):
            return [OracleFailure("synthetic", case.name, "planted")]
        return []

    return check


def test_shrinks_to_single_kernel_for_size_triggered_bug():
    case = generate_case("baseline", 11)
    check = _fails_when(
        lambda c: any(s["size"] > 40 for s in c.objects.values())
    )
    shrunk = shrink_case(case, "synthetic", check=check)
    assert shrunk.weight < case.weight
    assert len(shrunk.kernels) == 1
    assert shrunk.total_iterations == 1
    assert check(shrunk)  # still fails
    shrunk.build()  # still a valid application
    assert shrunk.failing_oracle == "synthetic"


def test_shrunk_case_preserves_structural_trigger():
    """A bug needing two clusters keeps two clusters after shrinking."""
    case = generate_case("baseline", 7)
    check = _fails_when(lambda c: len(c.groups) >= 2)
    shrunk = shrink_case(case, "synthetic", check=check)
    assert len(shrunk.groups) == 2
    assert all(group for group in shrunk.groups)
    shrunk.build()


def test_iteration_triggered_bug_keeps_iterations():
    case = generate_case("baseline", 4)
    check = _fails_when(lambda c: c.total_iterations >= 3)
    shrunk = shrink_case(case, "synthetic", check=check)
    assert shrunk.total_iterations == 3
    shrunk.build()


def test_original_case_is_not_mutated():
    case = generate_case("baseline", 2)
    before = case.to_dict()
    shrink_case(case, "synthetic", check=_fails_when(lambda c: True))
    assert case.to_dict() == before


def test_unshrinkable_failure_returns_copy():
    """If no reduction keeps the oracle failing, the original survives."""
    case = generate_case("baseline", 6)
    fingerprint = case.to_dict()

    def check(candidate):
        # Only the exact original case fails.
        if candidate.to_dict() == fingerprint:
            return [OracleFailure("synthetic", candidate.name, "exact")]
        return []

    shrunk = shrink_case(case, "synthetic", check=check)
    stripped = shrunk.to_dict()
    stripped.pop("failing_oracle", None)
    assert stripped == fingerprint


def test_attempt_budget_bounds_the_loop():
    case = generate_case("deep_chains", 3)
    calls = []

    def check(candidate):
        calls.append(1)
        return [OracleFailure("synthetic", candidate.name, "always")]

    shrink_case(case, "synthetic", check=check, max_attempts=10)
    # The budget counts candidate evaluations that reached the checker;
    # invalid candidates are rejected before the check and cost nothing.
    assert len(calls) <= 10


def test_shrunk_reproducer_roundtrips_to_corpus_json(tmp_path):
    case = generate_case("baseline", 9)
    check = _fails_when(lambda c: len(c.kernels) >= 1)
    shrunk = shrink_case(case, "synthetic", check=check)
    path = tmp_path / "repro.json"
    shrunk.save(path)
    again = FuzzCase.load(path)
    assert again.failing_oracle == "synthetic"
    again.build()


# A reduced candidate captured from a shrink of a real ``engine``
# finding: it builds, but ``mid_2_0`` is produced and never consumed,
# so dataflow analysis rejects it inside the oracle run.
_DEAD_INTERMEDIATE = {
    "name": "tiny-fb-56", "total_iterations": 13,
    "objects": {
        "table0": {"size": 95, "invariant": False},
        "table1": {"size": 193, "invariant": False},
        "in_0_0": {"size": 121, "invariant": False},
        "out_0": {"size": 160, "invariant": False},
        "xres0": {"size": 118, "invariant": False},
        "xres1": {"size": 88, "invariant": False},
        "in_2_0": {"size": 39, "invariant": False},
        "mid_2_0": {"size": 164, "invariant": False},
        "mid_2_1": {"size": 27, "invariant": False},
        "in_2_2": {"size": 82, "invariant": False},
        "out_2": {"size": 73, "invariant": False},
    },
    "kernels": [
        {"name": "c0k0", "context_words": 148, "cycles": 756,
         "inputs": ["in_0_0", "table0", "table1"], "outputs": ["out_0"]},
        {"name": "c2k0", "context_words": 23, "cycles": 718,
         "inputs": ["in_2_0", "table1", "xres0", "xres1"],
         "outputs": ["mid_2_0"]},
        {"name": "c2k2", "context_words": 24, "cycles": 831,
         "inputs": ["in_2_2", "mid_2_1"], "outputs": ["out_2"]},
    ],
    "finals": ["out_0", "out_2"],
    "groups": [["c0k0"], ["c2k0", "c2k2"]],
    "fb_sets": [0, 0],
    "fb_words": 781,
    "regime": "tiny_fb",
    "seed": 56,
}


def test_candidate_the_pipeline_rejects_does_not_reproduce():
    """A ReproError while checking a candidate means "does not
    reproduce", not a crash of the whole campaign."""
    from repro.fuzz.oracles import run_oracles
    from repro.fuzz.shrink import _still_fails

    candidate = FuzzCase.from_dict(_DEAD_INTERMEDIATE)
    assert not _still_fails(
        candidate, "engine",
        lambda c: run_oracles(c, oracles=("engine",)),
    )
