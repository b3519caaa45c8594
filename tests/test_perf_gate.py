"""The regression gate's comparison (``tools/perf_gate.py``)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "perf_gate", ROOT / "tools" / "perf_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()

LATENCY = {"name": "op_p50_ms", "unit": "ms", "better": "lower",
           "bound": 0.25}
THROUGHPUT = {"name": "ops_per_s", "unit": "1/s", "better": "higher",
              "bound": 0.25}


def result(correct=True, attempted=100, failed=0, **values):
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": "x"}
                    for name, value in values.items()},
    }


def problems(end_to_end, base, head):
    return gate.compare(end_to_end, base, head)["problems"]


class TestBounds:
    def test_lower_is_better_at_exactly_the_bound_passes(self):
        assert problems([LATENCY], result(op_p50_ms=4.0),
                        result(op_p50_ms=5.0)) == []

    def test_lower_is_better_just_over_the_bound_fails(self):
        found = problems([LATENCY], result(op_p50_ms=4.0),
                         result(op_p50_ms=5.001))
        assert len(found) == 1 and found[0].startswith("op_p50_ms:")

    def test_higher_is_better_at_exactly_the_bound_passes(self):
        assert problems([THROUGHPUT], result(ops_per_s=200.0),
                        result(ops_per_s=150.0)) == []

    def test_higher_is_better_just_under_the_bound_fails(self):
        found = problems([THROUGHPUT], result(ops_per_s=200.0),
                         result(ops_per_s=149.9))
        assert len(found) == 1 and found[0].startswith("ops_per_s:")

    @pytest.mark.parametrize("metric, head", [
        (LATENCY, 1.0), (THROUGHPUT, 1000.0),
    ])
    def test_improvement_passes(self, metric, head):
        base = result(**{metric["name"]: 100.0})
        row = gate.compare([metric], base, result(**{metric["name"]: head}))
        assert row["problems"] == []
        assert row["metrics"][metric["name"]]["worse_by"] < 0


class TestCorrectness:
    def test_incorrect_head_fails(self):
        found = problems([LATENCY], result(op_p50_ms=4.0),
                         result(correct=False, op_p50_ms=4.0))
        assert any(problem.startswith("incorrect") for problem in found)

    def test_rise_in_failed_share_fails(self):
        base = result(correct=False, attempted=100, failed=1, op_p50_ms=4.0)
        head = result(correct=False, attempted=100, failed=2, op_p50_ms=4.0)
        assert any(problem.startswith("failed share")
                   for problem in problems([LATENCY], base, head))

    def test_equal_failed_share_is_not_a_rise(self):
        base = result(correct=False, attempted=100, failed=1, op_p50_ms=4.0)
        head = result(correct=False, attempted=200, failed=2, op_p50_ms=4.0)
        assert not any(problem.startswith("failed share")
                       for problem in problems([LATENCY], base, head))


def test_pooled_runs_take_medians_and_sum_ops():
    runs = [result(op_p50_ms=4.0), result(op_p50_ms=9.0),
            result(correct=False, failed=3, op_p50_ms=5.0)]
    pool = gate.pooled(runs)
    assert pool["metrics"]["op_p50_ms"]["value"] == 5.0
    assert (pool["correct"], pool["attempted"], pool["failed"]) == (
        False, 300, 3)


def test_every_benchmark_end_to_end_metric_is_checked():
    end_to_end = json.loads(
        (ROOT / "BENCHMARK.json").read_text()
    )["end_to_end"]
    values = {metric["name"]: 10.0 for metric in end_to_end}
    base = result(**values)
    assert problems(end_to_end, base, base) == []
    for metric in end_to_end:
        step = 2 * metric["bound"] * (1 if metric["better"] == "lower" else -1)
        head = result(**dict(values, **{metric["name"]: 10.0 * (1 + step)}))
        found = problems(end_to_end, base, head)
        assert len(found) == 1 and found[0].startswith(f"{metric['name']}:")
