"""Regression gate: the repository benchmark, this tree against a base ref.

Run from anywhere inside a checkout with the base commit fetched::

    python tools/perf_gate.py BASE_REF

``BASE_REF`` is checked out into a temporary ``git worktree``.  For each
workload listed in ``BENCHMARK.json`` this checkout's
``perfbench/run.py --seed 1 --seconds 4 --trace 0`` runs in five
pairs, once with the base tree as its working directory and once with
this tree, alternating which goes first.  The same benchmark code therefore
measures both programs.  Each side's runs are pooled: the median of
each metric, and the ops and failures summed.

The gate fails when this tree's result is not ``correct``, when a
larger share of its ops failed than on the base, or when an
``end_to_end`` metric is worse than on the base by more than that
metric's ``bound`` (a fraction of the base value, in the metric's
``better`` direction).  The comparison is written to ``perf-gate.json``
at the root of this checkout; the exit status is 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SECONDS = 4
#: Pairs of runs per workload.  On a shared 2-CPU host a 4 s run's tail
#: and set-up time can stray by a third, and two runs in three can be
#: disturbed; the median of five rides out two.
PAIRS = 5


def worse_by(better, base, head):
    """How much worse *head* is than *base*, as a fraction of *base*;
    negative when it is better."""
    change = head - base if better == "lower" else base - head
    return change / base


def failed_share(result):
    attempted = result["attempted"]
    return result["failed"] / attempted if attempted else 1.0


def pooled(results):
    """One perfbench result from several runs of one workload: each
    metric's median, the ops and failures summed, correct only when
    every run was."""
    return {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": {
            name: {
                "value": statistics.median(
                    result["metrics"][name]["value"] for result in results
                ),
                "unit": metric["unit"],
            }
            for name, metric in results[0]["metrics"].items()
        },
    }


def compare(end_to_end, base, head):
    """Compare one workload's perfbench results, *head* against *base*.

    *end_to_end* is the ``end_to_end`` list of ``BENCHMARK.json``; *base*
    and *head* are the JSON objects perfbench prints last.  Returns
    ``{"metrics": {name: row}, "problems": [message, ...]}``; the head
    passes when ``problems`` is empty.
    """
    problems = []
    if not head["correct"]:
        problems.append(
            f"incorrect: {head['failed']} of {head['attempted']} "
            "ops failed their output check"
        )
    if failed_share(head) > failed_share(base):
        problems.append(
            f"failed share rose from {failed_share(base):.3f} "
            f"to {failed_share(head):.3f}"
        )
    rows = {}
    for metric in end_to_end:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        base_value = base["metrics"][name]["value"]
        head_value = head["metrics"][name]["value"]
        worse = worse_by(better, base_value, head_value)
        ok = worse <= bound
        rows[name] = {
            "base": base_value, "head": head_value, "unit": metric["unit"],
            "better": better, "worse_by": worse, "bound": bound, "ok": ok,
        }
        if not ok:
            problems.append(
                f"{name}: {base_value:.4g} -> {head_value:.4g} "
                f"{metric['unit']}, worse by {100 * worse:.1f}% "
                f"(bound {100 * bound:.0f}%)"
            )
    return {"metrics": rows, "problems": problems}


def run_perfbench(tree, workload):
    """Run this checkout's perfbench on the program in *tree*; returns
    the JSON result it prints last."""
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(SECONDS), "--trace", "0",
    ]
    completed = subprocess.run(
        command, cwd=tree, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def render(report):
    lines = []
    for workload, entry in report["workloads"].items():
        lines.append(f"{workload}:")
        for name, row in entry["metrics"].items():
            lines.append(
                f"  {name:<12} {row['base']:>10.4g} -> {row['head']:>10.4g} "
                f"{row['unit']:<4} worse by {100 * row['worse_by']:+6.1f}% "
                f"(bound {100 * row['bound']:.0f}%)"
                f"{'' if row['ok'] else '  FAIL'}"
            )
        lines.extend(f"  FAIL {problem}" for problem in entry["problems"])
    return "\n".join(lines)


def main(argv):
    if len(argv) != 1:
        print("usage: python tools/perf_gate.py BASE_REF", file=sys.stderr)
        return 2
    base_ref = argv[0]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = Path(tempfile.mkdtemp(prefix="perf-gate-"))
    base_tree = scratch / "base"
    subprocess.run(
        ["git", "-C", str(ROOT), "worktree", "add", "--detach",
         str(base_tree), base_ref],
        check=True, stdout=subprocess.DEVNULL,
    )
    report = {"base_ref": base_ref, "seed": SEED, "seconds": SECONDS,
              "pairs": PAIRS, "workloads": {}}
    try:
        for index, workload in enumerate(
            entry["name"] for entry in benchmark["workloads"]
        ):
            results = {"base": [], "head": []}
            order, crashed = [], []
            for pair in range(PAIRS):
                sides = [("base", base_tree), ("head", ROOT)]
                if (index + pair) % 2:
                    sides.reverse()
                for side, tree in sides:
                    print(f"perf-gate: {workload} on {side}", file=sys.stderr)
                    order.append(side)
                    try:
                        results[side].append(run_perfbench(tree, workload))
                    except subprocess.CalledProcessError as exc:
                        crashed.append(f"perfbench failed on {side} "
                                       f"(exit {exc.returncode})")
            if crashed:
                entry = {"metrics": {}, "problems": crashed}
            else:
                entry = compare(
                    benchmark["end_to_end"],
                    pooled(results["base"]), pooled(results["head"]),
                )
            entry["order"] = order
            entry["results"] = results
            report["workloads"][workload] = entry
    finally:
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "remove", "--force",
             str(base_tree)],
            check=False,
        )
        shutil.rmtree(scratch, ignore_errors=True)
    passed = not any(
        entry["problems"] for entry in report["workloads"].values()
    )
    report["passed"] = passed
    (ROOT / "perf-gate.json").write_text(json.dumps(report, indent=2) + "\n")
    print(render(report))
    print(f"perf-gate: {'pass' if passed else 'FAIL'} against {base_ref}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
