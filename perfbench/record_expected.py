"""Record the expected outputs the benchmark checks its ops against.

Run from the repository root when a change is meant to alter pipeline
results::

    PYTHONPATH=src python3 perfbench/record_expected.py [corpus_cold] [paper_run]

``corpus_cold`` runs every seed of the pool (a few minutes).  Besides
each seed's outcome it stores the pool ordered by each seed's op time
while recording (rescaled to the reference speed of speed.py, so a slow
spell of the machine does not reorder it); a run splits that order into
cost strata and takes one seed from every stratum in turn, so every run
holds the same mix of small and large workloads.
"""

from __future__ import annotations

import gc
import json
import sys
import time

from speed import SpeedMeter
from workload import (
    CORPUS_ARGS,
    CORPUS_POOL,
    EXPECTED_DIR,
    REFERENCE_SHARE,
    corpus_outcome,
    paper_outcome,
)


def record_corpus():
    import repro.lint  # noqa: F401  (keeps its import out of seed 0's time)
    from repro.analysis.corpus import corpus_study

    meter = SpeedMeter()
    outcomes, timings = [], []
    for seed in range(CORPUS_POOL):
        # A collection pause lands on whichever seed happens to trigger
        # it; with the collector off during each seed, the collections
        # it owes run between seeds, outside the costs.
        gc.disable()
        began = time.perf_counter()
        outcomes.append(corpus_outcome(corpus_study([seed], **CORPUS_ARGS)))
        took = time.perf_counter() - began
        gc.enable()
        timings.append((began + took / 2, took))
        meter.sample(REFERENCE_SHARE * took)
    costs = [meter.scale(took, at) for at, took in timings]
    by_cost = sorted(range(CORPUS_POOL), key=costs.__getitem__)
    rows = ",\n".join(json.dumps(row) for row in outcomes)
    return f'{{"by_cost": {json.dumps(by_cost)},\n"outcomes": [\n{rows}\n]}}\n'


def record_paper():
    from repro.analysis.compare import compare_experiment
    from repro.workloads.spec import paper_experiments

    outcomes = {
        spec.id: paper_outcome(compare_experiment(spec))
        for spec in paper_experiments()
    }
    return json.dumps(outcomes, indent=1, sort_keys=True) + "\n"


RECORDERS = {"corpus_cold": record_corpus, "paper_run": record_paper}


def main(names):
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names or sorted(RECORDERS):
        (EXPECTED_DIR / f"{name}.json").write_text(RECORDERS[name]())


if __name__ == "__main__":
    main(sys.argv[1:])
