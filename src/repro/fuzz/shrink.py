"""Greedy shrinking of failing fuzz cases to minimal reproducers.

When an oracle fails, the raw generated case is usually far larger than
the bug needs.  :func:`shrink_case` repeatedly applies structural
reductions — drop a cluster, drop a kernel (rewiring its neighbours),
halve the iteration count, halve every object size, drop an external
input — and keeps a reduction iff the candidate still *builds as a
valid application* and still fails the **same oracle**.  The loop runs
to a fixpoint (or an attempt budget) and returns the smallest case
found, which is what gets persisted under ``tests/corpus/``.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from repro.errors import ReproError
from repro.fuzz.case import FuzzCase
from repro.fuzz.oracles import run_oracles

__all__ = ["shrink_case"]


def _clone(case: FuzzCase) -> FuzzCase:
    return FuzzCase.from_dict(case.to_dict())


def _normalise(case: FuzzCase) -> Optional[FuzzCase]:
    """Repair a structurally reduced case, or ``None`` if unrepairable.

    After dropping kernels the object graph needs rewiring: outputs of
    removed producers that are still consumed become external inputs
    (they simply stay declared without a producer), unreferenced
    objects are deleted, finals must still be produced, and every
    cluster must keep at least one kernel.
    """
    kernel_names = {kernel["name"] for kernel in case.kernels}
    groups = [
        [name for name in group if name in kernel_names]
        for group in case.groups
    ]
    kept = [index for index, group in enumerate(groups) if group]
    if not kept:
        return None
    case.groups = [groups[index] for index in kept]
    if case.fb_sets is not None:
        case.fb_sets = [case.fb_sets[index] for index in kept]
    grouped = {name for group in case.groups for name in group}
    case.kernels = [k for k in case.kernels if k["name"] in grouped]

    referenced = set()
    produced = set()
    for kernel in case.kernels:
        referenced.update(kernel["inputs"])
        referenced.update(kernel["outputs"])
        produced.update(kernel["outputs"])
    case.objects = {
        name: spec for name, spec in case.objects.items()
        if name in referenced
    }
    if set(case.objects) != referenced:
        return None  # a kernel references an object we no longer know
    # Objects that lost their producer are now external inputs; external
    # objects must not be marked final, and at least one final remains.
    case.finals = [name for name in case.finals if name in produced]
    if not case.finals:
        return None
    # An output produced twice (should not happen) or consumed before
    # produced is rejected by Application validation in build().
    return case


def _reductions(case: FuzzCase) -> Iterator[FuzzCase]:
    """Candidate reductions, most aggressive first."""
    # Drop a whole cluster.
    for index in range(len(case.groups)):
        candidate = _clone(case)
        dropped = set(candidate.groups[index])
        candidate.groups = [
            group for i, group in enumerate(candidate.groups) if i != index
        ]
        if candidate.fb_sets is not None:
            candidate.fb_sets = [
                fb for i, fb in enumerate(case.fb_sets) if i != index
            ]
        candidate.kernels = [
            kernel for kernel in candidate.kernels
            if kernel["name"] not in dropped
        ]
        yield candidate
    # Drop a single kernel.
    for index in range(len(case.kernels)):
        candidate = _clone(case)
        del candidate.kernels[index]
        yield candidate
    # Halve the iteration count.
    if case.total_iterations > 1:
        candidate = _clone(case)
        candidate.total_iterations = max(case.total_iterations // 2, 1)
        yield candidate
        candidate = _clone(case)
        candidate.total_iterations = case.total_iterations - 1
        yield candidate
    # Halve every object size.
    if any(spec["size"] > 1 for spec in case.objects.values()):
        candidate = _clone(case)
        for spec in candidate.objects.values():
            spec["size"] = max(spec["size"] // 2, 1)
        yield candidate
    # Drop one external input edge (keep at least one input per kernel).
    produced = {
        name for kernel in case.kernels for name in kernel["outputs"]
    }
    for kernel_index, kernel in enumerate(case.kernels):
        for input_name in kernel["inputs"]:
            if input_name in produced or len(kernel["inputs"]) <= 1:
                continue
            candidate = _clone(case)
            candidate.kernels[kernel_index]["inputs"] = [
                name for name in kernel["inputs"] if name != input_name
            ]
            yield candidate


def _still_fails(candidate: FuzzCase, oracle: str,
                 check: Callable[[FuzzCase], List]) -> bool:
    try:
        candidate.build()
    except Exception:
        return False
    # A reduction can yield a case that builds but that the pipeline
    # rejects (e.g. a result left without a consumer); it does not
    # reproduce the finding.
    try:
        failures = check(candidate)
    except ReproError:
        return False
    return any(failure.oracle == oracle for failure in failures)


def shrink_case(
    case: FuzzCase,
    oracle: str,
    *,
    max_attempts: int = 200,
    check: Optional[Callable[[FuzzCase], List]] = None,
) -> FuzzCase:
    """Shrink *case* while oracle *oracle* keeps failing.

    Args:
        case: the failing case (left unmodified).
        oracle: oracle name the reproducer must keep violating.
        max_attempts: budget of candidate evaluations.
        check: override for :func:`~repro.fuzz.oracles.run_oracles`
            (tests inject synthetic predicates here).

    Returns:
        The smallest still-failing case found; records the oracle in
        ``failing_oracle``.  If no reduction applies, a copy of the
        original is returned.
    """
    if check is None:
        def check(candidate):
            return run_oracles(candidate, oracles=(oracle,))
    current = _clone(case)
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for candidate in _reductions(current):
            if attempts >= max_attempts:
                break
            repaired = _normalise(candidate)
            if repaired is None or repaired.weight >= current.weight:
                continue
            attempts += 1
            if _still_fails(repaired, oracle, check):
                current = repaired
                progress = True
                break  # restart the reduction scan from the smaller case
    current.failing_oracle = oracle
    return current
