"""Static verification of generated programs.

The verifier replays a program symbolically, tracking frame-buffer-set
contents and context-memory residency across visits, and rejects any
program that:

* launches a kernel whose contexts are not in the visit's CM block, or
  overflows a CM block;
* launches a kernel before one of its input instances is present in
  the executing FB set (use-before-load — the bug class retention
  decisions could introduce);
* stores an instance that is not present, or was never produced;
* fails to store some final output instance, or stores one twice;
* skips or duplicates an iteration of any kernel.

Two entry points share one replay:

* :func:`verify_program` raises :class:`ProgramVerificationError` on
  the **first** violation (the historical contract — callers gate on
  it before simulation);
* :func:`collect_program_violations` replays the whole program and
  returns every violation as a structured :class:`ProgramViolation`,
  which the lint framework (:mod:`repro.lint`) converts into
  diagnostics with rule codes ``PROG001``-``PROG006``.

A program that passes the verifier is guaranteed to be *functionally*
executable; the simulator then adds timing (and, in functional mode,
actually computes values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Mapping, Set, Tuple

from repro.codegen.program import Program
from repro.errors import ProgramVerificationError

__all__ = [
    "ProgramViolation",
    "verify_program",
    "collect_program_violations",
    "iter_program_violations",
]


@dataclass(frozen=True)
class ProgramViolation:
    """One invariant violation found while replaying a program.

    Attributes:
        code: lint rule code (``PROG001``-``PROG006``, see
            ``docs/lint_rules.md``).
        message: human-readable description (identical wording to the
            historical :class:`ProgramVerificationError` messages).
        location: where in the program, e.g. ``"visit 7"``.
        cost_words: words of traffic or capacity implicated.
        details: JSON-safe extra facts.
    """

    code: str
    message: str
    location: str
    cost_words: int = 0
    details: Mapping[str, object] = field(default_factory=dict)


def verify_program(program: Program) -> None:
    """Raise :class:`ProgramVerificationError` on the first violation.

    Template-compiled programs take the template-level clean-check
    first (:mod:`repro.codegen.fastverify`, a replay of three sampled
    rounds on integer bitmasks); anything it cannot prove clean
    falls back to the reference replay, so raised payloads are always
    the reference's.
    """
    from repro.codegen.fastverify import fast_violation_free

    if fast_violation_free(program):
        return
    for violation in iter_program_violations(program):
        raise ProgramVerificationError(violation.message)


def collect_program_violations(program: Program) -> List[ProgramViolation]:
    """Replay the whole program and return every violation found.

    Unlike :func:`verify_program` the replay continues past a violation
    (assuming the intended state where possible), so one broken visit
    does not hide later, independent bugs.  Template-compiled programs
    short-circuit through the template-level clean-check; the violation
    list itself always comes from the reference replay.
    """
    from repro.codegen.fastverify import fast_violation_free

    if fast_violation_free(program):
        return []
    return list(iter_program_violations(program))


def iter_program_violations(program: Program) -> Iterator[ProgramViolation]:
    """Lazily yield violations in replay order."""
    schedule = program.schedule
    application = schedule.application
    clustering = schedule.clustering
    total_iterations = application.total_iterations

    # Instances present per FB set, bucketed by object name so the
    # visit-end survivor filter is O(names), not O(instances).
    present: List[Dict[str, Set[int]]] = [{}, {}]
    stored: Dict[Tuple[str, int], int] = {}
    runs: Dict[Tuple[str, int], int] = {}
    cm_block_words = [0, 0]
    cm_block_kernels: List[Set[str]] = [set(), set()]
    block_capacity = program.cm_block_capacity
    external_names = set(application.external_inputs())
    keeps_by_name = {keep.name: keep for keep in schedule.keeps}
    # Replay-invariant lookups, precomputed: each kernel's inputs with
    # their invariant flag (invariant operands always read instance 0),
    # and the kept survivors per (cluster, FB set).
    kernel_inputs: Dict[str, Tuple[Tuple[str, bool], ...]] = {
        kernel.name: tuple(
            (in_name, schedule.dataflow[in_name].invariant)
            for in_name in kernel.inputs
        )
        for kernel in application.kernels
    }
    kernel_by_name = {kernel.name: kernel for kernel in application.kernels}
    survivors_memo: Dict[Tuple[int, int], FrozenSet[str]] = {}

    for ops in program.visits:
        visit = ops.visit
        location = f"visit {visit.index}"
        cluster = clustering[visit.cluster_index]
        if cluster.fb_set != visit.fb_set:
            yield ProgramViolation(
                "PROG006",
                f"visit {visit.index}: cluster {cluster.name} is on set "
                f"{cluster.fb_set}, visit claims set {visit.fb_set}",
                location,
                details={"cluster": cluster.name},
            )

        # Context loads: the visit's block is evicted and refilled.
        # A visit without context loads relies on block residency from
        # an earlier visit.
        block = visit.cm_block
        if ops.context_loads:
            cm_block_words[block] = 0
            cm_block_kernels[block] = set()
        for load in ops.context_loads:
            cm_block_words[block] += load.words
            if cm_block_words[block] > block_capacity:
                yield ProgramViolation(
                    "PROG002",
                    f"visit {visit.index}: CM block {block} overflows "
                    f"({cm_block_words[block]} > {block_capacity} words)",
                    location,
                    cost_words=cm_block_words[block] - block_capacity,
                    details={"cm_block": block},
                )
            cm_block_kernels[block].add(load.kernel)

        # Data loads.  The generator emits a run of instances per
        # object, so the bucket and external flag of the previous load
        # usually carry over.
        in_set = present[visit.fb_set]
        prev_name = None
        bucket = None
        external = False
        for load in ops.data_loads:
            if load.name != prev_name:
                prev_name = load.name
                bucket = in_set.get(load.name)
                if bucket is None:
                    bucket = in_set[load.name] = set()
                external = load.name in external_names
            if load.iteration in bucket:
                yield ProgramViolation(
                    "PROG005",
                    f"visit {visit.index}: redundant load of "
                    f"{load.name}#{load.iteration} (already in set"
                    f"{visit.fb_set})",
                    location,
                    cost_words=load.words,
                    details={"object": load.name,
                             "iteration": load.iteration},
                )
            if not external and (load.name, load.iteration) not in stored:
                yield ProgramViolation(
                    "PROG005",
                    f"visit {visit.index}: load of result "
                    f"{load.name}#{load.iteration} which was never stored "
                    f"to external memory",
                    location,
                    cost_words=load.words,
                    details={"object": load.name,
                             "iteration": load.iteration},
                )
            bucket.add(load.iteration)

        # Compute.
        for run in ops.compute:
            kernel = kernel_by_name[run.kernel]
            if run.kernel not in cm_block_kernels[block]:
                yield ProgramViolation(
                    "PROG002",
                    f"visit {visit.index}: kernel {run.kernel!r} launched "
                    f"without contexts in CM block {block}",
                    location,
                    details={"kernel": run.kernel, "cm_block": block},
                )
            for in_name, invariant in kernel_inputs[run.kernel]:
                instance = 0 if invariant else run.iteration
                bucket = in_set.get(in_name)
                if bucket is not None and instance in bucket:
                    continue
                # Cross-set retention: a kept operand may live in the
                # other set (requires fb_cross_set_access).
                keep = keeps_by_name.get(in_name)
                if keep is not None and keep.fb_set != visit.fb_set:
                    other = present[keep.fb_set].get(in_name)
                    if other is not None and instance in other:
                        continue
                yield ProgramViolation(
                    "PROG001",
                    f"visit {visit.index}: kernel {run.kernel!r} "
                    f"iteration {run.iteration} reads "
                    f"{in_name}#{instance} which is not in set"
                    f"{visit.fb_set}",
                    location,
                    cost_words=schedule.dataflow[in_name].size
                    if in_name in schedule.dataflow else 0,
                    details={"kernel": run.kernel, "object": in_name,
                             "iteration": run.iteration},
                )
            for out_name in kernel.outputs:
                bucket = in_set.get(out_name)
                if bucket is None:
                    bucket = in_set[out_name] = set()
                bucket.add(run.iteration)
            run_key = (run.kernel, run.iteration)
            runs[run_key] = runs.get(run_key, 0) + 1

        # Stores.
        for store in ops.stores:
            key = (store.name, store.iteration)
            bucket = in_set.get(store.name)
            if bucket is None or store.iteration not in bucket:
                yield ProgramViolation(
                    "PROG003",
                    f"visit {visit.index}: store of "
                    f"{store.name}#{store.iteration} which is not in set"
                    f"{visit.fb_set}",
                    location,
                    cost_words=store.words,
                    details={"object": store.name,
                             "iteration": store.iteration},
                )
            if application.producer_of(store.name) is None:
                yield ProgramViolation(
                    "PROG003",
                    f"visit {visit.index}: store of external data "
                    f"{store.name!r}",
                    location,
                    cost_words=store.words,
                    details={"object": store.name},
                )
            stored[key] = stored.get(key, 0) + 1

        # Visit end: release everything except surviving kept items.
        memo_key = (visit.cluster_index, visit.fb_set)
        survivors = survivors_memo.get(memo_key)
        if survivors is None:
            survivors = schedule.survivors(visit.cluster_index, visit.fb_set)
            survivors_memo[memo_key] = survivors
        present[visit.fb_set] = {
            name: bucket
            for name, bucket in in_set.items()
            if name in survivors
        }
        # Round end on the last cluster: both sets drain completely.
        if visit.cluster_index == len(clustering) - 1:
            present = [{}, {}]

    yield from _check_totals(application, total_iterations, runs, stored)


def _check_totals(
    application, total_iterations, runs, stored
) -> Iterator[ProgramViolation]:
    for kernel in application.kernels:
        for iteration in range(total_iterations):
            count = runs.get((kernel.name, iteration), 0)
            if count != 1:
                yield ProgramViolation(
                    "PROG004",
                    f"kernel {kernel.name!r} iteration {iteration} executed "
                    f"{count} times (expected once)",
                    "program",
                    details={"kernel": kernel.name, "iteration": iteration,
                             "count": count},
                )
    for name in application.final_outputs:
        size = application.objects[name].size if name in application.objects else 0
        for iteration in range(total_iterations):
            count = stored.get((name, iteration), 0)
            if count != 1:
                yield ProgramViolation(
                    "PROG004",
                    f"final output {name!r} iteration {iteration} stored "
                    f"{count} times (expected once)",
                    "program",
                    cost_words=size * abs(count - 1),
                    details={"object": name, "iteration": iteration,
                             "count": count},
                )
