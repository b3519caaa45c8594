"""Vectorized program verification over codegen templates.

The reference verifier (:mod:`repro.codegen.verifier`) replays every
emitted op against dict/set state — O(total ops) per program.  For a
template-compiled program the same replay collapses: visits of one
cluster differ only in their iteration window, and rounds repeat a
fixed cluster sequence, so the whole-program verdict is decided by

* a CM-capacity check per cluster template (every visit refills its
  block with its own cluster's contexts), plus
* an FB-set replay of **three sampled rounds** — the first (iteration
  0 is special: invariant operands read instance 0, which only round
  0's windows produce), one steady-state round, and the last (its
  window may be partial) — with per-object presence and external-store
  timelines held as NumPy bitmask arrays advanced template-by-template
  instead of op-by-op.

Every middle round is bitwise-identical in shape and state to the
sampled steady round (windows are disjoint, FB sets drain at round
end, and the external-store timeline a round queries is written either
by round 0 or within the round itself), so the sampled verdict equals
the full replay's — the batched per-kernel membership checks are exact
because presence bits are only ever added mid-visit, never removed.

The fast path only decides *clean or not*.  A clean program returns no
violations, byte-identical to the reference by construction; any
detected (or structurally unprovable) condition falls back to the
reference replay, which produces the identical ordered
:class:`ProgramViolation` list and first-violation error payloads.
The reference therefore remains the oracle — ``progequiv`` fuzz
campaigns and the golden equivalence suite hold the two together.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

import numpy as np

from repro.codegen.program import Program
from repro.codegen.templated import ClusterTemplate, TemplateVisits

__all__ = ["fast_violation_free"]


def fast_violation_free(program: Program) -> bool:
    """True when *program* is template-compiled and provably free of
    violations; False means "use the reference replay" (the program is
    either not templated, or has at least one violation)."""
    visits = program.visits
    if not isinstance(visits, TemplateVisits):
        return False
    templates = visits.templates
    schedule = program.schedule
    application = schedule.application
    total = application.total_iterations
    n_clusters = len(templates)
    count = len(visits)
    if count == 0 or n_clusters == 0:
        return False

    if not _context_state_clean(schedule, templates):
        return False
    if not _final_store_totals_clean(application, templates):
        return False

    dataflow = schedule.dataflow
    kernel_inputs: Dict[str, Tuple[Tuple[str, bool], ...]] = {
        kernel.name: tuple(
            (in_name, dataflow[in_name].invariant)
            for in_name in kernel.inputs
        )
        for kernel in application.kernels
    }
    kernel_outputs = {
        kernel.name: kernel.outputs for kernel in application.kernels
    }
    external_names = set(application.external_inputs())
    keeps_by_name = {keep.name: keep for keep in schedule.keeps}
    survivors_memo: Dict[Tuple[int, int], FrozenSet[str]] = {}

    # Rounds 0, one steady-state round, and the last round decide the
    # FB verdict for every round (module docstring).
    rounds = schedule.rounds
    sampled = sorted({0, min(1, rounds - 1), rounds - 1})
    stored: Dict[str, np.ndarray] = {}
    for round_index in sampled:
        start = round_index * schedule.rf
        stop = start + schedule.iterations_in_round(round_index)
        if not _replay_round(
            templates, start, stop, total, stored,
            kernel_inputs, kernel_outputs, external_names,
            keeps_by_name, survivors_memo, application, schedule,
        ):
            return False
    return True


def _context_state_clean(
    schedule, templates: Tuple[ClusterTemplate, ...]
) -> bool:
    """CM capacity: every visit refills its block with its cluster's
    contexts, so each template's refill must fit the block (with no
    recorded capacity the reference bound is the largest refill)."""
    capacity = schedule.context_block_words
    return not capacity or all(
        template.context_total <= capacity for template in templates
    )


def _final_store_totals_clean(
    application, templates: Tuple[ClusterTemplate, ...]
) -> bool:
    """Every final output must be stored exactly once per iteration.
    Templates store their full window every round, so the per-iteration
    count is simply the number of store entries naming the object."""
    store_counts: Dict[str, int] = {}
    for template in templates:
        for name, _words in template.stores:
            store_counts[name] = store_counts.get(name, 0) + 1
    return all(
        store_counts.get(name, 0) == 1
        for name in application.final_outputs
    )


def _replay_round(
    templates: Tuple[ClusterTemplate, ...],
    start: int,
    stop: int,
    total: int,
    stored: Dict[str, np.ndarray],
    kernel_inputs: Dict[str, Tuple[Tuple[str, bool], ...]],
    kernel_outputs: Dict[str, Tuple[str, ...]],
    external_names: Set[str],
    keeps_by_name: Dict[str, object],
    survivors_memo: Dict[Tuple[int, int], FrozenSet[str]],
    application,
    schedule,
) -> bool:
    """Replay one round's visits at template granularity.  Returns
    False on the first condition the reference would flag."""
    present: List[Dict[str, np.ndarray]] = [{}, {}]
    for template in templates:
        fb_set = template.fb_set
        in_set = present[fb_set]

        # Data loads: redundant-load and load-of-never-stored checks.
        for name, _words, fixed in template.loads:
            # ``fixed`` is the template's invariant marker: truthy
            # ``(0,)`` pins the object to instance 0.
            lo, hi = (0, 1) if fixed else (start, stop)
            arr = in_set.get(name)
            if arr is not None and arr[lo:hi].any():
                return False
            if name not in external_names:
                timeline = stored.get(name)
                if timeline is None or not timeline[lo:hi].all():
                    return False
            if arr is None:
                arr = in_set[name] = np.zeros(total, dtype=bool)
            arr[lo:hi] = True

        # Compute: operand presence.  Presence bits are only added
        # during a visit, so checking a kernel's whole window before
        # publishing its outputs matches the reference's per-iteration
        # interleaving exactly (a kernel can never satisfy its own
        # window mid-flight).
        for kernel, _cycles in template.compute:
            for in_name, invariant in kernel_inputs[kernel]:
                lo, hi = (0, 1) if invariant else (start, stop)
                arr = in_set.get(in_name)
                if arr is not None and arr[lo:hi].all():
                    continue
                keep = keeps_by_name.get(in_name)
                if keep is None or keep.fb_set == fb_set:
                    return False
                other = present[keep.fb_set].get(in_name)
                if other is None:
                    return False
                if arr is None:
                    if not other[lo:hi].all():
                        return False
                elif not (arr[lo:hi] | other[lo:hi]).all():
                    return False
            for out_name in kernel_outputs[kernel]:
                arr = in_set.get(out_name)
                if arr is None:
                    arr = in_set[out_name] = np.zeros(total, dtype=bool)
                arr[start:stop] = True

        # Stores: presence and external-data checks, then publish to
        # the store timeline later loads consult.
        for name, _words in template.stores:
            arr = in_set.get(name)
            if arr is None or not arr[start:stop].all():
                return False
            if application.producer_of(name) is None:
                return False
            timeline = stored.get(name)
            if timeline is None:
                timeline = stored[name] = np.zeros(total, dtype=bool)
            timeline[start:stop] = True

        # Visit end: only kept survivors stay resident.
        memo_key = (template.cluster_index, fb_set)
        survivors = survivors_memo.get(memo_key)
        if survivors is None:
            survivors = schedule.survivors(template.cluster_index, fb_set)
            survivors_memo[memo_key] = survivors
        present[fb_set] = {
            name: arr for name, arr in in_set.items() if name in survivors
        }
    return True
