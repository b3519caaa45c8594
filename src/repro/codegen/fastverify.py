"""Template-level program verification over codegen templates.

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
  window may be partial) — advanced template-by-template instead of
  op-by-op.

The replay keeps each object's presence timeline (per FB set) and its
external-store timeline as one Python ``int``, bit ``i`` standing for
iteration ``i``.  A visit's iteration window is the mask ``((1 <<
(stop - start)) - 1) << start``, and an invariant operand's is bit 0.
"Every iteration present" is ``bits & mask == mask``, "any present" is
``bits & mask`` and publishing is ``bits | mask``: one integer
operation per template entry, whatever the window's width.

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
    n_clusters = len(templates)
    count = len(visits)
    if count == 0 or n_clusters == 0:
        return False

    if not _context_state_clean(schedule, templates):
        return False
    if not _final_store_totals_clean(application, templates):
        return False
    # Fixed-iteration loads are modelled as instance 0 (bit 0) only.
    if any(
        fixed and fixed != (0,)
        for template in templates for _, _, fixed in template.loads
    ):
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
    stored: Dict[str, int] = {}
    for round_index in sampled:
        start = round_index * schedule.rf
        stop = start + schedule.iterations_in_round(round_index)
        if not _replay_round(
            templates, start, stop, stored,
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
    stored: Dict[str, int],
    kernel_inputs: Dict[str, Tuple[Tuple[str, bool], ...]],
    kernel_outputs: Dict[str, Tuple[str, ...]],
    external_names: Set[str],
    keeps_by_name: Dict[str, object],
    survivors_memo: Dict[Tuple[int, int], FrozenSet[str]],
    application,
    schedule,
) -> bool:
    """Replay one round's visits at template granularity.  Returns
    False on the first condition the reference would flag.

    Timelines are ``int`` bitmasks, bit ``i`` for iteration ``i``: the
    round's window is the mask of bits ``start`` to ``stop - 1`` and an
    invariant object's window is bit 0 (instance 0)."""
    window = ((1 << (stop - start)) - 1) << start
    present: List[Dict[str, int]] = [{}, {}]
    for template in templates:
        fb_set = template.fb_set
        in_set = present[fb_set]

        # Data loads: redundant-load and load-of-never-stored checks.
        for name, _words, fixed in template.loads:
            # ``fixed`` is the template's invariant marker: truthy
            # ``(0,)`` pins the object to instance 0.
            mask = 1 if fixed else window
            bits = in_set.get(name, 0)
            if bits & mask:
                return False
            if (
                name not in external_names
                and stored.get(name, 0) & mask != mask
            ):
                return False
            in_set[name] = bits | mask

        # Compute: operand presence.  Presence bits are only added
        # during a visit, so checking a kernel's whole window before
        # publishing its outputs matches the reference's per-iteration
        # interleaving exactly (a kernel can never satisfy its own
        # window mid-flight).
        for kernel, _cycles in template.compute:
            for in_name, invariant in kernel_inputs[kernel]:
                mask = 1 if invariant else window
                bits = in_set.get(in_name, 0)
                if bits & mask == mask:
                    continue
                keep = keeps_by_name.get(in_name)
                if keep is None or keep.fb_set == fb_set:
                    return False
                other = present[keep.fb_set].get(in_name)
                if other is None or (bits | other) & mask != mask:
                    return False
            for out_name in kernel_outputs[kernel]:
                in_set[out_name] = in_set.get(out_name, 0) | window

        # Stores: presence and external-data checks, then publish to
        # the store timeline later loads consult.
        for name, _words in template.stores:
            if in_set.get(name, 0) & window != window:
                return False
            if application.producer_of(name) is None:
                return False
            stored[name] = stored.get(name, 0) | window

        # Visit end: only kept survivors stay resident.
        memo_key = (template.cluster_index, fb_set)
        survivors = survivors_memo.get(memo_key)
        if survivors is None:
            survivors = schedule.survivors(template.cluster_index, fb_set)
            survivors_memo[memo_key] = survivors
        present[fb_set] = {
            name: bits for name, bits in in_set.items() if name in survivors
        }
    return True
