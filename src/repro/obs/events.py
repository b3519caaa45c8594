"""Structured decision traces for the schedulers and the allocator.

A :class:`DecisionTrace` is an append-only log of :class:`Decision`
records.  Producers (the data schedulers, the occupancy engine, the
frame-buffer allocator) record *why* they did what they did — every
TF-ranked retention candidate with its accept/reject verdict and the
occupancy numbers behind it, the line that bounds the common RF, every
placement and fallback of the allocator.  Consumers query it:

    >>> schedule.decisions.why("R1")          # doctest: +SKIP
    [tf.rank R1 ..., keep.accept R1 ...]
    >>> schedule.decisions.explain("R1")      # doctest: +SKIP
    'keep.accept R1: fits every cluster of set0 ...'

Recording is opt-in (``ScheduleOptions(decision_trace=True)``,
``FrameBufferAllocator(decisions=...)``); with no trace attached the
producers pay a single ``is None`` check per decision point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

__all__ = ["Decision", "DecisionTrace", "DECISION_KINDS"]

#: Every decision kind a conforming producer may record.  The schema is
#: documented in ``docs/observability.md``; tests assert producers stay
#: inside it.
DECISION_KINDS = (
    # Complete Data Scheduler keep selection
    "tf.rank",        # candidate ranked by time factor
    "keep.accept",    # candidate kept (DS(C_c) <= FBS everywhere)
    "keep.reject",    # candidate dropped, with the violating clusters
    # reuse-factor search (all schedulers that fission)
    "rf.bound",       # the cluster line (or cap) that bounds the common RF
    "rf.result",      # the chosen common RF
    "rf.joint",       # one (rf, simulated cycles) point of rf_policy="joint"
    # frame-buffer allocator (paper Figure 4)
    "alloc.place",    # an instance placed (extents, direction, regularity)
    "alloc.fallback", # iteration-adjacent placement failed, fell back
    "alloc.split",    # no single free block fitted; split placement
    "alloc.free",     # an instance released back to the free list
)


@dataclass(frozen=True)
class Decision:
    """One recorded decision.

    Attributes:
        seq: position in the trace (0-based, gap-free).
        kind: one of :data:`DECISION_KINDS`.
        subject: the object/cluster the decision is about (``""`` for
            global decisions such as the RF bound).
        detail: the numbers behind the decision — occupancies, sizes,
            limits, reasons.  Plain JSON-serialisable values only.
    """

    seq: int
    kind: str
    subject: str
    detail: Mapping[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """Single-line human-readable rendering."""
        parts = [f"[{self.seq}] {self.kind}"]
        if self.subject:
            parts.append(self.subject)
        if self.detail:
            inner = ", ".join(
                f"{key}={value!r}" for key, value in self.detail.items()
            )
            parts.append(f"({inner})")
        return " ".join(parts)


class DecisionTrace:
    """Append-only decision log with name-indexed queries."""

    def __init__(self) -> None:
        self._events: List[Decision] = []
        self._by_subject: Dict[str, List[Decision]] = {}

    # -- recording ------------------------------------------------------

    def record(self, kind: str, subject: str = "", **detail: Any) -> Decision:
        """Append one decision and return it."""
        if kind not in DECISION_KINDS:
            raise ValueError(f"unknown decision kind {kind!r}")
        decision = Decision(
            seq=len(self._events), kind=kind, subject=subject, detail=detail
        )
        self._events.append(decision)
        if subject:
            self._by_subject.setdefault(subject, []).append(decision)
        return decision

    # -- queries --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Decision]:
        return iter(self._events)

    @property
    def events(self) -> Tuple[Decision, ...]:
        return tuple(self._events)

    def of_kind(self, *kinds: str) -> List[Decision]:
        """All decisions of the given kind(s), in order."""
        return [event for event in self._events if event.kind in kinds]

    def why(self, subject: str) -> List[Decision]:
        """Every decision about one object, in order.

        The primary query: "why is (or isn't) this object kept, and
        where did it land?" — TF rank, accept/reject with occupancy
        numbers, allocator placements.
        """
        return list(self._by_subject.get(subject, ()))

    def explain(self, subject: str) -> str:
        """The :meth:`why` answer as a readable multi-line string."""
        decisions = self.why(subject)
        if not decisions:
            return f"no recorded decision mentions {subject!r}"
        return "\n".join(decision.describe() for decision in decisions)

    def accepted_keeps(self) -> List[Decision]:
        """The keep.accept decisions, in acceptance order."""
        return self.of_kind("keep.accept")

    def rejected_keeps(self) -> List[Decision]:
        """The keep.reject decisions, in consideration order."""
        return self.of_kind("keep.reject")

    def render(self, kinds: Optional[Iterable[str]] = None) -> str:
        """The whole trace (or a kind-filtered view) as text."""
        wanted = set(kinds) if kinds is not None else None
        lines = [
            event.describe()
            for event in self._events
            if wanted is None or event.kind in wanted
        ]
        return "\n".join(lines) if lines else "(empty decision trace)"

    def to_dicts(self) -> List[Dict[str, Any]]:
        """JSON-ready form of the whole trace."""
        return [
            {
                "seq": event.seq,
                "kind": event.kind,
                "subject": event.subject,
                "detail": dict(event.detail),
            }
            for event in self._events
        ]
