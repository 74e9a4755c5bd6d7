"""Shared vocabulary for trace-stream checkers.

The :mod:`repro.obs` tracer sanitizes every event to JSON primitives:
transaction ids become ``"T5"`` / ``"T5/r3"``, object ids ``"O3"``,
node ids ``"N0"``.  The checkers in this package consume either live
:class:`~repro.obs.tracer.TraceEvent` objects or the dicts round-tripped
through JSONL, so this module provides the tiny parsing layer both
representations share, plus the :class:`Violation` record every checker
emits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

MODE_READ = "R"
MODE_WRITE = "W"


def modes_conflict(left: str, right: str) -> bool:
    """Multiple readers / single writer, on *plain* sanitized mode
    strings.  Semantic modes (``"W+Class.method"``) need a
    :class:`SemanticConflicts` relation — this helper treats them as
    opaque non-``"W"`` strings and would under-report conflicts."""
    return left == MODE_WRITE or right == MODE_WRITE


def split_mode(mode: str):
    """``"W+Account.deposit"`` -> ``("W", "Account.deposit")``;
    a plain ``"R"``/``"W"`` yields ``(mode, None)``."""
    base, sep, tag = mode.partition("+")
    return base, (tag if sep else None)


def base_mode(mode: str) -> str:
    """The plain R/W lattice element under a sanitized mode string."""
    return split_mode(mode)[0]


def strongest_mode(left: str, right: str) -> str:
    return MODE_WRITE if MODE_WRITE in (left, right) else MODE_READ


def join_mode_strings(left: str, right: str) -> str:
    """Mode a holder records after a re-entrant grant (mirrors
    ``repro.gdo.entry._join``): equal modes keep their identity —
    including a semantic tag — anything else collapses to the plain
    base join."""
    if left == right:
        return left
    if base_mode(left) == MODE_WRITE or base_mode(right) == MODE_WRITE:
        return MODE_WRITE
    return MODE_READ


class SemanticConflicts:
    """Conflict relation over sanitized mode strings.

    Rebuilt from the honest ``lock.commtable`` trace artifacts the
    cluster emits at table registration — *not* from the production
    lock manager's in-memory tables, which a test mutation may have
    corrupted.  Two semantic modes of the same class commute iff the
    artifact lists their method pair; every other combination falls
    back to the plain single-writer rule on the base modes.
    """

    def __init__(self) -> None:
        self._commutes: Dict[str, frozenset] = {}

    def add_table(self, payload: Dict) -> None:
        name = payload.get("class")
        if not name:
            return
        pairs = set()
        for left, right in payload.get("commutes", ()):
            pairs.add((left, right))
            pairs.add((right, left))
        self._commutes[name] = frozenset(pairs)

    @classmethod
    def from_events(cls, events) -> "SemanticConflicts":
        """Pre-scan a trace stream for every ``lock.commtable`` event."""
        relation = cls()
        for event in event_dicts(events):
            if event.get("name") == "lock.commtable":
                relation.add_table(event.get("args", {}).get("table", {}))
        return relation

    def conflict(self, left: str, right: str) -> bool:
        left_base, left_tag = split_mode(left)
        right_base, right_tag = split_mode(right)
        if left_tag is not None and right_tag is not None:
            left_cls, _, left_method = left_tag.partition(".")
            right_cls, _, right_method = right_tag.partition(".")
            if left_cls == right_cls and (
                (left_method, right_method) in self._commutes.get(
                    left_cls, ()
                )
            ):
                return False
        return left_base == MODE_WRITE or right_base == MODE_WRITE


@dataclass(frozen=True, order=True)
class TxnRef:
    """A sanitized transaction id: serial plus family root serial."""

    serial: int
    root: int

    @property
    def is_root(self) -> bool:
        return self.serial == self.root

    def __repr__(self) -> str:
        if self.is_root:
            return f"T{self.serial}"
        return f"T{self.serial}/r{self.root}"


def parse_txn(text: str) -> TxnRef:
    """Parse the sanitized ``repr`` of a TxnId (``T5`` or ``T5/r3``)."""
    body = text[1:]
    serial, _, root = body.partition("/r")
    return TxnRef(int(serial), int(root) if root else int(serial))


def parse_object(text: str) -> int:
    """Parse the sanitized ``repr`` of an ObjectId (``O3``)."""
    return int(text[1:])


class EventDicts(list):
    """A trace stream :func:`event_dicts` has already normalized.

    Handing one back to :func:`event_dicts` costs nothing, so a caller
    that normalizes once (:func:`repro.check.explorer.run_task`) can
    pass the same list to every checker, and the checkers' own
    normalization of it is free.
    """


def event_dicts(events: Iterable) -> List[Dict]:
    """Normalize a trace stream to plain dicts (JSONL-shaped).

    The dicts share their ``args`` with the recorded events (see
    :meth:`~repro.obs.tracer.TraceEvent.to_dict`): read them, never
    write them.
    """
    if isinstance(events, EventDicts):
        return events
    return EventDicts([
        event.to_dict() if hasattr(event, "to_dict") else event
        for event in events
    ])


@dataclass(frozen=True)
class Violation:
    """One protocol-rule or invariant breach found in a trace."""

    checker: str
    index: int          # position in the event stream
    ts: float           # virtual time of the offending event
    message: str

    def __str__(self) -> str:
        return (f"[{self.checker}] event #{self.index} @t={self.ts:.6f}: "
                f"{self.message}")


def lineage_of(args: Dict) -> Tuple[int, ...]:
    """Ancestor serials recorded on the event (parent first, root last)."""
    return tuple(args.get("lineage") or ())
