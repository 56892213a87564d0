"""Structured event log: the fluentd-style JSONL stream.

Every telemetry signal — span completions, metric snapshots, chaos and
fault events, run lifecycle markers — flows through one
:class:`EventLog`, and the log keeps none of them.  :meth:`EventLog.emit`
counts every record (in total and per kind); only a log with a sink
builds one: it scrubs the payload once for the emitting role, wraps it
in a slotted :class:`TelemetryEvent` and hands it to the sink, which
writes it at once.  Nothing downstream — renderers, JSONL files, CI
artifacts — can see what the boundary removed, and a log without a
sink costs a counter per record however long the run.

There is one sink, :class:`JsonlSink`: it re-checks every record it is
handed against the redaction policy (the adversary's-eye audit) and
writes it to a text stream as one JSONL line — or to none, for a run
that is audited but writes no artifact.  The re-check of a written
record reads the line first: when no forbidden field name or prefix of
the record's role appears in it, the record is clean and the walk that
would prove it (a scrubbed copy of the whole record) is skipped.

The envelope keys ``time`` / ``seq`` / ``kind`` / ``role`` are reserved:
a payload may repeat one only with the envelope's own value, so a
reader filtering the artifact on ``kind`` sees what the per-kind counts
say.  The check is the same with a sink and without one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Dict, List, Mapping, Optional, TextIO

from repro.telemetry.redaction import DEFAULT_POLICY, RedactionPolicy, Violation, audit_events

__all__ = ["EventLog", "JsonlSink", "TelemetryEvent"]

_ENVELOPE_KEYS = frozenset({"time", "seq", "kind", "role"})

#: ``json.dumps(record, sort_keys=True, default=str)``, built once.
_encode = json.JSONEncoder(sort_keys=True, default=str).encode
#: The same without ``default``: it refuses a value JSON cannot spell, so
#: a line it writes shows every key and string of the record.
_encode_native = json.JSONEncoder(sort_keys=True).encode


@dataclass(slots=True)
class TelemetryEvent:
    """One structured record: who said what, when, in virtual time."""

    time: float
    kind: str  # "cspan" | "bspan" | "fault" | "run" | ...
    role: str  # emitting role: client/ua/ia/lrs/operator/unknown
    payload: Dict[str, Any]
    #: Per-run monotonic sequence number: many events share a virtual
    #: timestamp, so this is what makes same-seed artifact diffs (and
    #: any post-hoc sort) ordering-stable.
    seq: int = 0

    def to_dict(self) -> Dict[str, Any]:
        record = {"time": self.time, "seq": self.seq, "kind": self.kind, "role": self.role}
        record.update(self.payload)
        return record


class JsonlSink:
    """Re-checks each record handed to it and writes it to a text stream
    as one JSONL line.

    Every record is re-checked against the default redaction policy
    with the role it carries; what the check finds is in :attr:`leaks`,
    so a clean run has none.  Only records of *kinds*, when given, are
    written, and none when *stream* is ``None``.  A record it writes is
    walked only if its line may leak
    (:meth:`~repro.telemetry.redaction.RedactionPolicy.may_leak`); one
    it does not write, or whose values JSON cannot spell, is always
    walked.
    """

    __slots__ = ("stream", "kinds", "leaks")

    def __init__(
        self, stream: Optional[TextIO], kinds: Optional[Collection[str]] = None
    ) -> None:
        self.stream = stream
        self.kinds = kinds
        self.leaks: List[Violation] = []

    def write(self, event: TelemetryEvent) -> None:
        record = event.to_dict()
        if self.stream is None or (self.kinds is not None and event.kind not in self.kinds):
            self.leaks.extend(audit_events((record,)))
            return
        try:
            line: Optional[str] = _encode_native(record)
        except (TypeError, ValueError):
            line = None  # a value written through ``str``, or a cycle
        if line is None or DEFAULT_POLICY.may_leak(str(record.get("role", "unknown")), line):
            self.leaks.extend(audit_events((record,)))
        self.stream.write((_encode(record) if line is None else line) + "\n")


@dataclass
class EventLog:
    """Counts every record; builds and writes one only for its sink."""

    clock: Callable[[], float] = lambda: 0.0
    policy: RedactionPolicy = field(default_factory=lambda: DEFAULT_POLICY)
    #: Where built records go (:class:`JsonlSink`); ``None`` counts only.
    sink: Optional[Any] = None
    #: Boundary redactions made while building records for the sink.
    violations: List[Violation] = field(default_factory=list)
    #: kind -> records emitted, built or not.
    counts: Dict[str, int] = field(default_factory=dict)
    run_label: str = ""
    next_seq: int = 1

    def emit(self, kind: str, role: str, payload: Mapping[str, Any]) -> None:
        """Count one *kind* record; with a sink, scrub *payload* for
        *role* and hand the clean event to it.  A payload that would
        change the envelope is refused, uncounted, with ``ValueError``,
        sink or none."""
        if self.sink is None:
            self._check_envelope(kind, role, payload)
            self.count(kind)
            return
        clean, violations = self.policy.scrub(role, payload)
        self.violations.extend(violations)
        self._check_envelope(kind, role, clean)
        if self.run_label:
            clean.setdefault("run", self.run_label)
        event = TelemetryEvent(self.clock(), kind, role, clean, self.next_seq)
        self.count(kind)
        self.sink.write(event)

    def _check_envelope(self, kind: str, role: str, payload: Mapping[str, Any]) -> None:
        """Refuse *payload* if it sets a reserved key to a value other
        than the envelope's; the clock is read only when one is set."""
        keys = _ENVELOPE_KEYS.intersection(payload)
        if not keys:
            return
        envelope = {"time": self.clock(), "seq": self.next_seq, "kind": kind, "role": role}
        for key in keys:
            if payload[key] != envelope[key]:
                raise ValueError(
                    f"{kind!r} event payload sets reserved key {key!r}"
                    f" to {payload[key]!r}; the envelope says {envelope[key]!r}"
                )

    def count(self, kind: str) -> None:
        """Count one *kind* record and take its sequence number without
        building it: what :meth:`emit` does with no sink, and what an
        emitter calls instead when it sees none, so that it builds no
        payload either."""
        self.next_seq += 1
        self.counts[kind] = self.counts.get(kind, 0) + 1

    # -- queries ---------------------------------------------------------

    def of_kind(self, kind: str) -> range:
        """A sized stand-in for the *kind* records, which are not kept:
        its length is their count.  Kept because
        ``benchmarks/e2e/harness.py`` calls ``len()`` on it."""
        return range(self.counts.get(kind, 0))

    def __len__(self) -> int:
        return self.next_seq - 1

    # -- serialization ---------------------------------------------------

    @staticmethod
    def parse_jsonl(text: str) -> List[Dict[str, Any]]:
        """Parse a JSONL artifact back into event dicts (for audits)."""
        records: List[Dict[str, Any]] = []
        for line_number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"telemetry JSONL line {line_number} is not valid JSON: {exc}") from exc
        return records
