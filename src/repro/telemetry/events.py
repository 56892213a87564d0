"""Structured event log: the fluentd-style JSONL sink.

Every telemetry signal — span completions, metric snapshots, chaos and
fault events, run lifecycle markers — flows through one
:class:`EventLog` so a single per-run artifact captures the whole
story.  A record has one life: the emitter builds its payload once,
:meth:`EventLog.emit` scrubs it once for the emitting role *before* it
is stored (so nothing downstream — renderers, JSONL files, CI
artifacts — can leak what the boundary removed), and the clean copy is
kept in one slotted :class:`TelemetryEvent`; nothing else retains it.

The envelope keys ``time`` / ``seq`` / ``kind`` / ``role`` are reserved:
a payload may repeat one only with the envelope's own value, so a
reader filtering the artifact on ``kind`` sees what
:meth:`EventLog.of_kind` sees in memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping

from repro.telemetry.redaction import DEFAULT_POLICY, RedactionPolicy, Violation

__all__ = ["EventLog", "TelemetryEvent"]

_ENVELOPE_KEYS = frozenset({"time", "seq", "kind", "role"})


@dataclass(slots=True)
class TelemetryEvent:
    """One structured record: who said what, when, in virtual time."""

    time: float
    kind: str  # "span" | "fault" | "run" | ...
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, default=str)


@dataclass
class EventLog:
    """Append-only in-memory event log with JSONL serialization."""

    clock: Callable[[], float] = lambda: 0.0
    policy: RedactionPolicy = field(default_factory=lambda: DEFAULT_POLICY)
    events: List[TelemetryEvent] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    run_label: str = ""
    next_seq: int = 1

    def emit(self, kind: str, role: str, payload: Mapping[str, Any]) -> TelemetryEvent:
        """Scrub *payload* for *role* and append the clean event."""
        clean, violations = self.policy.scrub(role, payload)
        self.violations.extend(violations)
        return self._append(kind, role, clean)

    def emit_raw(self, kind: str, role: str, payload: Mapping[str, Any]) -> TelemetryEvent:
        """Append without scrubbing.

        Exists so tests can plant a deliberate leak and prove the audit
        catches it; production code paths must use :meth:`emit`.
        """
        return self._append(kind, role, dict(payload))

    def _append(self, kind: str, role: str, payload: Dict[str, Any]) -> TelemetryEvent:
        if self.run_label:
            payload.setdefault("run", self.run_label)
        event = TelemetryEvent(self.clock(), kind, role, payload, self.next_seq)
        for key in _ENVELOPE_KEYS.intersection(payload):
            if payload[key] != getattr(event, key):
                raise ValueError(
                    f"{kind!r} event payload sets reserved key {key!r}"
                    f" to {payload[key]!r}; the envelope says {getattr(event, key)!r}"
                )
        self.next_seq += 1
        self.events.append(event)
        return event

    # -- queries ---------------------------------------------------------

    def of_kind(self, kind: str) -> List[TelemetryEvent]:
        return [event for event in self.events if event.kind == kind]

    def __len__(self) -> int:
        return len(self.events)

    # -- serialization ---------------------------------------------------

    def to_jsonl(self) -> str:
        return "\n".join(event.to_json() for event in self.events) + ("\n" if self.events else "")

    def write_jsonl(self, path) -> int:
        """Write the log to *path*; returns the number of events written."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
        return len(self.events)

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
