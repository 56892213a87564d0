"""Span-based tracing over the PProx pipeline, in virtual time.

One client request crosses six network hops::

    client -> UA -> IA -> LRS -> IA -> UA -> client
       t0     t1    t2     t3     t4    t5

The five paper stages are the deltas between consecutive hops —
``ua_inbound`` (t0→t1, includes shuffle wait), ``ia_inbound`` (t1→t2),
``lrs`` (t2→t3), ``ia_outbound`` (t3→t4, includes response shuffle),
``ua_outbound`` (t4→t5).  Components report each hop to the tracer at
the same virtual instant they call :meth:`Network.send`, so span
boundaries are *exactly* the wire timestamps a payload wiretap
observes — ``tests/test_telemetry_spans.py`` holds the two to float
precision on the same run, on both wires.

Trace context is keyed on ``request_id``, which is simulator
bookkeeping that never appears in a serialized message body: the §2.3
adversary cannot see it, so propagating it to the tracer adds zero
bytes to any observable flow.  Crucially, span *attributes* are still
pushed through the redaction boundary by role when spans are emitted
to the event log — a UA span annotated with an item id would be
scrubbed and flagged.

The tracer retains nothing about a settled request.  :class:`Span` and
:class:`Trace` are in-flight scratch: when a span closes the tracer
builds its record once and hands it to the log, and when the root
closes the :class:`Trace` is dropped.  The root record carries
``stage_durations`` and ``complete`` — all :meth:`Tracer.complete_traces`
and :meth:`Tracer.stage_values` read — and the summary's per-stage
``(n, sum, max)`` are folded as each complete trace settles.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.telemetry.events import EventLog

__all__ = ["PIPELINE_STAGES", "Span", "Trace", "Tracer"]

# Stage names in pipeline order.
PIPELINE_STAGES: Tuple[str, ...] = (
    "ua_inbound",
    "ia_inbound",
    "lrs",
    "ia_outbound",
    "ua_outbound",
)

# (from_role, to_role) -> (stage closed by this hop, stage opened, role owning the opened stage)
_HOP_TRANSITIONS: Dict[Tuple[str, str], Tuple[Optional[str], Optional[str], Optional[str]]] = {
    ("client", "ua"): (None, "ua_inbound", "ua"),
    ("ua", "ia"): ("ua_inbound", "ia_inbound", "ia"),
    ("ia", "lrs"): ("ia_inbound", "lrs", "lrs"),
    ("lrs", "ia"): ("lrs", "ia_outbound", "ia"),
    ("ia", "ua"): ("ia_outbound", "ua_outbound", "ua"),
    ("ua", "client"): ("ua_outbound", None, None),
}


@dataclass(slots=True)
class Span:
    """One timed operation attributed to a role, while it is in flight."""

    trace_id: int
    span_id: int
    name: str
    role: str
    start: float
    parent_id: Optional[int] = None
    end: Optional[float] = None
    attributes: Dict[str, Any] = field(default_factory=dict)

@dataclass(slots=True)
class Trace:
    """The in-flight spans of one request: a root plus one per stage."""

    trace_id: int
    root: Span
    stages: Dict[str, Span] = field(default_factory=dict)
    open_stage: Optional[str] = None


class Tracer:
    """Builds traces from hop reports, emits closed spans to the log.

    ``max_active`` bounds the in-flight table: requests that time out
    client-side (their reply is still in flight when the client gives
    up and retries under a fresh id) would otherwise pin their trace
    forever.  Overflowing traces are closed as ``abandoned``.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        event_log: Optional[EventLog] = None,
        max_active: int = 8192,
    ) -> None:
        self.clock = clock
        self.event_log = event_log
        self.max_active = max_active
        self._active: "OrderedDict[int, Trace]" = OrderedDict()
        #: stage -> ``[n, sum, max]`` of its duration over complete traces.
        self.stage_totals: Dict[str, List[float]] = {
            name: [0, 0.0, 0.0] for name in PIPELINE_STAGES
        }
        self._next_trace_id = 1
        self._next_span_id = 1
        self.traces_started = 0
        self.traces_completed = 0
        self.traces_abandoned = 0
        self.hops_recorded = 0
        self.unknown_hops = 0

    # -- construction ----------------------------------------------------

    def bind(self, clock: Callable[[], float]) -> None:
        """Re-point the tracer at a fresh run's clock."""
        self.clock = clock

    def _new_span(
        self,
        trace_id: int,
        name: str,
        role: str,
        start: float,
        parent_id: Optional[int] = None,
    ) -> Span:
        span = Span(trace_id, self._next_span_id, name, role, start, parent_id)
        self._next_span_id += 1
        return span

    def _start_trace(self, request_id: int, now: float) -> Trace:
        root = self._new_span(self._next_trace_id, "request", "client", now)
        trace = Trace(self._next_trace_id, root)
        self._next_trace_id += 1
        self.traces_started += 1
        self._active[request_id] = trace
        if len(self._active) > self.max_active:
            _, evicted = self._active.popitem(last=False)
            self._finish(evicted, "abandoned", now)
        return trace

    # -- the hot path ----------------------------------------------------

    def record_hop(self, request_id: int, from_role: str, to_role: str) -> None:
        """Report a network send for *request_id* at the current instant.

        Called by the component issuing the send, in the same event
        callback, so ``clock()`` here equals the flow-record timestamp.
        """
        now = self.clock()
        self.hops_recorded += 1
        transition = _HOP_TRANSITIONS.get((from_role, to_role))
        if transition is None:
            self.unknown_hops += 1
            return
        closes, opens, open_role = transition

        trace = self._active.get(request_id)
        if trace is None:
            if closes is not None:
                # Mid-pipeline first sighting (e.g. tracer attached after
                # requests were already in flight): nothing to stitch.
                return
            trace = self._start_trace(request_id, now)
        else:
            self._active.move_to_end(request_id)

        if closes is not None and trace.open_stage == closes:
            trace.open_stage = None
            self._close(trace.stages[closes], "ok", now)
        if opens is not None and open_role is not None:
            trace.stages[opens] = self._new_span(
                trace.trace_id, opens, open_role, now, trace.root.span_id
            )
            trace.open_stage = opens

    def annotate(self, request_id: int, **attrs: Any) -> None:
        """Attach attributes to the stage span currently open for a request."""
        trace = self._active.get(request_id)
        if trace is None or trace.open_stage is None:
            return
        trace.stages[trace.open_stage].attributes.update(attrs)

    def end_trace(self, request_id: int, ok: bool = True) -> None:
        """Close a request's root span (called at client settle time)."""
        trace = self._active.pop(request_id, None)
        if trace is not None:
            self._finish(trace, "ok" if ok else "error", self.clock())

    def abandon(self, request_id: int) -> None:
        """Drop a request that will never complete (timeout/retry)."""
        trace = self._active.pop(request_id, None)
        if trace is not None:
            self._finish(trace, "abandoned", self.clock())

    def _finish(self, trace: Trace, status: str, now: float) -> None:
        """Close the root; a stage still open is dropped with the trace."""
        # Closed stages only, in pipeline order.
        durations = {
            name: span.end - span.start
            for name, span in trace.stages.items()
            if span.end is not None
        }
        complete = status == "ok" and len(durations) == len(PIPELINE_STAGES)
        if complete:
            for name, seconds in durations.items():
                totals = self.stage_totals[name]
                totals[0] += 1
                totals[1] += seconds
                if seconds > totals[2]:
                    totals[2] = seconds
        if status == "ok":
            self.traces_completed += 1
        elif status == "abandoned":
            self.traces_abandoned += 1
        self._close(trace.root, status, now, stage_durations=durations, complete=complete)

    def _close(self, span: Span, status: str, now: float, **root_fields: Any) -> None:
        """Close *span* and hand its record, built here once, to the log."""
        span.end = now
        if self.event_log is None:
            return
        # ``role`` is the event envelope's; the log merges it back in.
        payload: Dict[str, Any] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "name": span.name,
            "start": span.start,
            "status": status,
        }
        if span.parent_id is not None:
            payload["parent_id"] = span.parent_id
        payload["end"] = now
        payload["duration"] = now - span.start
        if span.attributes:
            payload["attributes"] = span.attributes
        payload.update(root_fields)
        self.event_log.emit("span", span.role, payload)

    # -- queries ---------------------------------------------------------

    @property
    def active_count(self) -> int:
        return len(self._active)

    def complete_traces(self) -> List[Dict[str, Any]]:
        """Root-span records of every complete trace, read off the log."""
        if self.event_log is None:
            return []
        return [
            event.payload
            for event in self.event_log.of_kind("span")
            if event.payload.get("complete")
        ]

    def stage_values(self) -> Dict[str, List[float]]:
        """Durations grouped by stage across all complete traces."""
        grouped: Dict[str, List[float]] = {name: [] for name in PIPELINE_STAGES}
        for record in self.complete_traces():
            for name in PIPELINE_STAGES:
                grouped[name].append(record["stage_durations"][name])
        return grouped
