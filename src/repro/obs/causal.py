"""Causal tracer with a privacy-safe severing point at the shuffler.

Client calls get *client spans* (``cspan`` events) keyed by the wire
trace id; the UA absorbs the id at its front door and the shuffler's
flushes get *batch spans* (``bspan`` events) carrying only aggregates:
batch sequence number, instance, release size, and the **fan-in
count** — how many traced requests were absorbed at that instance
since its previous flush.  The two span populations are linked by
those counts alone; no trace id ever appears in a post-shuffle span,
event, or message (audited by
:func:`repro.privacy.wire.trace_field_exposures` and the redaction
boundary's ``trace-id`` kind).

Trace ids come from a tracer-local monotonic counter, *not* an RNG:
stamping must never perturb the seeded random streams (client backoff
jitter draws would shift and same-seed runs would diverge), and the
counter restarts with the tracer, so two same-seed passes emit
byte-identical ``cspan``/``bspan`` streams.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.obs.tracewire import encode_trace_id, stamp_trace
from repro.rest.messages import Request

__all__ = ["CausalTracer", "instrument_causal"]


class CausalTracer:
    """Allocates trace ids, records client spans, severs at the UA.

    ``clock`` is the virtual-time source; ``event_log`` (optional) is
    a :class:`repro.telemetry.events.EventLog` receiving ``cspan`` /
    ``bspan`` records.  All counters are public for audits.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        event_log: Optional[Any] = None,
    ) -> None:
        self.clock = clock
        self.event_log = event_log
        self._serial = 0
        self._batch_seq = 0
        self._open_calls: Dict[str, Dict[str, Any]] = {}
        #: Traced requests absorbed per UA instance since its last flush.
        self._absorbed: Dict[str, int] = {}
        self.calls_started = 0
        self.calls_settled = 0
        self.attempts_stamped = 0
        self.traces_severed = 0
        self.batch_spans = 0
        self.fan_in_total = 0

    # -- client side -----------------------------------------------------

    def start_call(self, verb: str) -> str:
        """Open a client span; returns the trace id to stamp attempts with."""
        self._serial += 1
        trace_id = encode_trace_id(self._serial)
        self.calls_started += 1
        # The open call is its ``cspan`` record in the making.
        self._open_calls[trace_id] = {
            "trace": trace_id,
            "verb": verb,
            "started": self.clock(),
            "attempts": 0,
        }
        return trace_id

    def stamp(self, request: Request, trace_id: str) -> Request:
        """Stamp one attempt of an open call onto the wire."""
        call = self._open_calls.get(trace_id)
        if call is not None:
            call["attempts"] += 1
        self.attempts_stamped += 1
        return stamp_trace(request, trace_id)

    def settle_call(self, trace_id: str, ok: bool) -> None:
        """Close a client span and emit its ``cspan`` record."""
        call = self._open_calls.pop(trace_id, None)
        if call is None:
            return
        self.calls_settled += 1
        if self.event_log is None:
            return
        call["ended"] = ended = self.clock()
        call["duration"] = ended - call["started"]
        call["ok"] = bool(ok)
        self.event_log.emit("cspan", "client", call)

    # -- shuffle boundary ------------------------------------------------

    def absorb(self, instance: str) -> None:
        """A traced request reached *instance*'s front door; id is gone.

        Called by the UA right after it severs the ``trace`` field.
        From here on the request is anonymous to the tracer — only the
        per-instance fan-in count survives into the next batch span.
        """
        self.traces_severed += 1
        self._absorbed[instance] = self._absorbed.get(instance, 0) + 1

    def batch_flush(self, instance: str, size: int, timer_fired: bool) -> None:
        """A shuffle batch was released; emit its aggregate-only span."""
        self._batch_seq += 1
        fan_in = self._absorbed.pop(instance, 0)
        self.fan_in_total += fan_in
        self.batch_spans += 1
        if self.event_log is None:
            return
        self.event_log.emit(
            "bspan",
            "ua",
            {
                "batch": self._batch_seq,
                "instance": instance,
                "size": size,
                "timer_fired": bool(timer_fired),
                "fan_in": fan_in,
                "released_at": self.clock(),
            },
        )

    # -- audits ----------------------------------------------------------

    def link_report(self) -> Dict[str, int]:
        """Aggregate linkage surface: everything an auditor may see."""
        return {
            "calls_started": self.calls_started,
            "calls_settled": self.calls_settled,
            "attempts_stamped": self.attempts_stamped,
            "traces_severed": self.traces_severed,
            "batch_spans": self.batch_spans,
            "fan_in_total": self.fan_in_total,
        }

    def severed_cleanly(self) -> bool:
        """True when every stamped attempt was absorbed at a UA.

        Holds on fault-free runs; with partitions/drops some stamped
        attempts never arrive, so ``severed <= stamped`` is the only
        invariant there.
        """
        return self.traces_severed == self.attempts_stamped

    def attach_metrics(self, registry: Any) -> None:
        """Expose tracer counters on a telemetry MetricRegistry."""
        registry.counter(
            "pprox_trace_attempts_stamped_total",
            "Client attempts stamped with a causal trace id.",
            callback=lambda: self.attempts_stamped,
        )
        registry.counter(
            "pprox_traces_severed_total",
            "Trace ids absorbed (and destroyed) at a UA front door.",
            callback=lambda: self.traces_severed,
        )
        registry.counter(
            "pprox_trace_batch_spans_total",
            "Aggregate-only batch spans emitted at shuffle flushes.",
            callback=lambda: self.batch_spans,
        )


def instrument_causal(causal: CausalTracer, service: Any) -> None:
    """Chain batch-span emission onto every UA shuffle buffer.

    Whatever hook :func:`repro.telemetry.instruments.instrument_service`
    (or an experiment) already installed keeps running first.
    """
    for instance in service.ua_instances:
        buffer = instance.request_buffer
        if buffer is None:
            continue
        buffer.chain_on_flush(
            lambda size, timer_fired, _name=instance.name: causal.batch_flush(
                _name, size, timer_fired
            )
        )
