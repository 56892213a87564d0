"""The one tracer: client spans severed at the shuffle, aggregates past it.

Client calls get *client spans* (``cspan`` events) keyed by the wire
trace id; the UA absorbs the id at its front door, and each shuffle
flush gets a *batch span* (``bspan``) carrying only aggregates: batch
sequence number, instance, release size, and the **fan-in count** (how
many traced requests that instance absorbed since its previous flush).
No trace id appears in a post-shuffle span, event, or message (audited
by :func:`repro.privacy.wire.trace_field_exposures` and the redaction
boundary's ``trace-id`` kind).

Per-stage time survives as aggregates too.  Components report each hop
of ``client -> UA -> IA -> LRS -> IA -> UA -> client``
(:meth:`CausalTracer.record_hop`, keyed on the simulator's
``request_id``) at the instant they call ``Network.send``; the five
paper stages are the deltas between consecutive hops.  A request's hop
instants live in memory while it is in flight and, once it settles
with all five stages closed, are folded into one ``(n, sum, max)`` per
stage (:attr:`CausalTracer.stage_totals`).  Nothing per request is
written: a record naming one request on both sides of the shuffle
would pair the frames the wiretap saw at those instants.

Trace ids come from a tracer-local counter, *not* an RNG: stamping
never perturbs the seeded streams, and same-seed passes emit
byte-identical ``cspan``/``bspan`` streams.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.tracewire import encode_trace_id, stamp_trace
from repro.rest.messages import Request

__all__ = ["CausalTracer", "MAX_ACTIVE", "PIPELINE_STAGES", "instrument_causal"]

PIPELINE_STAGES: Tuple[str, ...] = (
    "ua_inbound", "ia_inbound", "lrs", "ia_outbound", "ua_outbound")

#: (from_role, to_role) -> hop number k: hop k closes stage k - 1 and
#: opens stage k.
_HOPS: Dict[Tuple[str, str], int] = {
    ("client", "ua"): 0, ("ua", "ia"): 1, ("ia", "lrs"): 2,
    ("lrs", "ia"): 3, ("ia", "ua"): 4, ("ua", "client"): 5,
}

#: Requests in flight the tracer keeps at most.  One its client gave up
#: on (timed out, then retried under a fresh id) would otherwise stay
#: forever; the oldest is dropped as abandoned.
MAX_ACTIVE = 8192


class CausalTracer:
    """Allocates trace ids, records client spans, severs at the UA, and
    keeps per-stage aggregates.

    ``clock`` is the virtual-time source; ``event_log`` (optional) is
    a :class:`repro.telemetry.events.EventLog` receiving ``cspan`` /
    ``bspan`` records.  A log with no sink only counts them, so no
    record payload is built.  All counters are public for audits.
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
        #: request id -> [open stage, its start, one duration per stage
        #: (``None`` until closed)], while the request is in flight.
        self._active: "OrderedDict[int, List[Any]]" = OrderedDict()
        #: stage -> ``[n, sum, max]`` of its duration over the requests
        #: that settled ok with all five stages closed.
        self.stage_totals: Dict[str, List[float]] = {
            name: [0, 0.0, 0.0] for name in PIPELINE_STAGES
        }
        self.calls_started = 0
        self.calls_settled = 0
        self.attempts_stamped = 0
        self.traces_severed = 0
        self.batch_spans = 0
        self.fan_in_total = 0
        self.traces_started = 0
        self.traces_completed = 0
        self.traces_abandoned = 0
        self.unknown_hops = 0

    def bind(self, clock: Callable[[], float]) -> None:
        """Re-point the tracer at a fresh run's clock."""
        self.clock = clock

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
        log = self.event_log
        if log is None:
            return
        if log.sink is None:
            log.count("cspan")
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
        log = self.event_log
        if log is None:
            return
        if log.sink is None:
            log.count("bspan")
            return
        log.emit(
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

    # -- per-stage aggregates --------------------------------------------

    def record_hop(self, request_id: int, from_role: str, to_role: str) -> None:
        """Report a network send for *request_id* at the current instant.

        Called by the component issuing the send, in the same event
        callback, so ``clock()`` here equals the flow-record timestamp.
        """
        hop = _HOPS.get((from_role, to_role))
        if hop is None:
            self.unknown_hops += 1
            return
        now = self.clock()
        active = self._active
        trace = active.get(request_id)
        if trace is None:
            if hop:
                # Mid-pipeline first sighting (e.g. tracer attached after
                # requests were already in flight): nothing to stitch.
                return
            trace = active[request_id] = [None, now] + [None] * len(PIPELINE_STAGES)
            self.traces_started += 1
            if len(active) > MAX_ACTIVE:
                active.popitem(last=False)
                self.traces_abandoned += 1
        else:
            active.move_to_end(request_id)
        if hop and trace[0] == hop - 1:
            trace[hop + 1] = now - trace[1]
            trace[0] = None
        if hop < len(PIPELINE_STAGES):
            trace[0], trace[1], trace[hop + 2] = hop, now, None

    def annotate(self, request_id: int, **attrs: Any) -> None:
        """Keeps nothing: no per-request attribute is recorded.  Kept
        because ``benchmarks/e2e/harness.py`` replaces it by name."""

    def end_trace(self, request_id: int, ok: bool = True) -> None:
        """Settle a request (client side); fold its stages if all closed."""
        trace = self._active.pop(request_id, None)
        if trace is None or not ok:
            return
        self.traces_completed += 1
        durations = trace[2:]
        if None in durations:
            return
        for totals, seconds in zip(self.stage_totals.values(), durations):
            totals[0] += 1
            totals[1] += seconds
            if seconds > totals[2]:
                totals[2] = seconds

    def abandon(self, request_id: int) -> None:
        """Drop a request that will never complete (timeout/retry)."""
        if self._active.pop(request_id, None) is not None:
            self.traces_abandoned += 1

    @property
    def active_count(self) -> int:
        return len(self._active)

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
    """Chain batch-span emission onto every UA shuffle buffer, and onto
    those of the shards a fleet adds later.

    Whatever hook the caller already installed keeps running first.
    """

    def chain(instances: Any) -> None:
        for instance in instances:
            buffer = instance.request_buffer
            if buffer is None:
                continue
            buffer.chain_on_flush(
                lambda size, timer_fired, _name=instance.name: causal.batch_flush(
                    _name, size, timer_fired
                )
            )

    chain(service.ua_instances)
    service.shard_hooks.append(lambda shard: chain(shard.ua_instances))
