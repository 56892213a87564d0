"""Simulated cluster network with an adversary observation tap.

The PProx adversary "may monitor network flows between the nodes
forming this infrastructure, both with the outside world and
internally, and correlate in time its observations" (paper §2.3).
Every message sent through :class:`Network` while somebody watches is
therefore described by a :class:`FlowRecord` — endpoints, their
operator-side roles, timestamp and size — and handed, with the
(encrypted) payload, to every wiretap (:meth:`Network.add_wiretap`,
the one way to watch the wire).  The network itself retains nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.simnet.clock import EventLoop

__all__ = ["Network", "FlowRecord", "FaultDecision", "LatencyModel", "UNKNOWN_ROLE"]

#: Role assigned to addresses nobody registered.  Explicit, so
#: downstream classifiers never silently lump strangers into ``lrs``.
UNKNOWN_ROLE = "unknown"


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One observed network transmission (metadata only).

    ``source_role``/``destination_role`` carry the *operator-side* role
    directory entries (see :meth:`Network.register_role`); they default
    to :data:`UNKNOWN_ROLE` for records built without a directory,
    and they are the name of a hop everywhere downstream
    (:func:`repro.privacy.wire.hop_of`).
    """

    time: float
    source: str
    destination: str
    size_bytes: int
    flow_id: int
    source_role: str = UNKNOWN_ROLE
    destination_role: str = UNKNOWN_ROLE


@dataclass(frozen=True)
class FaultDecision:
    """Verdict of a fault filter for one transmission.

    ``drop`` loses the message after the adversary tap has seen it (a
    dropped packet is still observable on the wire); ``extra_delay``
    adds seconds on top of the sampled latency (delay spike / congested
    path).
    """

    drop: bool = False
    extra_delay: float = 0.0


#: A filter consulted once per :meth:`Network.send`; ``None`` verdicts
#: mean "no fault".
FaultFilter = Callable[[FlowRecord], Optional[FaultDecision]]


@dataclass
class LatencyModel:
    """Per-hop latency: base + uniform jitter + size-proportional term.

    Defaults approximate an intra-datacenter hop (the paper co-locates
    PProx with the LRS "to avoid indirections through multiple data
    centers").
    """

    base_seconds: float = 0.0003
    jitter_seconds: float = 0.0002
    seconds_per_byte: float = 1.0 / 1_000_000_000  # ~1 GbE payload cost

    def sample(self, size_bytes: int, rng: random.Random) -> float:
        """Draw a delivery latency for a message of *size_bytes*."""
        jitter = rng.uniform(0, self.jitter_seconds)
        return self.base_seconds + jitter + size_bytes * self.seconds_per_byte


@dataclass
class Network:
    """Message fabric connecting simulation actors by name."""

    loop: EventLoop
    rng: random.Random
    latency: LatencyModel = field(default_factory=LatencyModel)
    _wiretaps: List[Callable[[FlowRecord, Any], None]] = field(default_factory=list)
    _flow_counter: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0
    messages_dropped: int = 0
    #: Optional fault hook (set by the fault injector): may drop the
    #: message or stretch its delivery.  Faults act *after* the
    #: adversary tap — a lost packet was still on the wire.
    fault_filter: Optional[FaultFilter] = None
    #: Operator-side role directory: address -> ua/ia/lrs/client/...
    #: Populated at deployment time (service assembly, client attach),
    #: NOT inferred from address spelling.
    roles: Dict[str, str] = field(default_factory=dict)

    def register_role(self, address: str, role: str) -> None:
        """Record that *address* plays *role* (idempotent re-register ok)."""
        self.roles[address] = role

    def role_of(self, address: str) -> str:
        """The registered role of *address*, or :data:`UNKNOWN_ROLE`."""
        return self.roles.get(address, UNKNOWN_ROLE)

    def add_wiretap(self, wiretap: Callable[[FlowRecord, Any], None]) -> None:
        """Attach a tap: called with ``(record, payload)`` per send.

        The PProx adversary bypasses TLS and sees traffic "in the
        clear" (§2.3) — but cleartext on this wire is JSON whose
        sensitive fields are ciphertext, so a wiretap grants exactly
        what the paper grants: encrypted bodies plus flow metadata.
        """
        self._wiretaps.append(wiretap)

    def send(
        self,
        source: str,
        destination: str,
        payload: Any,
        size_bytes: int,
        on_deliver: Callable[[Any], None],
        extra_delay: float = 0.0,
    ) -> int:
        """Deliver *payload* after a sampled network latency.

        Returns the flow id assigned to this transmission.  Wiretaps
        see it now, at send time — also when a fault then drops it.
        """
        self._flow_counter += 1
        flow_id = self._flow_counter
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        fault_delay = 0.0
        if self._wiretaps or self.fault_filter:
            record = FlowRecord(
                time=self.loop.now,
                source=source,
                destination=destination,
                size_bytes=size_bytes,
                flow_id=flow_id,
                source_role=self.role_of(source),
                destination_role=self.role_of(destination),
            )
            for wiretap in self._wiretaps:
                wiretap(record, payload)
            if self.fault_filter is not None:
                decision = self.fault_filter(record)
                if decision is not None:
                    if decision.drop:
                        self.messages_dropped += 1
                        return flow_id
                    fault_delay = decision.extra_delay
        # else: nobody is watching this wire — skip building the record
        # entirely (the dominant allocation per hop at scale-sweep
        # sizes; the rng draw below stays in the same stream position
        # either way, so seeds reproduce identically).
        delay = self.latency.sample(size_bytes, self.rng) + extra_delay + fault_delay
        # Handle-free fast path: deliveries are never cancelled.
        self.loop.post(delay, lambda: on_deliver(payload))
        return flow_id
