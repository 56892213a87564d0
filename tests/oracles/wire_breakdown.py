"""Per-request latency breakdown, reconstructed from wire events.

Operators (not the adversary!) can attach a :class:`BreakdownProbe`
to the simulated network; it watches payload-level events and
reconstructs, for every request id, how long each pipeline stage
held the request:

======================  ===================================================
``ua_inbound``          client send -> UA forwards to IA (client-side
                        crypto, network, UA shuffle buffer + processing)
``ia_inbound``          UA send -> IA forwards to the LRS
``lrs``                 IA send -> LRS replies
``ia_outbound``         LRS reply -> IA forwards to UA (response shuffle
                        buffer + de-pseudonymization + re-encryption)
``ua_outbound``         IA reply -> UA replies to the client
======================  ===================================================

This is how Figure 7/8-style anomalies are diagnosed: at low RPS the
``ua_inbound`` and ``ia_outbound`` stages (the two shuffle buffers)
dominate; near saturation the bottleneck layer's processing time does.

Hops are classified by the **role directory** the deployment registers
on the :class:`~repro.simnet.network.Network` (``register_role``), not
by address spelling: an address nobody registered is explicitly
``unknown`` and its flows never complete a timeline, instead of being
silently misfiled as LRS traffic.

The richer, span-based view of the same pipeline lives in
:mod:`repro.telemetry.spans`; this probe remains as the independent
wire-level cross-check (the two must agree to float precision on the
same run).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.simnet.metrics import percentile
from repro.simnet.network import FlowRecord, Network

__all__ = ["BreakdownProbe", "RequestTimeline", "STAGES"]

STAGES = ("ua_inbound", "ia_inbound", "lrs", "ia_outbound", "ua_outbound")

_REQUIRED_HOPS = ("client->ua", "ua->ia", "ia->lrs", "lrs->ia", "ia->ua", "ua->client")


@dataclass
class RequestTimeline:
    """Send timestamps of one request's traversal, by hop."""

    request_id: int
    send_times: Dict[str, float] = field(default_factory=dict)

    def record(self, hop: str, time: float) -> None:
        self.send_times.setdefault(hop, time)

    def stage_durations(self) -> Optional[Dict[str, float]]:
        """Per-stage durations, or None while the trace is incomplete."""
        hops = self.send_times
        if any(hop not in hops for hop in _REQUIRED_HOPS):
            return None
        return {
            "ua_inbound": hops["ua->ia"] - hops["client->ua"],
            "ia_inbound": hops["ia->lrs"] - hops["ua->ia"],
            "lrs": hops["lrs->ia"] - hops["ia->lrs"],
            "ia_outbound": hops["ia->ua"] - hops["lrs->ia"],
            "ua_outbound": hops["ua->client"] - hops["ia->ua"],
        }


@dataclass
class BreakdownProbe:
    """Collects request timelines from a network's payload tap.

    Memory stays bounded over arbitrarily long runs: a timeline is
    folded into the per-stage running aggregates (and evicted) the
    moment it completes, and the incomplete set — requests that died
    mid-pipeline, timed out, or were retried under a fresh id — is an
    LRU capped at ``max_incomplete``.
    """

    #: In-flight (incomplete) timelines only, LRU-ordered by last touch.
    timelines: "OrderedDict[int, RequestTimeline]" = field(default_factory=OrderedDict)
    max_incomplete: int = 4096
    completed_count: int = 0
    evicted_count: int = 0
    #: Aligned per-stage duration lists of every completed timeline:
    #: index i across all five lists is one request's breakdown.
    _stage_values: Dict[str, List[float]] = field(
        default_factory=lambda: {stage: [] for stage in STAGES}
    )

    def attach(self, network: Network) -> None:
        """Start observing *network* (operator-side, sees request ids)."""
        network.add_wiretap(self._observe)

    def _observe(self, record: FlowRecord, payload: object) -> None:
        # Keyed on what every protected-hop payload carries out-of-band:
        # a WireFrame's ``request_id``, or the ``request_ids`` of the
        # one sealed BatchEnvelope a flush puts on the UA->IA hop.
        request_ids = getattr(payload, "request_ids", None)
        if request_ids is None:
            request_ids = (getattr(payload, "request_id", 0),)
        hop = f"{record.source_role}->{record.destination_role}"
        for request_id in request_ids:
            if request_id:
                self._record(request_id, hop, record.time)

    def _record(self, request_id: int, hop: str, time: float) -> None:
        timeline = self.timelines.get(request_id)
        if timeline is None:
            timeline = RequestTimeline(request_id=request_id)
            self.timelines[request_id] = timeline
            if len(self.timelines) > self.max_incomplete:
                self.timelines.popitem(last=False)
                self.evicted_count += 1
        else:
            self.timelines.move_to_end(request_id)
        timeline.record(hop, time)
        durations = timeline.stage_durations()
        if durations is not None:
            for stage in STAGES:
                self._stage_values[stage].append(durations[stage])
            self.completed_count += 1
            del self.timelines[request_id]

    def stage_values(self) -> Dict[str, List[float]]:
        """Durations grouped by stage across all completed timelines."""
        return {stage: list(values) for stage, values in self._stage_values.items()}

    def complete_traces(self) -> List[Dict[str, float]]:
        """Stage durations of every fully-observed request."""
        return [
            {stage: self._stage_values[stage][index] for stage in STAGES}
            for index in range(self.completed_count)
        ]

    def aggregate(self, fraction: float = 0.5) -> Dict[str, float]:
        """Per-stage percentile (default median) across all traces."""
        if not self.completed_count:
            raise ValueError("no complete traces collected")
        return {
            stage: percentile(sorted(values), fraction)
            for stage, values in self._stage_values.items()
        }

    def render(self) -> str:
        """Text table of the median breakdown."""
        aggregated = self.aggregate()
        total = sum(aggregated.values())
        lines = [f"{'stage':14s} {'median ms':>10s} {'share':>7s}"]
        for stage in STAGES:
            value = aggregated.get(stage, 0.0)
            share = value / total if total else 0.0
            lines.append(f"{stage:14s} {value * 1000:10.2f} {share:7.1%}")
        lines.append(f"{'total':14s} {total * 1000:10.2f}")
        return "\n".join(lines)
