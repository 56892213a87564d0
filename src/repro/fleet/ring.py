"""Consistent-hash shard directory for the sharded proxy fleet.

The directory maps each client *attempt* to one UA/IA shard pair.  Two
properties are load-bearing:

* **Privacy.**  The ring key is the per-attempt request nonce
  (``Request.request_id``) — a context-local counter minted fresh for
  every attempt, hedge and retry.  It is never derived from the user
  identifier, so the shard a request lands on carries no information
  about *who* sent it, and a retry re-rolls its shard along with its
  nonce.  :func:`repro.privacy.wire.shard_routing_violations` audits
  both halves: the directory's key log must contain only int nonces,
  and no wire hop may carry a shard-identity field.
* **Determinism.**  Ring points come from ``blake2b`` digests, not the
  per-process-salted builtin ``hash``, so two same-seed runs place the
  same nonces on the same shards byte-for-byte.

Failover is positional: when the owning shard has no live UA instance
(a whole failure domain down), the directory walks the ring to the
next distinct shard.  Nothing on the wire names the shard — instance
addresses keep the ``pprox-ua-*`` / ``pprox-ia-*`` prefixes the
privacy auditors classify by.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.proxy.layers import ItemAnonymizer, UserAnonymizer
from repro.simnet.loadbalancer import LoadBalancer, NoUpstream

__all__ = [
    "SHARD_STATES",
    "Shard",
    "HashRing",
    "ShardDirectory",
    "ring_point",
]

#: Shard lifecycle states owned by the FleetSupervisor.  Mirrors the
#: rotation coordinator's pause-never-abort discipline: a shard leaves
#: ``live`` only through an explicit split and can park in any state
#: while the fleet pauses for faults or overload.
SHARD_STATES = ("provisioning", "live", "splitting")

#: States in which a shard may appear on the ring and take traffic.
ROUTABLE_STATES = frozenset({"live", "splitting"})


def ring_point(label: str) -> int:
    """Deterministic 64-bit ring position for *label*.

    ``blake2b`` rather than ``hash()``: the builtin is salted per
    process and would break byte-identical same-seed artifacts.
    """
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass
class Shard:
    """One UA/IA pair group with its own balancers and failure domain."""

    shard_id: str
    domain: str
    ua_balancer: LoadBalancer
    ia_balancer: LoadBalancer
    ua_instances: List[UserAnonymizer] = field(default_factory=list)
    ia_instances: List[ItemAnonymizer] = field(default_factory=list)
    state: str = "provisioning"
    created_at: float = 0.0

    def instances(self) -> list:
        """Every instance of both layers (placement / kill plans)."""
        return list(self.ua_instances) + list(self.ia_instances)

    @property
    def routable(self) -> bool:
        """Can this shard take a request right now?"""
        return self.state in ROUTABLE_STATES and len(self.ua_balancer) > 0

    @property
    def live_ia_count(self) -> int:
        """Alive IA instances — the I in this shard's S*I floor."""
        return sum(1 for inst in self.ia_instances if inst.alive)

    def set_state(self, state: str) -> None:
        if state not in SHARD_STATES:
            raise ValueError(f"unknown shard state {state!r}")
        self.state = state


class HashRing:
    """Sorted-points consistent-hash ring with virtual nodes."""

    def __init__(self, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points: List[Tuple[int, str]] = []
        self._members: Dict[str, None] = {}

    def add(self, shard_id: str) -> None:
        if shard_id in self._members:
            raise ValueError(f"shard {shard_id!r} already on the ring")
        self._members[shard_id] = None
        for replica in range(self.vnodes):
            self._points.append((ring_point(f"{shard_id}#{replica}"), shard_id))
        self._points.sort()

    def successors(self, nonce: int) -> Iterator[str]:
        """Distinct shard ids in ring order from the nonce's point.

        The first yielded id is the owner; later ones are the
        failover order a dead shard's traffic spills to.
        """
        if not self._points:
            return
        point = ring_point(f"n{nonce}")
        start = bisect_right(self._points, (point, "￿"))
        seen: Dict[str, None] = {}
        total = len(self._points)
        for offset in range(total):
            shard_id = self._points[(start + offset) % total][1]
            if shard_id not in seen:
                seen[shard_id] = None
                yield shard_id


class ShardDirectory:
    """Routes request nonces to shards; records evidence for the audit."""

    #: Bounded sample of routing keys kept for the privacy audit.
    KEY_LOG_LIMIT = 4096

    def __init__(self, vnodes: int = 64) -> None:
        self.ring = HashRing(vnodes=vnodes)
        self.shards: Dict[str, Shard] = {}
        self.routed = 0
        self.failovers = 0
        #: Routing keys the directory refused (non-int) — the privacy
        #: audit requires this to stay empty.
        self.rejected_keys: List[str] = []
        self.key_log: List[int] = []

    # -- membership ----------------------------------------------------

    def register(self, shard: Shard) -> None:
        """Track a shard (not yet routable; see :meth:`activate`)."""
        if shard.shard_id in self.shards:
            raise ValueError(f"shard {shard.shard_id!r} already registered")
        self.shards[shard.shard_id] = shard

    def activate(self, shard_id: str) -> None:
        """Flip the ring: *shard_id* starts owning key ranges."""
        self._require(shard_id)
        self.ring.add(shard_id)

    def _require(self, shard_id: str) -> Shard:
        shard = self.shards.get(shard_id)
        if shard is None:
            raise ValueError(f"unknown shard {shard_id!r}")
        return shard

    # -- routing -------------------------------------------------------

    def route(self, nonce: int) -> Shard:
        """Owning shard for *nonce*, failing over along the ring.

        Only int nonces route — a bool or any user-derived value is
        refused and recorded so the privacy audit fails loudly rather
        than the directory silently keying on identity.
        """
        if type(nonce) is not int:
            self.rejected_keys.append(repr(nonce))
            raise TypeError(
                f"shard routing key must be an int request nonce, got "
                f"{type(nonce).__name__}"
            )
        if len(self.key_log) < self.KEY_LOG_LIMIT:
            self.key_log.append(nonce)
        primary = True
        for shard_id in self.ring.successors(nonce):
            shard = self.shards[shard_id]
            if shard.routable:
                self.routed += 1
                if not primary:
                    self.failovers += 1
                return shard
            primary = False
        raise NoUpstream("no routable shard for any ring position")
