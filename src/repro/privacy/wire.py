"""Wire-level indistinguishability checks (paper §4.3).

"We first ensure that the adversary cannot distinguish between
encrypted messages ... The size of all encrypted messages is
constant, by using fixed-size user and item identifiers, and padding
when necessary."  These helpers classify observed flows by hop and
verify the constant-size property, giving the test-suite (and
operators) a concrete leak detector.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Dict, List, Optional, Sequence, Set, Tuple

from repro.rest.header import EPOCH, TRACE
from repro.simnet.network import FlowRecord

__all__ = [
    "hop_of",
    "flow_size_profile",
    "constant_size_violations",
    "epoch_tag_exposures",
    "trace_field_exposures",
    "shard_tag_exposures",
    "shard_routing_violations",
    "RejectAuditor",
]

#: Field names that would name a shard on the wire.  No hop may carry
#: any of them: shard membership is positional (which instance a
#: message reaches), never tagged.
SHARD_FIELD_NAMES = ("shard", "shard_id", "ring", "ring_point", "fleet")

#: The hops whose message sizes must not depend on identifiers or
#: list contents: everything between the client and the IA layer.
#: (IA<->LRS flows are pseudonymous by construction, so their sizes
#: need not be padded.)
PROTECTED_HOPS = (("client", "ua"), ("ua", "ia"), ("ia", "ua"), ("ua", "client"))

#: The hops up to the UA front door — direct, or through the
#: application's relay (§6.3) — the only ones a header field the UA
#: severs (epoch tag, trace id) may be seen on.
FRONT_DOOR_HOPS = frozenset({("client", "ua"), ("client", "relay"), ("relay", "ua")})

#: Hops on which reject uniformity is enforced.
REJECT_HOPS = (("ia", "ua"), ("ua", "client"))


def hop_of(record: Any) -> Tuple[str, str]:
    """The name of the hop a flow record or observation crossed.

    The role directory's word (:meth:`repro.simnet.network.Network.
    register_role`, copied onto every :class:`FlowRecord`), never a
    guess from how an address is spelled: an address nobody registered
    is ``unknown``.
    """
    return record.source_role, record.destination_role


def flow_size_profile(records: Sequence[FlowRecord]) -> Dict[Tuple[str, str], Set[int]]:
    """Distinct message sizes observed per hop class."""
    profile: Dict[Tuple[str, str], Set[int]] = defaultdict(set)
    for record in records:
        profile[hop_of(record)].add(record.size_bytes)
    return dict(profile)


def constant_size_violations(records: Sequence[FlowRecord]) -> List[str]:
    """Protected hops (:data:`PROTECTED_HOPS`) whose message sizes vary."""
    profile = flow_size_profile(records)
    violations = []
    for hop in PROTECTED_HOPS:
        sizes = profile.get(hop, set())
        if len(sizes) > 1:
            violations.append(f"{hop[0]}->{hop[1]}: sizes {sorted(sizes)}")
    return violations


def _exposures(
    observations: Sequence[Any],
    leaks_of: Callable[[Dict[str, Any]], Optional[str]],
    allowed: Collection[Tuple[str, str]] = (),
) -> List[str]:
    """The one "field visible beyond its hop" scan.

    *observations* are wiretap captures with roles and a ``fields``
    dict (:class:`repro.privacy.adversary.ObservedMessage`); anything
    without fields is skipped.  *leaks_of* describes what a field dict
    exposes (``None`` for nothing).  Returns human-readable findings,
    one per exposing message outside *allowed*, empty when clean.
    """
    violations: List[str] = []
    for obs in observations:
        fields = getattr(obs, "fields", None)
        if not fields:
            continue
        leak = leaks_of(fields)
        if leak is None:
            continue
        hop = hop_of(obs)
        if hop not in allowed:
            violations.append(
                f"{hop[0]}->{hop[1]}: {leak} visible at t={getattr(obs, 'time', '?')}"
            )
    return violations


def epoch_tag_exposures(observations: Sequence[Any]) -> List[str]:
    """Epoch tags observed on hops where they must never appear.

    During a live rotation the fixed-width epoch tag rides only the
    hops up to the UA front door (:data:`FRONT_DOOR_HOPS`); the UA
    strips it *before* the request can enter a shuffle buffer, so
    ua->ia / ia->lrs / return traffic must be tag-free — otherwise the
    adversary could partition a shuffle batch by epoch and thin the
    anonymity set below ``S*I``.
    """

    def leaks_of(fields: Dict[str, Any]) -> Optional[str]:
        return f"epoch tag {fields[EPOCH.name]!r}" if EPOCH.name in fields else None

    return _exposures(observations, leaks_of, FRONT_DOOR_HOPS)


def trace_field_exposures(observations: Sequence[Any]) -> List[str]:
    """Causal-trace ids observed on hops where they must never appear.

    The ``trace`` wire field (:mod:`repro.obs.tracewire`) rides only
    the hops up to the UA front door; the UA strips it *before*
    admission and shuffling, so any trace id visible past the UA would
    let the adversary follow one request through the shuffler and
    collapse its anonymity set to 1.  Both the field name and the
    distinctive ``tw:`` value prefix are checked — a component that
    copied the id into a different field would still be caught.
    """
    from repro.obs.tracewire import looks_like_trace_id

    def leaks_of(fields: Dict[str, Any]) -> Optional[str]:
        leaks = [key for key, value in fields.items()
                 if key == TRACE.name or looks_like_trace_id(value)]
        return f"trace id under {sorted(leaks)}" if leaks else None

    return _exposures(observations, leaks_of, FRONT_DOOR_HOPS)


def shard_tag_exposures(observations: Sequence[Any]) -> List[str]:
    """Shard-identity fields observed on any wire hop.

    The fleet's consistent-hash directory is control-plane state: a
    request reaches its shard because the client's balancer pick sent
    it there, not because any message says so.  A shard tag on any hop
    would hand the adversary a stable partition of the anonymity set
    (all requests of one shard), so — unlike the epoch tag — there is
    no allowed hop at all.
    """

    def leaks_of(fields: Dict[str, Any]) -> Optional[str]:
        leaks = [key for key in fields if key in SHARD_FIELD_NAMES]
        return f"shard identity under {sorted(leaks)}" if leaks else None

    return _exposures(observations, leaks_of)


def shard_routing_violations(
    directory: Any, observations: Sequence[Any] = ()
) -> List[str]:
    """Audit a :class:`repro.fleet.ring.ShardDirectory`'s key hygiene.

    Three checks, all of which must come back empty:

    * the directory never accepted a non-int routing key (its key must
      be the per-attempt request nonce, so a user id, address or any
      other string can never steer shard placement);
    * every logged routing key is a positive int — the context's
      request-id counter starts at 1, so zero/negative keys would mean
      someone minted keys outside the nonce path;
    * no wire hop carries a shard-identity field
      (:func:`shard_tag_exposures`).
    """
    violations: List[str] = []
    for rejected in getattr(directory, "rejected_keys", ()):
        violations.append(f"directory refused non-nonce routing key {rejected}")
    for key in getattr(directory, "key_log", ()):
        if type(key) is not int or key <= 0:
            violations.append(f"routing key {key!r} is not a positive int nonce")
    violations.extend(shard_tag_exposures(observations))
    return violations


@dataclass
class RejectAuditor:
    """Payload-level uniformity audit of error replies on protected hops.

    The overload subsystem promises that *every* reject crossing a
    protected hop (ia->ua and ua->client) is the single canonical
    padded message — a shed must be indistinguishable from a brownout,
    a breaker trip or a transform failure.  :class:`FlowRecord` keeps
    sizes only, so this auditor rides the network's wiretap channel
    (``network.add_wiretap(auditor.observe)``) to inspect the payloads
    themselves while they are in flight.

    Hardened-hop deployments seal the ua->client body; there only the
    size can be checked (a sealed blob is opaque by design), which is
    why the per-hop size set is tracked independently of the field
    check.
    """

    #: Distinct reject wire-sizes seen per audited hop.
    reject_sizes: Dict[Tuple[str, str], Set[int]] = field(default_factory=dict)
    #: Non-canonical plaintext reject bodies seen per audited hop.
    offending_fields: Dict[Tuple[str, str], List[str]] = field(default_factory=dict)
    rejects_observed: int = 0

    def observe(self, record: FlowRecord, payload: Any) -> None:
        """Wiretap hook: inspect one in-flight message."""
        status = getattr(payload, "status", None)
        ok = getattr(payload, "ok", True)
        if status is None or ok:
            return
        hop = hop_of(record)
        if hop not in REJECT_HOPS:
            return
        from repro.overload.shedding import is_uniform_reject

        self.rejects_observed += 1
        self.reject_sizes.setdefault(hop, set()).add(record.size_bytes)
        fields = getattr(payload, "fields", {})
        sealed = "sealed_resp" in fields
        if not sealed and not is_uniform_reject(payload):
            self.offending_fields.setdefault(hop, []).append(
                f"status={status} fields={sorted(fields)}"
            )

    def violations(self) -> List[str]:
        """Human-readable audit findings (empty means clean)."""
        found: List[str] = []
        for hop, sizes in sorted(self.reject_sizes.items()):
            if len(sizes) > 1:
                found.append(
                    f"{hop[0]}->{hop[1]}: rejects with distinct sizes {sorted(sizes)}"
                )
        for hop, offenders in sorted(self.offending_fields.items()):
            sample = offenders[0]
            found.append(
                f"{hop[0]}->{hop[1]}: {len(offenders)} non-canonical reject "
                f"bodies (e.g. {sample})"
            )
        return found
