"""The PProx adversary (paper §2.3, Figure 2 ➊-➍).

The adversary observes everything inside the RaaS cloud: all network
flows (metadata *and* bodies — it bypasses TLS), the full content of
the LRS database, and — after a successful side-channel campaign —
the sealed secrets of the enclaves of *one* proxy layer.  It does not
interfere with the system's functionality.

:class:`Adversary` collects those observations from a live
simulation; the inference machinery that turns observations + stolen
secrets into (user, item) links lives in
:mod:`repro.privacy.unlinkability`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.crypto.keys import LayerKeys
from repro.lrs.store import EventStore, FeedbackEvent
from repro.rest.codec import BatchEnvelope, WireFrame
from repro.rest.messages import Request, Response
from repro.sgx.enclave import Enclave
from repro.sgx.provisioning import IA_SECRET_K, IA_SECRET_SK, UA_SECRET_K, UA_SECRET_SK
from repro.sgx.sidechannel import SingleEnclaveInvariant
from repro.simnet.network import UNKNOWN_ROLE, FlowRecord, Network

__all__ = ["ObservedMessage", "Adversary"]

#: The hops past the shuffle, where identifiers travel as pseudonyms.
INNER_HOPS = (("ua", "ia"), ("ia", "lrs"))


@dataclass(frozen=True)
class ObservedMessage:
    """One wire observation: flow metadata plus the (encrypted) body.

    Deliberately excludes the simulator's ``request_id`` — that is
    harness bookkeeping the adversary must never exploit.  Joining
    observations across hops is only possible through field-value
    equality or timing, exactly as in the paper's model.
    """

    time: float
    source: str
    destination: str
    size_bytes: int
    kind: str  # "request" | "response"
    verb: Optional[str]
    fields: Dict[str, Any]
    status: Optional[int] = None
    #: The role directory's name for each endpoint, copied from the
    #: :class:`FlowRecord` (what :func:`repro.privacy.wire.hop_of` reads).
    source_role: str = UNKNOWN_ROLE
    destination_role: str = UNKNOWN_ROLE


@dataclass
class Adversary:
    """Collects the full observation surface of the paper's adversary."""

    observations: List[ObservedMessage] = field(default_factory=list)
    flow_records: List[FlowRecord] = field(default_factory=list)
    #: Stolen key material per layer ("UA" / "IA"); at most one layer
    #: may be live at a time (enforced via the invariant tracker).
    stolen: Dict[str, LayerKeys] = field(default_factory=dict)
    invariant: SingleEnclaveInvariant = field(default_factory=SingleEnclaveInvariant)
    lrs_store: Optional[EventStore] = None
    #: (cleartext, stored pseudonym) pairs of the rows the adversary's
    #: own account wrote, and that account's user ids.
    known_pairs: List[Tuple[str, str]] = field(default_factory=list)
    own_accounts: Set[str] = field(default_factory=set)

    # -- observation capture -------------------------------------------

    def attach(self, network: Network) -> None:
        """Start observing all traffic on *network*."""
        network.add_wiretap(self._capture)

    def observe_lrs(self, store: EventStore) -> None:
        """Gain read access to the LRS database (Figure 2 ➋)."""
        self.lrs_store = store

    def _capture(self, record: FlowRecord, payload: Any) -> None:
        self.flow_records.append(record)
        if isinstance(payload, WireFrame):
            # The adversary reads bodies (it bypasses TLS); a public
            # wire format is no obstacle, so decode the frame and mine
            # its fields like any JSON body.
            payload = payload.decode()
        if isinstance(payload, BatchEnvelope):
            # A sealed shuffle batch: one hybrid ciphertext.  The
            # simulator-side request ids/verbs riding on the object are
            # bookkeeping the adversary never sees.
            kind, verb, status = "request", None, None
            fields: Dict[str, Any] = {"sealed_batch": payload.blob}
        elif isinstance(payload, Request):
            kind, verb, status = "request", payload.verb, None
            fields = dict(payload.fields)
        elif isinstance(payload, Response):
            kind, verb, status = "response", None, payload.status
            fields = dict(payload.fields)
        else:
            return
        self.observations.append(
            ObservedMessage(
                time=record.time,
                source=record.source,
                destination=record.destination,
                size_bytes=record.size_bytes,
                kind=kind,
                verb=verb,
                fields=fields,
                status=status,
                source_role=record.source_role,
                destination_role=record.destination_role,
            )
        )

    def claim_own_post(self, user: str, item: str, since: int) -> None:
        """Learn the (cleartext, pseudonym) pairs of a rating the
        adversary posted from an account of its own, as any user may: the
        rows past index *since* of a store nobody else wrote meanwhile."""
        self.own_accounts.add(user)
        for event in self.lrs_dump()[since:]:
            self.known_pairs.append((user, event.user))
            self.known_pairs.append((item, event.item))

    # -- enclave compromise --------------------------------------------

    def harvest_enclave(self, layer: str, enclave: Enclave) -> None:
        """Record the secrets leaked by a compromised *layer* enclave.

        Raises :class:`repro.sgx.sidechannel.AttackModelError` if the
        adversary would end up holding live secrets of both layers —
        that is outside the paper's adversary model.
        """
        secrets = enclave.leak_secrets()
        self.invariant.record_leak(layer)
        if layer == "UA":
            self.stolen["UA"] = LayerKeys(
                private_key=secrets[UA_SECRET_SK],
                symmetric_key=secrets[UA_SECRET_K],
            )
        elif layer == "IA":
            self.stolen["IA"] = LayerKeys(
                private_key=secrets[IA_SECRET_SK],
                symmetric_key=secrets[IA_SECRET_K],
            )
        else:
            raise ValueError(f"unknown layer {layer!r}")

    def drop_secrets(self, layer: str) -> None:
        """Key rotation retired the stolen secrets of *layer*."""
        self.stolen.pop(layer, None)
        self.invariant.record_rotation(layer)

    # -- convenience views ----------------------------------------------

    @property
    def ua_keys(self) -> Optional[LayerKeys]:
        """Stolen UA secrets, if any."""
        return self.stolen.get("UA")

    @property
    def ia_keys(self) -> Optional[LayerKeys]:
        """Stolen IA secrets, if any."""
        return self.stolen.get("IA")

    def lrs_dump(self) -> List[FeedbackEvent]:
        """The database contents the adversary can read."""
        if self.lrs_store is None:
            return []
        return self.lrs_store.dump()

    def messages_at(self, role: str) -> List[ObservedMessage]:
        """Observations into or out of the instances playing *role*."""
        return [
            obs
            for obs in self.observations
            if role in (obs.source_role, obs.destination_role)
        ]

    def pseudonyms_observed(
        self, since: float = 0.0, until: Optional[float] = None
    ) -> Dict[str, Set[str]]:
        """Distinct user/item pseudonym strings seen on the inner hops.

        The cross-epoch linkage probe: collect the pseudonym sets the
        adversary observed before and after a key rotation and check
        they are disjoint — under the new symmetric keys, no wire
        identifier from the old epoch should ever reappear, so a key
        thief who harvested pre-rotation traffic cannot join it with
        post-rotation traffic by field-value equality.
        """
        seen: Dict[str, Set[str]] = {"user": set(), "item": set()}
        for obs in self.observations:
            if obs.kind != "request":
                continue
            if obs.time < since or (until is not None and obs.time > until):
                continue
            if (obs.source_role, obs.destination_role) not in INNER_HOPS:
                continue
            for name in ("user", "item"):
                value = obs.fields.get(name)
                if isinstance(value, str):
                    seen[name].add(value)
        return seen
