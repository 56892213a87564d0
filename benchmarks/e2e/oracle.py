"""Output checks and invariants, run on every workload.

The oracle never shares state with the deployment it checks: it
pseudonymizes through its own provider instance (so the deployment's
pseudonym-memo counters are untouched) and reads the LRS only after
the timed window.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.client.library import CompletedCall
from repro.crypto.envelope import EnvelopeCodec, decode_identifier, encode_identifier
from repro.crypto.provider import RealCryptoProvider
from repro.lrs.stub import STATIC_ITEMS, StubLrs
from repro.proxy.config import PProxConfig
from repro.rest.messages import Request, Verb

__all__ = ["Oracle", "RecordingStub"]


@dataclass
class RecordingStub(StubLrs):
    """The stub LRS, remembering the (user, item) fields of every post
    it is handed — the stub itself keeps no store to inspect."""

    posts: List[Tuple[Any, Any]] = field(default_factory=list)

    def handle(self, request: Request, reply) -> None:
        if request.verb == Verb.POST:
            self.posts.append((request.fields.get("user"), request.fields.get("item")))
        super().handle(request, reply)


class Oracle:
    """Counts wrong outputs (``mismatches``) and broken invariants."""

    def __init__(self, config: PProxConfig, layer_keys: Dict[str, Any]) -> None:
        self.config = config
        self._keys = layer_keys
        self._provider = RealCryptoProvider()
        self.mismatches = 0
        self.violations: List[str] = []

    # -- what the LRS must see -------------------------------------------

    def _pseudonym(self, layer: str, identifier: str) -> str:
        return EnvelopeCodec.wire_text(
            self._provider.pseudonymize(
                self._keys[layer].symmetric_key, encode_identifier(identifier)
            )
        )

    def lrs_user(self, user: str) -> str:
        """*user* as the LRS stores it."""
        return self._pseudonym("UA", user) if self.config.encryption else user

    def lrs_item(self, item: str) -> str:
        """*item* as the LRS stores it."""
        return self._pseudonym("IA", item) if self.config.item_pseudonymization else item

    def client_item(self, stored: str) -> str:
        """Cleartext of an item identifier the LRS answered with."""
        if not self.config.item_pseudonymization:
            return stored
        return decode_identifier(
            self._provider.depseudonymize(
                self._keys["IA"].symmetric_key, EnvelopeCodec.wire_blob(stored)
            )
        )

    # -- per-call checks -------------------------------------------------

    def stub_get(self, call: CompletedCall) -> None:
        """Streaming check for the stub: a completed get decodes to the
        static payload.  A response routed to the wrong caller by the
        shuffle fails here, because only its own caller holds ``k_u``."""
        if call.ok and call.verb == Verb.GET and call.items != STATIC_ITEMS:
            self.mismatches += 1

    def harness_gets(self, calls: Iterable[CompletedCall], engine: Any) -> None:
        """Each completed get equals the cleartext of what the engine
        answers for that user's pseudonym (the store does not change
        during the get phase, so asking after the run is asking the
        same question)."""
        for call in calls:
            if not call.ok:
                continue
            expected = [
                self.client_item(item)
                for item in engine.get_recommendations(self.lrs_user(call.user))
            ]
            if call.items != expected:
                self.mismatches += 1

    def posts(
        self,
        issued: Sequence[Tuple[str, str]],
        completed: int,
        stored: Sequence[Tuple[Any, Any]],
    ) -> None:
        """Each completed post added exactly one pseudonymous event.

        Every issued post completed on these workloads, so the stored
        multiset must equal the pseudonyms of the issued one; any
        shortfall or surplus counts once per event.
        """
        expected = Counter((self.lrs_user(user), self.lrs_item(item)) for user, item in issued)
        seen = Counter(stored)
        wrong = sum(((expected - seen) + (seen - expected)).values())
        self.mismatches += wrong
        if len(stored) != completed:
            self.violations.append(
                f"{completed} posts completed but the store grew by {len(stored)}"
            )

    # -- invariants ------------------------------------------------------

    def accounting(self, verb: str, issued: int, completed: int, failed: int, wanted: int) -> int:
        """issued = completed + failed; returns calls that never completed."""
        if issued != wanted:
            self.violations.append(f"{verb}: {wanted} arrivals scheduled, {issued} issued")
        lost = issued - completed - failed
        if lost:
            self.violations.append(f"{verb}: {lost} call(s) never completed")
        return lost

    def flushes(
        self,
        flushes: Sequence[Tuple[float, int, bool]],
        load_windows: Sequence[Tuple[float, float]],
    ) -> None:
        """While load is offered, every released flush holds >= S entries
        (partial batches flushed by the timer in a phase's drain tail,
        after its last arrival, are what the timer is for)."""
        size = self.config.shuffle_size
        thin = [
            entries
            for when, entries, _ in flushes
            if entries < size and any(start <= when < end for start, end in load_windows)
        ]
        if thin:
            self.violations.append(
                f"{len(thin)} flush(es) under load below S={size} (smallest {min(thin)})"
            )
