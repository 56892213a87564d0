"""Mechanical User-Interest unlinkability checking (paper §6.1).

:class:`KnowledgeEngine` computes the *closure* of what the adversary
can derive from its observation surface: it applies every stolen key
to every observed field, reads the LRS database with whatever
pseudonym keys it holds, exploits traffic correlations where the
deployment permits them (no shuffling), and finally reports every
``(user identity, cleartext item)`` pair it could establish.

A user identity is either a user identifier recovered by decryption
or a client network address (the paper counts "their identifier or
any unique characteristic, e.g., their IP address" as identifying).

The six cases of §6.1 are reproduced by configuring which layer's
secrets the engine holds; the test-suite asserts the closure is empty
in every single-layer-compromise case and demonstrates non-emptiness
when the model's assumptions are broken (both layers compromised, or
shuffling disabled under traffic correlation).

With no key, the adversary still knows the (cleartext, pseudonym) pairs
of its own account's rows: the engine tries each pair's XOR as a pad on
every pseudonym (the paper's constant-IV CTR falls to it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto.envelope import (
    FIXED_ID_BYTES,
    EnvelopeCodec,
    decode_identifier,
    encode_identifier,
    strip_padding_items,
    _unb64,
)
from repro.crypto.keys import LayerKeys
from repro.crypto.provider import CryptoProvider
from repro.crypto.xor import xor_bytes
from repro.lrs.store import FeedbackEvent
from repro.privacy.adversary import Adversary, ObservedMessage
from repro.rest.codec import BINARY_WIRE_CODEC

__all__ = ["KnowledgeEngine", "Link", "fifo_correlation"]

Link = Tuple[str, str]  # (user identity, cleartext item)


def _try(fn, *args):
    """Run a decryption attempt; failures simply yield None."""
    try:
        return fn(*args)
    except Exception:
        return None


def _material(value: Any) -> Optional[bytes]:
    """A wire field as ciphertext bytes, whatever the codec.

    The JSON codec carries blobs base64-encoded; the binary codec
    carries them raw.  ``None`` means the value is not blob material
    (e.g. a cleartext identifier under a no-encryption config).
    """
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    if isinstance(value, str):
        return _try(_unb64, value)
    return None


def fifo_correlation(
    requests: Sequence[ObservedMessage], responses: Sequence[ObservedMessage]
) -> List[Tuple[ObservedMessage, ObservedMessage]]:
    """Pair requests and responses by arrival order.

    This models the traffic-correlation attack of §4.3: when a proxy
    layer forwards in FIFO order (no shuffling), the adversary matches
    the i-th inbound message with the i-th outbound one.  Under
    shuffling the ordering carries no information and this pairing is
    wrong with probability (S-1)/S — the engine must then not be fed
    such a correlation.
    """
    return list(zip(requests, responses))


@dataclass
class KnowledgeEngine:
    """Derives all (user, item) links obtainable by the adversary."""

    provider: CryptoProvider
    ua_keys: Optional[LayerKeys] = None
    ia_keys: Optional[LayerKeys] = None
    #: The application's public item catalog; cleartext item fields
    #: (item pseudonymization disabled) resolve through membership.
    catalog: Set[str] = field(default_factory=set)
    #: (cleartext identifier, stored pseudonym) pairs known with no key:
    #: the rows the adversary's own account wrote.
    known_pairs: Sequence[Tuple[str, Any]] = ()
    #: The adversary's own user ids: links to them are no breach.
    own_accounts: Set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        blobs = ((identifier, _material(value)) for identifier, value in self.known_pairs)
        self._pads = [xor_bytes(encode_identifier(identifier), blob)
                      for identifier, blob in blobs if blob is not None]

    @classmethod
    def for_adversary(cls, adversary: Adversary, provider: CryptoProvider,
                      catalog: Optional[Set[str]] = None) -> "KnowledgeEngine":
        """Build an engine from a live adversary's stolen material."""
        return cls(
            provider=provider,
            ua_keys=adversary.ua_keys,
            ia_keys=adversary.ia_keys,
            catalog=catalog or set(),
            known_pairs=tuple(adversary.known_pairs),
            own_accounts=set(adversary.own_accounts),
        )

    # -- field resolution ------------------------------------------------

    def resolve_user(self, value: Any) -> Optional[str]:
        """Try to turn a ``user`` field into a cleartext identifier."""
        if isinstance(value, str) and self.catalog and value in self.catalog:
            return None  # an item, not a user
        blob = _material(value)
        if blob is None:
            # Cleartext user id (encryption disabled): identity as-is.
            return value if isinstance(value, str) else None
        # Plain-encoded identifier (hardened envelopes carry the user
        # id base64-encoded but not separately encrypted).
        decoded = _try(decode_identifier, blob)
        if decoded is not None:
            return decoded
        return self._open(self.ua_keys, blob)

    def resolve_item(self, value: Any) -> Optional[str]:
        """Try to turn an ``item`` field into a cleartext identifier."""
        if isinstance(value, str) and value in self.catalog:
            # Cleartext item (pseudonymization disabled): read directly.
            return value
        blob = _material(value)
        if blob is None:
            return None
        return self._open(self.ia_keys, blob)

    def _open(self, keys: Optional[LayerKeys], blob: bytes) -> Optional[str]:
        """*blob* as an identifier: opened with a layer's stolen secrets
        (private key, then pseudonym key), else by a known pair's pad —
        every pseudonym under a one-keystream cipher, only its own under a PRP."""
        if keys is not None:
            for open_with, key in ((self.provider.asym_decrypt, keys),
                                   (self.provider.depseudonymize, keys.symmetric_key)):
                plain = _try(open_with, key, blob)
                decoded = None if plain is None else _try(decode_identifier, plain)
                if decoded is not None:
                    return decoded
        for pad in self._pads:
            decoded = _try(decode_identifier, xor_bytes(blob, pad))
            if decoded is not None:
                return decoded
        return None

    def resolve_temporary_key(self, value: Any) -> Optional[bytes]:
        """Recover ``k_u`` from a ``tmpkey`` field (needs IA secrets)."""
        if self.ia_keys is None:
            return None
        blob = _material(value)
        if blob is None:
            return None
        return _try(self.provider.asym_decrypt, self.ia_keys, blob)

    def unseal(self, fields: Dict[str, Any]) -> Tuple[Dict[str, Any], Optional[bytes]]:
        """Open a hardened-hop envelope with stolen UA secrets.

        Returns the inner fields plus the client's response key, or
        ``(fields, None)`` unchanged when nothing can be opened.
        """
        if self.ua_keys is None:
            return fields, None
        blob = _material(fields.get("sealed"))
        if blob is None:
            return fields, None
        plain = _try(self.provider.asym_decrypt, self.ua_keys, blob)
        if plain is None:
            return fields, None
        # Binary-codec envelope: self-describing field entries.
        unpacked = _try(BINARY_WIRE_CODEC.unpack_envelope, plain)
        if unpacked is not None:
            return unpacked
        payload = _try(json.loads, plain.decode("utf-8", errors="replace"))
        if not isinstance(payload, dict):
            return fields, None
        inner = payload.get("fields")
        response_key = _try(_unb64, payload.get("resp_key", ""))
        return (inner if isinstance(inner, dict) else fields), response_key

    def harvest_keys(
        self, observations: Sequence[ObservedMessage]
    ) -> Tuple[List[bytes], List[bytes]]:
        """All temporary keys and response keys recoverable on the wire.

        With ``skIA``, every ``tmpkey`` field yields a ``k_u``; with
        ``skUA``, every sealed envelope yields the response key.  The
        adversary can then attempt *trial decryption* of any observed
        blob against the full harvested key set — no per-request
        correlation needed.
        """
        temporary_keys: List[bytes] = []
        response_keys: List[bytes] = []
        for message in observations:
            fields, response_key = self.unseal(message.fields)
            if response_key is not None:
                response_keys.append(response_key)
            key = self.resolve_temporary_key(fields.get("tmpkey"))
            if key is not None:
                temporary_keys.append(key)
            for inner in self.open_batch_frames(message.fields):
                key = self.resolve_temporary_key(inner.get("tmpkey"))
                if key is not None:
                    temporary_keys.append(key)
        return temporary_keys, response_keys

    def open_batch_frames(self, fields: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Open a ``sealed_batch`` blob with stolen IA secrets.

        Batch-envelope mode seals a whole shuffle flush under ``pkIA``;
        an adversary holding ``skIA`` recovers every inner request's
        fields (exactly what a compromised IA enclave would see).
        Without those secrets the blob is opaque and yields nothing.
        """
        blob = _material(fields.get("sealed_batch"))
        if blob is None or self.ia_keys is None:
            return []
        opener = EnvelopeCodec(self.provider)
        frames = _try(opener.open_batch, self.ia_keys, blob)
        if frames is None:
            return []
        inner_fields: List[Dict[str, Any]] = []
        for frame in frames:
            decoded = _try(BINARY_WIRE_CODEC.decode_request, frame)
            if decoded is not None:
                inner_fields.append(dict(decoded.fields))
        return inner_fields

    def _trial_decrypt_items(self, blob_field: Any, keys: Sequence[bytes]) -> List[str]:
        """Try every harvested key against an encrypted item list."""
        blob = _material(blob_field)
        if blob is None:
            return []
        for key in keys:
            plain = _try(self.provider.sym_decrypt, key, blob)
            if plain is None:
                continue
            decoded = _try(json.loads, plain.decode("utf-8", errors="replace"))
            if isinstance(decoded, list) and all(isinstance(i, str) for i in decoded):
                items = []
                for entry in decoded:
                    raw = _try(_unb64, entry)
                    text = _try(decode_identifier, raw) if raw is not None else None
                    items.append(text if text is not None else entry)
                return strip_padding_items(items)
            # Binary-codec item payload: a raw concatenation of
            # fixed-size encoded identifiers (no base64, no JSON).
            if len(plain) and len(plain) % FIXED_ID_BYTES == 0:
                items = []
                for start in range(0, len(plain), FIXED_ID_BYTES):
                    text = _try(decode_identifier, plain[start:start + FIXED_ID_BYTES])
                    if text is None:
                        items = None
                        break
                    items.append(text)
                if items is not None:
                    return strip_padding_items(items)
        return []

    def resolve_items_list(self, message: ObservedMessage,
                           temporary_key: Optional[bytes] = None) -> List[str]:
        """All cleartext items extractable from a response message."""
        items: List[str] = []
        for value in message.fields.get("items", []):
            resolved = self.resolve_item(value)
            if resolved is not None:
                items.append(resolved)
        blob_field = message.fields.get("blob")
        if blob_field is not None and temporary_key is not None:
            items.extend(self._trial_decrypt_items(blob_field, [temporary_key]))
        return items

    # -- identity from metadata -------------------------------------------

    @staticmethod
    def message_identity(message: ObservedMessage) -> Optional[str]:
        """Client identity visible from flow endpoints, if any."""
        if message.source_role == "client":
            return message.source
        if message.destination_role == "client":
            return message.destination
        return None

    # -- closure ------------------------------------------------------------

    def derive_links(
        self,
        observations: Sequence[ObservedMessage],
        lrs_dump: Sequence[FeedbackEvent] = (),
        correlations: Sequence[Tuple[ObservedMessage, ObservedMessage]] = (),
    ) -> Set[Link]:
        """The full set of (identity, item) links the adversary gets."""
        links: Set[Link] = set()
        temporary_keys, response_keys = self.harvest_keys(observations)

        # 1. Per-message: both sides resolvable within one observation.
        for message in observations:
            fields, _ = self.unseal(message.fields)
            # Batch envelopes: with skIA the whole flush opens, and
            # every inner request is mined like a direct observation
            # (exactly what a compromised IA enclave would see).
            for inner in self.open_batch_frames(fields):
                inner_identity = self.resolve_user(inner.get("user"))
                if inner_identity is None:
                    inner_identity = self.message_identity(message)
                if inner_identity is None:
                    continue
                inner_item = self.resolve_item(inner.get("item"))
                if inner_item is not None:
                    links.add((inner_identity, inner_item))
            identity = self.resolve_user(fields.get("user"))
            if identity is None:
                identity = self.message_identity(message)
            if identity is None:
                continue
            item = self.resolve_item(fields.get("item"))
            if item is not None:
                links.add((identity, item))
            temporary_key = self.resolve_temporary_key(fields.get("tmpkey"))
            for resolved in self.resolve_items_list(message, temporary_key):
                links.add((identity, resolved))
            # Trial decryption with every harvested key: a response
            # blob travelling next to a client address falls to the
            # full set of k_u keys recovered anywhere on the wire.
            inner_fields = fields
            blob = _material(fields.get("sealed_resp"))
            if blob is not None:
                for key in response_keys:
                    plain = _try(self.provider.sym_decrypt, key, blob)
                    if plain is None:
                        continue
                    decoded = _try(BINARY_WIRE_CODEC.unpack_response_fields, plain)
                    if decoded is None:
                        decoded = _try(
                            json.loads, plain.decode("utf-8", errors="replace")
                        )
                    if isinstance(decoded, dict):
                        inner_fields = decoded
                        break
            for resolved in self._trial_decrypt_items(
                inner_fields.get("blob"), temporary_keys
            ):
                links.add((identity, resolved))

        # 2. LRS database: pseudonymous rows, resolvable per layer key.
        for event in lrs_dump:
            identity = self.resolve_user(event.user)
            item = self.resolve_item(event.item)
            if identity is not None and item is not None:
                links.add((identity, item))

        # 3. Traffic correlation: identity from one side of the pair,
        #    items from the other.
        for request, response in correlations:
            identity = self.resolve_user(request.fields.get("user"))
            if identity is None:
                identity = self.message_identity(request)
            if identity is None:
                continue
            item = self.resolve_item(response.fields.get("item"))
            if item is not None:
                links.add((identity, item))
            item = self.resolve_item(request.fields.get("item"))
            if item is not None:
                links.add((identity, item))
            temporary_key = self.resolve_temporary_key(request.fields.get("tmpkey"))
            for resolved in self.resolve_items_list(response, temporary_key):
                links.add((identity, resolved))

        return {link for link in links if link[0] not in self.own_accounts}
