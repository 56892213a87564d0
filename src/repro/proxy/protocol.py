"""The PProx wire protocol: field transformations of §4.2.

Pure functions implementing the request/response lifecycles of
Figures 3 and 4.  Each function takes the crypto provider, the key
material visible at that stage, and a message, and returns the
transformed message — the layer instances in
:mod:`repro.proxy.layers` wire these into the simulated data plane.

Field naming on the JSON wire (paper protocol):

==========  =========================================================
``user``    client->UA: ``enc(u, pkUA)``; UA->IA and IA->LRS:
            ``det_enc(u, kUA)`` (base64)
``item``    client->IA (through UA, opaque to it): ``enc(i, pkIA)``;
            IA->LRS: ``det_enc(i, kIA)`` (or cleartext if item
            pseudonymization is disabled)
``tmpkey``  get only, client->IA: ``enc(k_u, pkIA)``
``items``   LRS->IA: recommendation list (pseudonymous identifiers)
``blob``    IA->client (through UA, opaque to it):
            ``enc(padded item list, k_u)``
==========  =========================================================

**Hardened client hop** (``PProxConfig.harden_client_hop``, an
extension beyond the paper): the client wraps its entire request in
``sealed = enc({fields, resp_key}, pkUA)`` and the UA re-encrypts the
response as ``sealed_resp = enc(fields, resp_key)``.  This closes the
wire-level variant of §6.1 case 2 in which an adversary holding
``skIA`` reads ``enc(i, pkIA)`` / ``enc(k_u, pkIA)`` directly off the
client->UA wire, where the client's address is visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.crypto.envelope import (
    MAX_RECOMMENDATIONS,
    EnvelopeCodec,
    decode_identifier,
    encode_identifier,
    pad_encoded_items,
    strip_padding_items,
)
from repro.crypto.keys import LayerKeys, LayerPublicMaterial
from repro.crypto.provider import CryptoProvider
from repro.proxy.config import PProxConfig
from repro.rest.codec import JSON_WIRE_CODEC, WireCodec
from repro.rest.messages import Request, Response, Verb

__all__ = [
    "ClientMaterial",
    "CallKeys",
    "client_encode_post",
    "client_encode_get",
    "client_decode_response",
    "ua_transform_request",
    "ua_wrap_response",
    "ia_transform_request",
    "IaRequestContext",
    "ia_transform_response",
    "tenant_of",
]


@dataclass(frozen=True)
class ClientMaterial:
    """What the user-side library knows: both layers' public keys."""

    ua: LayerPublicMaterial
    ia: LayerPublicMaterial


@dataclass(frozen=True)
class CallKeys:
    """Per-call keys the user-side library keeps until the response.

    ``temporary_key`` is the paper's ``k_u`` (gets only);
    ``response_key`` exists only in the hardened-hop extension.
    """

    temporary_key: Optional[bytes] = None
    response_key: Optional[bytes] = None


#: The keys of a call that carries none (encryption off, or a post
#: without the hardened hop); frozen, so every such call shares it.
_NO_CALL_KEYS = CallKeys()


# ---------------------------------------------------------------- client


def _seal_for_ua(
    provider: CryptoProvider,
    material: ClientMaterial,
    fields: Dict[str, str],
    codec: WireCodec,
) -> Tuple[Dict[str, str], bytes]:
    """Wrap *fields* in the hardened-hop envelope under ``pkUA``."""
    response_key = provider.new_temporary_key()
    sealed = provider.asym_encrypt(material.ua, codec.pack_envelope(fields, response_key))
    return {"sealed": codec.wire_value(sealed)}, response_key


def client_encode_post(
    provider: CryptoProvider,
    material: ClientMaterial,
    config: PProxConfig,
    request: Request,
    *,
    codec: WireCodec = JSON_WIRE_CODEC,
) -> Tuple[Request, CallKeys]:
    """User-side transformation of ``post(u, i[, p])`` (Figure 3)."""
    if not config.encryption:
        return request, _NO_CALL_KEYS
    user = request.fields["user"]
    item = request.fields["item"]
    item_field = codec.wire_value(provider.asym_encrypt(material.ia, encode_identifier(item)))
    if config.harden_client_hop:
        # Inside the sealed envelope the user id needs no separate
        # asymmetric layer: the envelope itself is under pkUA.
        inner = dict(request.fields)
        inner["user"] = codec.wire_value(encode_identifier(user))
        inner["item"] = item_field
        sealed_fields, response_key = _seal_for_ua(provider, material, inner, codec)
        return (
            request.with_fields(user=None, item=None, payload=None, **sealed_fields),
            CallKeys(response_key=response_key),
        )
    encoded = request.with_fields(
        user=codec.wire_value(provider.asym_encrypt(material.ua, encode_identifier(user))),
        item=item_field,
    )
    return encoded, _NO_CALL_KEYS


def client_encode_get(
    provider: CryptoProvider,
    material: ClientMaterial,
    config: PProxConfig,
    request: Request,
    *,
    codec: WireCodec = JSON_WIRE_CODEC,
) -> Tuple[Request, CallKeys]:
    """User-side transformation of ``get(u)`` (Figure 4).

    Generates the temporary key ``k_u`` the library must keep to
    decrypt the returned recommendation list.
    """
    if not config.encryption:
        return request, _NO_CALL_KEYS
    user = request.fields["user"]
    temporary_key = provider.new_temporary_key()
    tmpkey_field = codec.wire_value(provider.asym_encrypt(material.ia, temporary_key))
    if config.harden_client_hop:
        inner = dict(request.fields)
        inner["user"] = codec.wire_value(encode_identifier(user))
        inner["tmpkey"] = tmpkey_field
        sealed_fields, response_key = _seal_for_ua(provider, material, inner, codec)
        return (
            request.with_fields(user=None, **sealed_fields),
            CallKeys(temporary_key=temporary_key, response_key=response_key),
        )
    encoded = request.with_fields(
        user=codec.wire_value(provider.asym_encrypt(material.ua, encode_identifier(user))),
        tmpkey=tmpkey_field,
    )
    return encoded, CallKeys(temporary_key=temporary_key)


def client_decode_response(
    provider: CryptoProvider,
    config: PProxConfig,
    response: Response,
    keys: CallKeys,
    *,
    codec: WireCodec = JSON_WIRE_CODEC,
) -> List[str]:
    """Recover the cleartext recommendation list at the user side."""
    if not response.ok:
        raise ValueError(f"LRS returned status {response.status}")
    if not config.encryption:
        return list(response.fields.get("items", []))
    fields = response.fields
    if config.harden_client_hop:
        if keys.response_key is None:
            raise ValueError("missing response key for a hardened response")
        sealed = codec.blob_value(fields["sealed_resp"])
        fields = codec.unpack_response_fields(
            provider.sym_decrypt(keys.response_key, sealed)
        )
    if "blob" not in fields:
        # Every layer answers an ok get with a blob, padded list or not:
        # a response without one was stripped or tampered with on the way.
        raise ValueError("encrypted get response carries no blob")
    if keys.temporary_key is None:
        raise ValueError("missing temporary key for an encrypted get response")
    blob = codec.blob_value(fields["blob"])
    item_blobs = codec.unpack_items(provider.sym_decrypt(keys.temporary_key, blob))
    items = EnvelopeCodec.decode_identifiers(item_blobs)
    return strip_padding_items(items)


# ---------------------------------------------------------------- UA layer


def ua_transform_request(
    provider: CryptoProvider,
    keys: Optional[LayerKeys],
    config: PProxConfig,
    request: Request,
    layer_address: str,
    *,
    codec: WireCodec = JSON_WIRE_CODEC,
) -> Tuple[Request, Optional[bytes]]:
    """UA leg: replace the user identity with ``det_enc(u, kUA)``.

    Returns the forwarded request plus (in the hardened mode) the
    client's response key, which the UA must keep to re-encrypt the
    response.  Also rewrites the request's source to the UA instance
    itself — the IA layer must never learn client addresses (§3).
    """
    response_key: Optional[bytes] = None
    if not config.encryption:
        transformed = request
    elif config.harden_client_hop:
        inner, response_key = codec.unpack_envelope(
            provider.asym_decrypt(keys, codec.blob_value(request.fields["sealed"]))
        )
        user_plain = codec.blob_value(inner["user"])
        # The user pseudonym stays base64 text under every codec: it
        # is the identifier the LRS stores (paper §5).
        inner["user"] = EnvelopeCodec.wire_text(
            provider.pseudonymize(keys.symmetric_key, user_plain)
        )
        transformed = Request(
            verb=request.verb,
            fields=inner,
            request_id=request.request_id,
            client_address=request.client_address,
        )
    else:
        user_plain = provider.asym_decrypt(keys, codec.blob_value(request.fields["user"]))
        pseudonym = provider.pseudonymize(keys.symmetric_key, user_plain)
        transformed = request.with_fields(user=EnvelopeCodec.wire_text(pseudonym))
    # Hide the origin: downstream only sees the proxy as the source.
    return transformed.readdressed(layer_address), response_key


def ua_wrap_response(
    provider: CryptoProvider,
    config: PProxConfig,
    response_key: Optional[bytes],
    response: Response,
    *,
    codec: WireCodec = JSON_WIRE_CODEC,
) -> Response:
    """Hardened mode: re-encrypt the response fields for the client."""
    if not config.harden_client_hop or response_key is None:
        return response
    sealed = provider.sym_encrypt(
        response_key, codec.pack_response_fields(response.fields)
    )
    return Response(
        status=response.status,
        fields={"sealed_resp": codec.wire_value(sealed)},
        request_id=response.request_id,
    )


# ---------------------------------------------------------------- IA layer


#: Tenant label used by single-application deployments.
DEFAULT_TENANT = "default"


def tenant_of(request: Request) -> str:
    """The (public) application identity a request belongs to."""
    tenant = request.fields.get("tenant")
    return tenant if isinstance(tenant, str) else DEFAULT_TENANT


@dataclass(frozen=True)
class IaRequestContext:
    """Per-request state the IA layer keeps for the response path."""

    verb: str
    temporary_key: Optional[bytes]
    #: Application identity (multi-tenant deployments, §6.3).
    tenant: str = DEFAULT_TENANT


def ia_transform_request(
    provider: CryptoProvider,
    keys: Optional[LayerKeys],
    config: PProxConfig,
    request: Request,
    layer_address: str,
    *,
    codec: WireCodec = JSON_WIRE_CODEC,
) -> Tuple[Request, IaRequestContext]:
    """IA leg: decrypt item / temporary key; pseudonymize items.

    The outgoing request carries only pseudonymous identifiers; the
    temporary key (for gets) stays inside the enclave, recorded in the
    returned context.
    """
    if not config.encryption:
        return request.readdressed(layer_address), IaRequestContext(
            verb=request.verb, temporary_key=None, tenant=tenant_of(request)
        )

    if request.verb == Verb.POST:
        item_plain = provider.asym_decrypt(keys, codec.blob_value(request.fields["item"]))
        if config.item_pseudonymization:
            # Like the user pseudonym, the item pseudonym is base64
            # text under every codec — it continues into the LRS store.
            item_field = EnvelopeCodec.wire_text(
                provider.pseudonymize(keys.symmetric_key, item_plain)
            )
        else:
            # §6.3: algorithms needing cleartext items can disable
            # pseudonymization at a privacy cost.
            item_field = decode_identifier(item_plain)
        transformed = request.with_fields(item=item_field)
        context = IaRequestContext(
            verb=Verb.POST, temporary_key=None, tenant=tenant_of(request)
        )
    else:
        temporary_key = provider.asym_decrypt(keys, codec.blob_value(request.fields["tmpkey"]))
        transformed = request.with_fields(tmpkey=None)
        context = IaRequestContext(
            verb=Verb.GET, temporary_key=temporary_key, tenant=tenant_of(request)
        )

    return transformed.readdressed(layer_address), context


def ia_transform_response(
    provider: CryptoProvider,
    keys: Optional[LayerKeys],
    config: PProxConfig,
    context: IaRequestContext,
    response: Response,
    *,
    previous: Optional[LayerKeys] = None,
    on_previous_use: Optional[Callable[[], None]] = None,
    codec: WireCodec = JSON_WIRE_CODEC,
) -> Response:
    """IA response leg: de-pseudonymize, pad, re-encrypt under ``k_u``.

    Each de-pseudonymized identifier is checked with
    :func:`decode_identifier` and then packed as the fixed-size encoding
    it already is (decoding and re-encoding it is the identity), padded
    with the pre-encoded pseudo-items of :func:`pad_encoded_items`.

    During a dual-epoch window *previous* carries the outgoing epoch's
    keys: the LRS may still return pseudonyms minted under them while
    the background re-encryption is catching up, so each entry falls
    back to the previous symmetric key when the active one cannot
    resolve it.  *on_previous_use* fires once per response that needed
    the fallback — the rotation coordinator uses it to know the old
    epoch is still live and must not be retired yet.

    An accepted POST is answered with the canonical empty
    acknowledgement whatever the LRS put in its body: the ack rides
    both protected hops back to the client, where the address is
    visible, and an LRS-chosen body would be an LRS-chosen size on
    them (§4.3's constant-size rule).  Failures pass through and are
    rewritten to the uniform reject by the caller.
    """
    if context.verb == Verb.POST and response.ok:
        return Response(status=response.status, fields={}, request_id=response.request_id)
    if not config.encryption or context.verb == Verb.POST or not response.ok:
        return response
    raw_items = response.fields.get("items", [])
    if config.item_pseudonymization and previous is not None:
        identifiers = []
        fell_back = False
        for item in raw_items:
            pseudonym = EnvelopeCodec.wire_blob(item)
            try:
                identifier = provider.depseudonymize(keys.symmetric_key, pseudonym)
                decode_identifier(identifier)
            except Exception:
                identifier = provider.depseudonymize(previous.symmetric_key, pseudonym)
                decode_identifier(identifier)
                fell_back = True
            identifiers.append(identifier)
        if fell_back and on_previous_use is not None:
            on_previous_use()
    elif config.item_pseudonymization:
        # One batched provider call for the whole 20-entry list: lets
        # providers amortize per-call overhead and hit the pseudonym
        # memo in a tight loop.  Every entry is checked, kept or not.
        pseudonyms = EnvelopeCodec.wire_blob_entries(raw_items)
        identifiers = provider.depseudonymize_many(keys.symmetric_key, pseudonyms)
        for identifier in identifiers:
            decode_identifier(identifier)
    else:
        identifiers = EnvelopeCodec.encode_identifiers(list(raw_items)[:MAX_RECOMMENDATIONS])
    # Fixed-size entries, padded to a fixed count: the blob length never
    # depends on the list (§4.3's constant-size requirement).
    blob = provider.sym_encrypt(
        context.temporary_key,
        codec.pack_items(pad_encoded_items(identifiers[:MAX_RECOMMENDATIONS])),
    )
    return Response(
        status=response.status,
        fields={"blob": codec.wire_value(blob)},
        request_id=response.request_id,
    )
