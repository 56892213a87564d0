"""Protocol transformations: the request/response lifecycles of §4.2."""

from __future__ import annotations

import pytest

from repro.crypto.envelope import MAX_RECOMMENDATIONS, EnvelopeCodec, encode_identifier
from repro.proxy import protocol
from repro.proxy.config import PProxConfig
from repro.rest.codec import JSON_WIRE_CODEC
from repro.rest.messages import Response, Verb
from tests.conftest import make_get, make_post

wire_text = EnvelopeCodec.wire_text

CONFIG = PProxConfig(shuffle_size=0)
HARDENED = PProxConfig(shuffle_size=0, harden_client_hop=True)
PLAIN = PProxConfig(encryption=False, sgx=False, shuffle_size=0)
NO_ITEM_PSEUDO = PProxConfig(shuffle_size=0, item_pseudonymization=False)


@pytest.fixture
def material(layer_keys, second_layer_keys):
    return protocol.ClientMaterial(
        ua=layer_keys.public_material, ia=second_layer_keys.public_material
    )


@pytest.fixture
def ua_keys(layer_keys):
    return layer_keys


@pytest.fixture
def ia_keys(second_layer_keys):
    return second_layer_keys


def test_post_lifecycle_figure3(any_provider, material, ua_keys, ia_keys):
    """End-to-end field transformations of Figure 3."""
    request = make_post("alice", "movie-1", client_address="client-alice")
    encoded, keys = protocol.client_encode_post(any_provider, material, CONFIG, request)
    # Client output: both fields are ciphertext, distinct from inputs.
    assert encoded.fields["user"] != "alice"
    assert encoded.fields["item"] != "movie-1"
    assert keys.temporary_key is None

    forwarded, response_key = protocol.ua_transform_request(
        any_provider, ua_keys, CONFIG, encoded, "pprox-ua-0"
    )
    assert response_key is None
    # UA pseudonymized the user: deterministic, so re-encoding the same
    # user yields the same wire value.
    again, _ = protocol.client_encode_post(
        any_provider, material, CONFIG, make_post("alice", "movie-2")
    )
    forwarded2, _ = protocol.ua_transform_request(
        any_provider, ua_keys, CONFIG, again, "pprox-ua-0"
    )
    assert forwarded.fields["user"] == forwarded2.fields["user"]
    # Item ciphertext passes through the UA untouched.
    assert forwarded.fields["item"] == encoded.fields["item"]
    # Origin hidden from the IA layer.
    assert forwarded.client_address == "pprox-ua-0"

    to_lrs, context = protocol.ia_transform_request(
        any_provider, ia_keys, CONFIG, forwarded, "pprox-ia-0"
    )
    assert context.verb == Verb.POST
    # Item now deterministic pseudonym: same item -> same value.
    third, _ = protocol.client_encode_post(
        any_provider, material, CONFIG, make_post("bob", "movie-1")
    )
    fwd3, _ = protocol.ua_transform_request(any_provider, ua_keys, CONFIG, third, "pprox-ua-0")
    to_lrs3, _ = protocol.ia_transform_request(any_provider, ia_keys, CONFIG, fwd3, "pprox-ia-0")
    assert to_lrs.fields["item"] == to_lrs3.fields["item"]
    # And the pseudonym is not the cleartext.
    assert to_lrs.fields["item"] != "movie-1"


def test_get_lifecycle_figure4(any_provider, material, ua_keys, ia_keys):
    """End-to-end field transformations of Figure 4."""
    request = make_get("alice", client_address="client-alice")
    encoded, keys = protocol.client_encode_get(any_provider, material, CONFIG, request)
    assert keys.temporary_key is not None
    assert "tmpkey" in encoded.fields

    forwarded, _ = protocol.ua_transform_request(
        any_provider, ua_keys, CONFIG, encoded, "pprox-ua-0"
    )
    # tmpkey passes through UA opaque.
    assert forwarded.fields["tmpkey"] == encoded.fields["tmpkey"]

    to_lrs, context = protocol.ia_transform_request(
        any_provider, ia_keys, CONFIG, forwarded, "pprox-ia-0"
    )
    # IA stripped the tmpkey and recovered k_u.
    assert "tmpkey" not in to_lrs.fields
    assert context.temporary_key == keys.temporary_key

    # LRS answers with pseudonymous items.
    pseudo_items = [
        wire_text(any_provider.pseudonymize(ia_keys.symmetric_key, encode_identifier(item)))
        for item in ("rec-1", "rec-2")
    ]
    lrs_response = Response(status=200, fields={"items": pseudo_items},
                            request_id=request.request_id)
    back = protocol.ia_transform_response(any_provider, ia_keys, CONFIG, context, lrs_response)
    # Response is an opaque blob of padded size.
    assert set(back.fields) == {"blob"}

    items = protocol.client_decode_response(any_provider, CONFIG, back, keys)
    assert items == ["rec-1", "rec-2"]


def test_get_response_is_padded(any_provider, material, ua_keys, ia_keys):
    """Blobs for 1-item and 2-item lists have identical size (§4.3)."""
    sizes = []
    for item_count in (1, 2):
        request = make_get("u")
        encoded, keys = protocol.client_encode_get(any_provider, material, CONFIG, request)
        fwd, _ = protocol.ua_transform_request(any_provider, ua_keys, CONFIG, encoded, "ua")
        to_lrs, context = protocol.ia_transform_request(any_provider, ia_keys, CONFIG, fwd, "ia")
        pseudo = [
            wire_text(any_provider.pseudonymize(ia_keys.symmetric_key, encode_identifier(f"i{n}")))
            for n in range(item_count)
        ]
        back = protocol.ia_transform_response(
            any_provider, ia_keys, CONFIG, context,
            Response(status=200, fields={"items": pseudo}, request_id=request.request_id),
        )
        sizes.append(len(back.fields["blob"]))
    assert sizes[0] == sizes[1]


def test_overlong_lrs_list_is_truncated(any_provider, material, ua_keys, ia_keys):
    request = make_get("u")
    encoded, keys = protocol.client_encode_get(any_provider, material, CONFIG, request)
    fwd, _ = protocol.ua_transform_request(any_provider, ua_keys, CONFIG, encoded, "ua")
    _, context = protocol.ia_transform_request(any_provider, ia_keys, CONFIG, fwd, "ia")
    pseudo = [
        wire_text(any_provider.pseudonymize(ia_keys.symmetric_key, encode_identifier(f"i{n}")))
        for n in range(MAX_RECOMMENDATIONS + 5)
    ]
    back = protocol.ia_transform_response(
        any_provider, ia_keys, CONFIG, context,
        Response(status=200, fields={"items": pseudo}, request_id=request.request_id),
    )
    items = protocol.client_decode_response(any_provider, CONFIG, back, keys)
    assert len(items) == MAX_RECOMMENDATIONS


def test_encryption_disabled_passthrough(any_provider, material, ua_keys, ia_keys):
    request = make_post("alice", "i1")
    encoded, keys = protocol.client_encode_post(any_provider, material, PLAIN, request)
    assert encoded.fields == {"user": "alice", "item": "i1"}
    forwarded, _ = protocol.ua_transform_request(any_provider, None, PLAIN, encoded, "ua")
    assert forwarded.fields["user"] == "alice"
    to_lrs, _ = protocol.ia_transform_request(any_provider, None, PLAIN, forwarded, "ia")
    assert to_lrs.fields["item"] == "i1"


def test_item_pseudonymization_disabled_sends_clear_items(
    any_provider, material, ua_keys, ia_keys
):
    """§6.3: items go to the LRS in the clear; users stay pseudonymous."""
    request = make_post("alice", "movie-7")
    encoded, _ = protocol.client_encode_post(any_provider, material, NO_ITEM_PSEUDO, request)
    fwd, _ = protocol.ua_transform_request(any_provider, ua_keys, NO_ITEM_PSEUDO, encoded, "ua")
    to_lrs, _ = protocol.ia_transform_request(any_provider, ia_keys, NO_ITEM_PSEUDO, fwd, "ia")
    assert to_lrs.fields["item"] == "movie-7"
    assert to_lrs.fields["user"] != "alice"


def test_post_response_passes_through(any_provider, ia_keys):
    """The stub's and Harness's ack passes through unchanged in value —
    as the canonical ack the IA builds itself, so whatever else an LRS
    put in the body (a size it chose) stays behind."""
    context = protocol.IaRequestContext(verb=Verb.POST, temporary_key=None)
    response = Response(status=200, fields={}, request_id=9)
    tagged = Response(status=200, fields={"pad": "x" * 300}, request_id=9)
    for config in (CONFIG, PLAIN):
        for from_lrs in (response, tagged):
            ack = protocol.ia_transform_response(any_provider, ia_keys, config, context, from_lrs)
            assert ack == response and ack is not from_lrs


def test_error_response_passes_through(any_provider, ia_keys):
    context = protocol.IaRequestContext(verb=Verb.GET, temporary_key=b"k" * 32)
    response = Response(status=500, fields={"error": "boom"})
    assert protocol.ia_transform_response(any_provider, ia_keys, CONFIG, context, response) is response


def test_client_decode_rejects_error_response(any_provider):
    with pytest.raises(ValueError, match="status"):
        protocol.client_decode_response(
            any_provider, CONFIG, Response(status=500), protocol.CallKeys()
        )


def test_client_decode_requires_temporary_key(any_provider):
    response = Response(status=200, fields={"blob": wire_text(b"x" * 32)})
    with pytest.raises(ValueError, match="temporary key"):
        protocol.client_decode_response(any_provider, CONFIG, response, protocol.CallKeys())


def test_client_decode_refuses_an_ok_get_without_a_blob(any_provider):
    """Every layer answers an ok get with a blob: a response stripped of
    it is an error (retryable at the client), not an empty list."""
    keys = protocol.CallKeys(temporary_key=b"k" * 32)
    with pytest.raises(ValueError, match="no blob"):
        protocol.client_decode_response(any_provider, CONFIG, Response(status=200), keys)


def test_client_decode_refuses_a_sealed_get_without_a_blob(any_provider):
    response_key = b"r" * 32
    sealed = any_provider.sym_encrypt(response_key, JSON_WIRE_CODEC.pack_response_fields({}))
    response = Response(status=200, fields={"sealed_resp": wire_text(sealed)})
    keys = protocol.CallKeys(temporary_key=b"k" * 32, response_key=response_key)
    with pytest.raises(ValueError, match="no blob"):
        protocol.client_decode_response(any_provider, HARDENED, response, keys)


# -- hardened client hop (extension) --------------------------------------


def test_hardened_post_hides_item_ciphertext(any_provider, material, ua_keys, ia_keys):
    request = make_post("alice", "movie-1", client_address="client-alice")
    encoded, keys = protocol.client_encode_post(any_provider, material, HARDENED, request)
    assert set(encoded.fields) == {"sealed"}
    assert keys.response_key is not None

    forwarded, response_key = protocol.ua_transform_request(
        any_provider, ua_keys, HARDENED, encoded, "pprox-ua-0"
    )
    assert response_key == keys.response_key
    # After the UA, the message has the paper's regular shape.
    assert "item" in forwarded.fields
    to_lrs, _ = protocol.ia_transform_request(any_provider, ia_keys, HARDENED, forwarded, "ia")
    assert to_lrs.fields["item"] != "movie-1"


def test_hardened_get_full_roundtrip(any_provider, material, ua_keys, ia_keys):
    request = make_get("alice")
    encoded, keys = protocol.client_encode_get(any_provider, material, HARDENED, request)
    forwarded, response_key = protocol.ua_transform_request(
        any_provider, ua_keys, HARDENED, encoded, "ua"
    )
    to_lrs, context = protocol.ia_transform_request(any_provider, ia_keys, HARDENED, forwarded, "ia")
    assert context.temporary_key == keys.temporary_key
    pseudo = [wire_text(any_provider.pseudonymize(ia_keys.symmetric_key, encode_identifier("rec-9")))]
    ia_back = protocol.ia_transform_response(
        any_provider, ia_keys, HARDENED, context,
        Response(status=200, fields={"items": pseudo}, request_id=request.request_id),
    )
    ua_back = protocol.ua_wrap_response(any_provider, HARDENED, response_key, ia_back)
    assert set(ua_back.fields) == {"sealed_resp"}
    items = protocol.client_decode_response(any_provider, HARDENED, ua_back, keys)
    assert items == ["rec-9"]


def test_ua_wrap_is_noop_without_hardening(any_provider):
    response = Response(status=200, fields={"blob": "x"})
    assert protocol.ua_wrap_response(any_provider, CONFIG, None, response) is response
