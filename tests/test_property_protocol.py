"""Property-based tests of the full protocol transformation chain.

Hypothesis drives random identifiers, item lists and feature
combinations through the complete client -> UA -> IA -> LRS -> IA ->
UA -> client pipeline of pure protocol functions, checking the
invariants every §4.2 lifecycle must satisfy.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.envelope import (
    FIXED_ID_BYTES,
    MAX_RECOMMENDATIONS,
    EnvelopeCodec,
    encode_identifier,
)
from repro.crypto.provider import RealCryptoProvider
from repro.proxy import protocol
from repro.proxy.config import PProxConfig
from repro.rest.messages import Response
from tests.conftest import make_get, make_post

# Identifiers the application might realistically use: unicode included,
# bounded by the fixed-size encoding's capacity.
identifiers = st.text(min_size=1, max_size=14).filter(
    lambda s: len(s.encode("utf-8")) <= FIXED_ID_BYTES - 2
)

configs = st.builds(
    PProxConfig,
    item_pseudonymization=st.booleans(),
    harden_client_hop=st.booleans(),
    shuffle_size=st.just(0),
)


@pytest.fixture(scope="module")
def chain(layer_keys, second_layer_keys):
    provider = RealCryptoProvider()
    material = protocol.ClientMaterial(
        ua=layer_keys.public_material, ia=second_layer_keys.public_material
    )
    return provider, material, layer_keys, second_layer_keys


@settings(max_examples=40, deadline=None)
@given(user=identifiers, item=identifiers, config=configs)
def test_post_pipeline_properties(chain, user, item, config):
    provider, material, ua_keys, ia_keys = chain
    request = make_post(user, item, client_address="client-x")
    encoded, keys = protocol.client_encode_post(provider, material, config, request)
    # Cleartext never appears as a field value.
    assert user not in encoded.fields.values()
    assert item not in encoded.fields.values()
    forwarded, response_key = protocol.ua_transform_request(
        provider, ua_keys, config, encoded, "pprox-ua-0"
    )
    assert forwarded.client_address == "pprox-ua-0"
    to_lrs, context = protocol.ia_transform_request(
        provider, ia_keys, config, forwarded, "pprox-ia-0"
    )
    assert context.verb == "POST"
    # User pseudonym is deterministic and not the cleartext.
    assert to_lrs.fields["user"] != user
    if config.item_pseudonymization:
        assert to_lrs.fields["item"] != item
    else:
        assert to_lrs.fields["item"] == item
    # Hardened mode produced a response key, plain mode did not.
    assert (response_key is not None) == config.harden_client_hop


@settings(max_examples=40, deadline=None)
@given(
    user=identifiers,
    items=st.lists(identifiers, min_size=0, max_size=MAX_RECOMMENDATIONS, unique=True),
    config=configs,
)
def test_get_pipeline_roundtrip(chain, user, items, config):
    provider, material, ua_keys, ia_keys = chain
    request = make_get(user, client_address="client-x")
    encoded, keys = protocol.client_encode_get(provider, material, config, request)
    forwarded, response_key = protocol.ua_transform_request(
        provider, ua_keys, config, encoded, "pprox-ua-0"
    )
    to_lrs, context = protocol.ia_transform_request(
        provider, ia_keys, config, forwarded, "pprox-ia-0"
    )
    assert "tmpkey" not in to_lrs.fields

    if config.item_pseudonymization:
        wire_items = [
            EnvelopeCodec.wire_text(provider.pseudonymize(ia_keys.symmetric_key, encode_identifier(i)))
            for i in items
        ]
    else:
        wire_items = list(items)
    lrs_response = Response(status=200, fields={"items": wire_items},
                            request_id=request.request_id)
    ia_back = protocol.ia_transform_response(
        provider, ia_keys, config, context, lrs_response
    )
    ua_back = protocol.ua_wrap_response(provider, config, response_key, ia_back)
    decoded = protocol.client_decode_response(provider, config, ua_back, keys)
    # The application receives exactly the LRS's list, in order.
    assert decoded == list(items)
    # And the wire response carries only opaque blobs — no item field.
    assert set(ua_back.fields) <= {"blob", "sealed_resp"}
    for item in items:
        assert item not in ua_back.fields.values()


@settings(max_examples=20, deadline=None)
@given(user=identifiers)
def test_pseudonyms_are_stable_across_requests(chain, user):
    provider, material, ua_keys, ia_keys = chain
    config = PProxConfig(shuffle_size=0)
    outs = []
    for _ in range(2):
        encoded, _ = protocol.client_encode_get(
            provider, material, config, make_get(user)
        )
        forwarded, _ = protocol.ua_transform_request(
            provider, ua_keys, config, encoded, "ua"
        )
        outs.append(forwarded.fields["user"])
    assert outs[0] == outs[1]


@settings(max_examples=20, deadline=None)
@given(first=identifiers, second=identifiers)
def test_distinct_users_get_distinct_pseudonyms(chain, first, second):
    provider, material, ua_keys, ia_keys = chain
    if first == second:
        return
    config = PProxConfig(shuffle_size=0)
    pseudonyms = []
    for user in (first, second):
        encoded, _ = protocol.client_encode_get(
            provider, material, config, make_get(user)
        )
        forwarded, _ = protocol.ua_transform_request(
            provider, ua_keys, config, encoded, "ua"
        )
        pseudonyms.append(forwarded.fields["user"])
    assert pseudonyms[0] != pseudonyms[1]
