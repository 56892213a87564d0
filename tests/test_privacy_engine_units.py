"""Unit tests of the knowledge-closure engine's resolution steps."""

from __future__ import annotations

import json

import pytest

from repro.crypto.envelope import EnvelopeCodec, encode_identifier
from repro.crypto.provider import RealCryptoProvider
from repro.privacy.adversary import ObservedMessage
from repro.privacy.unlinkability import KnowledgeEngine, fifo_correlation

wire_text = EnvelopeCodec.wire_text


@pytest.fixture
def provider():
    return RealCryptoProvider()


def _message(fields, source="pprox-ua-0", destination="pprox-ia-0",
             kind="request", verb="POST", roles=("ua", "ia")):
    return ObservedMessage(
        time=0.0, source=source, destination=destination, size_bytes=100,
        kind=kind, verb=verb, fields=fields,
        source_role=roles[0], destination_role=roles[1],
    )


def test_resolve_user_needs_ua_keys(provider, layer_keys):
    ciphertext = wire_text(
        provider.asym_encrypt(layer_keys.public_material, encode_identifier("alice"))
    )
    without = KnowledgeEngine(provider=provider)
    assert without.resolve_user(ciphertext) is None
    with_keys = KnowledgeEngine(provider=provider, ua_keys=layer_keys)
    assert with_keys.resolve_user(ciphertext) == "alice"


def test_resolve_user_handles_pseudonyms(provider, layer_keys):
    pseudonym = wire_text(
        provider.pseudonymize(layer_keys.symmetric_key, encode_identifier("bob"))
    )
    engine = KnowledgeEngine(provider=provider, ua_keys=layer_keys)
    assert engine.resolve_user(pseudonym) == "bob"


def test_resolve_user_cleartext_fallback(provider):
    engine = KnowledgeEngine(provider=provider)
    # Not base64: must be a cleartext identifier (encryption-off mode).
    assert engine.resolve_user("plain-user") == "plain-user"


def test_resolve_user_ignores_catalog_items(provider):
    engine = KnowledgeEngine(provider=provider, catalog={"movie-1"})
    assert engine.resolve_user("movie-1") is None


def test_resolve_item_needs_ia_keys(provider, second_layer_keys):
    ciphertext = wire_text(
        provider.asym_encrypt(
            second_layer_keys.public_material, encode_identifier("movie-7")
        )
    )
    without = KnowledgeEngine(provider=provider)
    assert without.resolve_item(ciphertext) is None
    with_keys = KnowledgeEngine(provider=provider, ia_keys=second_layer_keys)
    assert with_keys.resolve_item(ciphertext) == "movie-7"


def test_resolve_item_catalog_membership(provider):
    engine = KnowledgeEngine(provider=provider, catalog={"movie-1"})
    assert engine.resolve_item("movie-1") == "movie-1"
    assert engine.resolve_item("not-in-catalog") is None


def test_resolve_temporary_key(provider, second_layer_keys):
    key = provider.new_temporary_key()
    field_value = wire_text(provider.asym_encrypt(second_layer_keys.public_material, key))
    engine = KnowledgeEngine(provider=provider, ia_keys=second_layer_keys)
    assert engine.resolve_temporary_key(field_value) == key
    assert KnowledgeEngine(provider=provider).resolve_temporary_key(field_value) is None


def test_harvest_keys_collects_all_tmpkeys(provider, second_layer_keys):
    keys = [provider.new_temporary_key() for _ in range(3)]
    observations = [
        _message({"tmpkey": wire_text(provider.asym_encrypt(
            second_layer_keys.public_material, key))}, verb="GET")
        for key in keys
    ]
    engine = KnowledgeEngine(provider=provider, ia_keys=second_layer_keys)
    harvested, response_keys = engine.harvest_keys(observations)
    assert sorted(harvested) == sorted(keys)
    assert response_keys == []


def test_trial_decrypt_items_with_harvested_keys(provider, second_layer_keys):
    key = provider.new_temporary_key()
    wire_items = [wire_text(encode_identifier(item)) for item in ("movie-1", "movie-2")]
    blob = wire_text(provider.sym_encrypt(key, json.dumps(wire_items).encode()))
    engine = KnowledgeEngine(provider=provider, ia_keys=second_layer_keys)
    # Wrong keys produce nothing; the right key in the set decrypts.
    assert engine._trial_decrypt_items(blob, [provider.new_temporary_key()]) == []
    decoys = [provider.new_temporary_key(), key]
    assert engine._trial_decrypt_items(blob, decoys) == ["movie-1", "movie-2"]


def test_unseal_requires_ua_keys(provider, layer_keys):
    inner = {"user": wire_text(encode_identifier("carol"))}
    payload = json.dumps({"fields": inner, "resp_key": wire_text(b"k" * 32)})
    sealed = {
        "sealed": wire_text(
            provider.asym_encrypt(layer_keys.public_material, payload.encode())
        )
    }
    without = KnowledgeEngine(provider=provider)
    fields, response_key = without.unseal(sealed)
    assert fields == sealed and response_key is None
    with_keys = KnowledgeEngine(provider=provider, ua_keys=layer_keys)
    fields, response_key = with_keys.unseal(sealed)
    assert fields == inner
    assert response_key == b"k" * 32


def test_message_identity_from_endpoints(provider):
    engine = KnowledgeEngine(provider=provider)
    inbound = _message({}, source="client-alice", destination="pprox-ua-0",
                       roles=("client", "ua"))
    outbound = _message({}, source="pprox-ua-0", destination="client-alice",
                        kind="response", verb=None, roles=("ua", "client"))
    internal = _message({})
    assert engine.message_identity(inbound) == "client-alice"
    assert engine.message_identity(outbound) == "client-alice"
    assert engine.message_identity(internal) is None


def test_fifo_correlation_pairs_in_order():
    a = [_message({"n": i}) for i in range(3)]
    b = [_message({"m": i}) for i in range(3)]
    pairs = fifo_correlation(a, b)
    assert len(pairs) == 3
    assert pairs[0] == (a[0], b[0])


def test_derive_links_empty_without_material(provider):
    engine = KnowledgeEngine(provider=provider)
    observations = [_message({"user": "x" * 16, "item": "y" * 16})]
    assert engine.derive_links(observations) == set()
