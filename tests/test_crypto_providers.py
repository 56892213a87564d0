"""Crypto provider interface: both implementations, same contract."""

from __future__ import annotations

import pytest

from repro.crypto.envelope import encode_identifier
from repro.crypto.keys import SYMMETRIC_KEY_BYTES
from repro.crypto.provider import CryptoProvider


def test_asym_roundtrip(any_provider, layer_keys):
    plaintext = encode_identifier("user-1")
    blob = any_provider.asym_encrypt(layer_keys.public_material, plaintext)
    assert any_provider.asym_decrypt(layer_keys, blob) == plaintext


def test_asym_encryption_is_randomized(any_provider, layer_keys):
    plaintext = encode_identifier("user-1")
    first = any_provider.asym_encrypt(layer_keys.public_material, plaintext)
    second = any_provider.asym_encrypt(layer_keys.public_material, plaintext)
    assert first != second


def test_asym_wrong_key_fails(any_provider, layer_keys, second_layer_keys):
    blob = any_provider.asym_encrypt(layer_keys.public_material, b"secret-data")
    with pytest.raises(Exception):
        any_provider.asym_decrypt(second_layer_keys, blob)


def test_asym_large_payload_roundtrip(any_provider, layer_keys):
    """Payloads beyond OAEP capacity use the hybrid envelope."""
    plaintext = b"x" * 600
    blob = any_provider.asym_encrypt(layer_keys.public_material, plaintext)
    assert any_provider.asym_decrypt(layer_keys, blob) == plaintext


def test_pseudonym_is_deterministic(any_provider, layer_keys):
    identifier = encode_identifier("user-7")
    first = any_provider.pseudonymize(layer_keys.symmetric_key, identifier)
    second = any_provider.pseudonymize(layer_keys.symmetric_key, identifier)
    assert first == second


def test_pseudonym_distinguishes_identifiers(any_provider, layer_keys):
    one = any_provider.pseudonymize(layer_keys.symmetric_key, encode_identifier("u1"))
    two = any_provider.pseudonymize(layer_keys.symmetric_key, encode_identifier("u2"))
    assert one != two


def test_pseudonym_roundtrip(any_provider, layer_keys):
    identifier = encode_identifier("movie-33")
    pseudonym = any_provider.pseudonymize(layer_keys.symmetric_key, identifier)
    assert any_provider.depseudonymize(layer_keys.symmetric_key, pseudonym) == identifier


def test_pseudonym_differs_from_identifier(any_provider, layer_keys):
    identifier = encode_identifier("user-9")
    assert any_provider.pseudonymize(layer_keys.symmetric_key, identifier) != identifier


def test_pseudonym_key_dependence(any_provider, layer_keys, second_layer_keys):
    identifier = encode_identifier("user-9")
    one = any_provider.pseudonymize(layer_keys.symmetric_key, identifier)
    two = any_provider.pseudonymize(second_layer_keys.symmetric_key, identifier)
    assert one != two


def test_sym_roundtrip(any_provider):
    key = bytes(range(32))
    blob = any_provider.sym_encrypt(key, b"[\"i1\", \"i2\"]")
    assert any_provider.sym_decrypt(key, blob) == b"[\"i1\", \"i2\"]"


def test_sym_encryption_is_randomized(any_provider):
    key = bytes(range(32))
    assert any_provider.sym_encrypt(key, b"data") != any_provider.sym_encrypt(key, b"data")


def test_sym_wrong_key_garbles(any_provider):
    key = bytes(range(32))
    other = bytes(range(1, 33))
    blob = any_provider.sym_encrypt(key, b"the recommendation list")
    assert any_provider.sym_decrypt(other, blob) != b"the recommendation list"


def test_sym_decrypt_rejects_short_blob(any_provider):
    with pytest.raises(Exception):
        any_provider.sym_decrypt(bytes(32), b"tiny")


def test_temporary_keys_are_fresh(any_provider):
    assert any_provider.new_temporary_key() != any_provider.new_temporary_key()


def test_temporary_key_size(any_provider):
    assert len(any_provider.new_temporary_key()) == SYMMETRIC_KEY_BYTES


def test_provider_names_distinct(real_provider, sim_provider):
    assert {real_provider.name, sim_provider.name} == {"real", "sim"}


def test_abstract_provider_is_abstract(layer_keys):
    provider = CryptoProvider()
    with pytest.raises(NotImplementedError):
        provider.asym_encrypt(layer_keys.public_material, b"x")
    with pytest.raises(NotImplementedError):
        provider.pseudonymize(b"k", b"x")
    with pytest.raises(NotImplementedError):
        provider.sym_encrypt(b"k", b"x")


def test_sim_provider_rejects_unknown_token(sim_provider, layer_keys):
    with pytest.raises(ValueError, match="unknown"):
        sim_provider.asym_decrypt(layer_keys, b"ASYM:9999".ljust(144, b"\x00"))


def test_sim_provider_rejects_unknown_pseudonym(sim_provider, layer_keys):
    with pytest.raises(ValueError, match="pseudonym"):
        sim_provider.depseudonymize(layer_keys.symmetric_key, b"\x00" * 16)
