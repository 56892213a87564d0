"""AES-CTR modes: NIST vectors, determinism, cache behaviour."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.crypto.ctr as ctr_module
from repro.crypto.ctr import (
    DETERMINISTIC_IV,
    ctr_transform,
    det_decrypt,
    det_encrypt,
    keyed_pseudonym,
    rand_decrypt,
    rand_encrypt,
)
from tests.oracles.aes_reference import reference_det_encrypt

KEY = bytes(range(32))

# NIST SP 800-38A §F.5: CTR mode known-answer tests.  Same plaintext
# and initial counter block for all three key sizes.
NIST_CTR_COUNTER = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
NIST_CTR_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
NIST_CTR_VECTORS = [
    # (key hex, ciphertext hex) — F.5.1, F.5.3, F.5.5.
    (
        "2b7e151628aed2a6abf7158809cf4f3c",
        "874d6191b620e3261bef6864990db6ce"
        "9806f66b7970fdff8617187bb9fffdff"
        "5ae4df3edbd5d35e5b4f09020db03eab"
        "1e031dda2fbe03d1792170a0f3009cee",
    ),
    (
        "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
        "1abc932417521ca24f2b0459fe7e6e0b"
        "090339ec0aa6faefd5ccc2c6f4ce8e94"
        "1e36b26bd1ebc670d1bd1d665620abf7"
        "4f78a7f6d29809585a97daec58c6b050",
    ),
    (
        "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
        "601ec313775789a5b7a7f504bbf3d228"
        "f443e3ca4d62b59aca84e990cacaf5c5"
        "2b0930daa23de94ce87017ba2d84988d"
        "dfc9c58db67aada613c2dd08457941a6",
    ),
]


@pytest.mark.parametrize("key_hex,expected_hex", NIST_CTR_VECTORS)
def test_nist_sp800_38a_ctr_vectors(key_hex, expected_hex):
    key = bytes.fromhex(key_hex)
    assert ctr_transform(key, NIST_CTR_COUNTER, NIST_CTR_PLAINTEXT).hex() == expected_hex


@pytest.mark.parametrize("key_hex,expected_hex", NIST_CTR_VECTORS)
def test_nist_sp800_38a_ctr_decrypt(key_hex, expected_hex):
    key = bytes.fromhex(key_hex)
    assert ctr_transform(key, NIST_CTR_COUNTER, bytes.fromhex(expected_hex)) == NIST_CTR_PLAINTEXT


def test_det_encrypt_is_deterministic():
    assert det_encrypt(KEY, b"user-42") == det_encrypt(KEY, b"user-42")


def test_det_encrypt_distinguishes_inputs():
    assert det_encrypt(KEY, b"user-42") != det_encrypt(KEY, b"user-43")


def test_det_roundtrip():
    assert det_decrypt(KEY, det_encrypt(KEY, b"payload")) == b"payload"


def test_det_encrypt_key_dependence():
    other_key = bytes(range(1, 33))
    assert det_encrypt(KEY, b"x") != det_encrypt(other_key, b"x")


def test_rand_encrypt_is_randomized():
    """Two encryptions of the same input differ (fresh IV each time)."""
    assert rand_encrypt(KEY, b"same-input") != rand_encrypt(KEY, b"same-input")


def test_rand_roundtrip():
    blob = rand_encrypt(KEY, b"recommendations")
    assert rand_decrypt(KEY, blob) == b"recommendations"


def test_rand_encrypt_prepends_iv():
    blob = rand_encrypt(KEY, b"abc")
    assert len(blob) == 16 + 3


def test_rand_decrypt_rejects_short_blob():
    with pytest.raises(ValueError, match="too short"):
        rand_decrypt(KEY, b"short")


def test_rand_encrypt_with_custom_rng():
    fixed_iv = bytes(16)
    blob = rand_encrypt(KEY, b"data", rng=lambda n: fixed_iv[:n])
    assert blob[:16] == fixed_iv
    # With the all-zero IV, rand == det by construction.
    assert blob[16:] == det_encrypt(KEY, b"data")


def test_ctr_rejects_bad_iv():
    with pytest.raises(ValueError, match="IV"):
        ctr_transform(KEY, b"short-iv", b"data")


def test_ctr_counter_increments_across_blocks():
    """Blocks beyond the first use an incremented counter, so a
    two-block message is not two copies of the one-block keystream."""
    data = bytes(32)
    out = ctr_transform(KEY, DETERMINISTIC_IV, data)
    assert out[:16] != out[16:]


def test_ctr_empty_input():
    assert ctr_transform(KEY, DETERMINISTIC_IV, b"") == b""


def test_ctr_counter_wraps_at_128_bits():
    iv = b"\xff" * 16
    out = ctr_transform(KEY, iv, bytes(32))
    # Second block must use counter 0 after wrapping, not raise.
    assert len(out) == 32


@settings(max_examples=25, deadline=None)
@given(data=st.binary(min_size=0, max_size=200))
def test_det_roundtrip_property(data):
    assert det_decrypt(KEY, det_encrypt(KEY, data)) == data


@settings(max_examples=25, deadline=None)
@given(data=st.binary(min_size=0, max_size=200))
def test_rand_roundtrip_property(data):
    assert rand_decrypt(KEY, rand_encrypt(KEY, data)) == data


@settings(max_examples=15, deadline=None)
@given(data=st.binary(min_size=1, max_size=64))
def test_ciphertext_length_equals_plaintext_length(data):
    """CTR is length-preserving — the constant-size-message property
    of §4.3 relies on this."""
    assert len(det_encrypt(KEY, data)) == len(data)


@settings(max_examples=40, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16)
    | st.binary(min_size=24, max_size=24)
    | st.binary(min_size=32, max_size=32),
    data=st.binary(min_size=0, max_size=600),
)
def test_det_encrypt_matches_straight_line_reference(key, data):
    """The optimized path (T-tables + cached keystream + integer XOR)
    must stay byte-identical to the seed's per-byte implementation —
    deterministic pseudonyms are a stability contract, not just perf."""
    assert det_encrypt(key, data) == reference_det_encrypt(key, data)


def test_det_keystream_cache_extends_beyond_prefix():
    """Payloads longer than the cached keystream prefix still decrypt."""
    long_payload = bytes(range(256)) * 10  # 2560 B > 512 B prefix
    blob = det_encrypt(KEY, long_payload)
    assert det_decrypt(KEY, blob) == long_payload
    assert blob == reference_det_encrypt(KEY, long_payload)
    # A short call after the long one must reuse the same stream head.
    assert det_encrypt(KEY, long_payload[:20]) == blob[:20]


def test_cipher_cache_evicts_oldest_not_all(monkeypatch):
    """On overflow the cipher cache drops only the oldest schedule;
    a wholesale clear() would re-expand every hot key."""
    monkeypatch.setattr(ctr_module, "_CIPHER_CACHE", {})
    monkeypatch.setattr(ctr_module, "_CIPHER_CACHE_MAX", 3)
    keys = [bytes([i]) * 32 for i in range(4)]
    for key in keys[:3]:
        ctr_module._cipher_for(key)
    warm = ctr_module._cipher_for(keys[1])  # still cached
    ctr_module._cipher_for(keys[3])  # overflow: evicts keys[0] only
    assert keys[0] not in ctr_module._CIPHER_CACHE
    assert ctr_module._CIPHER_CACHE.keys() == {keys[1], keys[2], keys[3]}
    assert ctr_module._cipher_for(keys[1]) is warm


def test_det_keystream_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(ctr_module, "_DET_KEYSTREAM_CACHE", {})
    monkeypatch.setattr(ctr_module, "_DET_KEYSTREAM_CACHE_MAX", 2)
    keys = [bytes([i]) * 32 for i in range(3)]
    for key in keys:
        det_encrypt(key, b"identifier")
    assert len(ctr_module._DET_KEYSTREAM_CACHE) <= 2
    assert keys[0] not in ctr_module._DET_KEYSTREAM_CACHE
    # Evicted keys still encrypt correctly (cache is transparent).
    assert det_encrypt(keys[0], b"identifier") == reference_det_encrypt(keys[0], b"identifier")


def test_keyed_pseudonym_is_exported():
    assert "keyed_pseudonym" in ctr_module.__all__
    assert keyed_pseudonym(KEY, b"user-1") == keyed_pseudonym(KEY, b"user-1")
    assert len(keyed_pseudonym(KEY, b"user-1", length=12)) == 12
