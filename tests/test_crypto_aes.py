"""AES through the CTR pass: FIPS-197 vectors, key/IV checks, the oracle.

The package has no block-cipher API: every AES call is one OpenSSL
AES-CTR pass (:func:`repro.crypto.ctr.ctr_transform`).  A CTR pass over
one zero block with the IV set to a plaintext block *is* that block's
encryption, so the FIPS-197 Appendix C known-answer tests read through
it directly.  The cross-checks hold the pass byte-identical to the
seed's straight-line cipher (``tests/oracles/aes_reference.py``) for
every key size, length and position of the 128-bit counter wrap: any
divergence would silently break pseudonym stability across requests.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ctr import BLOCK_SIZE, ctr_transform
from tests.oracles.aes_reference import ReferenceAES, reference_ctr_transform

PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

FIPS_VECTORS = [
    # (key hex, expected ciphertext hex) — FIPS-197 appendix C.
    ("000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617", "dda97ca4864cdfe06eaf70a0ec0d7191"),
    (
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "8ea2b7ca516745bfeafc49904b496089",
    ),
]

AES_KEYS = (
    st.binary(min_size=16, max_size=16)
    | st.binary(min_size=24, max_size=24)
    | st.binary(min_size=32, max_size=32)
)


def _encrypt_block(key: bytes, block: bytes) -> bytes:
    """One AES block encryption, read as the keystream of a CTR pass."""
    return ctr_transform(key, block, bytes(BLOCK_SIZE))


@pytest.mark.parametrize("key_hex,expected_hex", FIPS_VECTORS)
def test_fips_197_encrypt_vectors(key_hex, expected_hex):
    assert _encrypt_block(bytes.fromhex(key_hex), PLAINTEXT).hex() == expected_hex


@pytest.mark.parametrize("key_hex,expected_hex", FIPS_VECTORS)
def test_fips_197_decrypt_vectors(key_hex, expected_hex):
    """CTR decryption of the FIPS ciphertext, taken as data under the
    counter block that produced it, is the all-zero block."""
    key = bytes.fromhex(key_hex)
    assert ctr_transform(key, PLAINTEXT, bytes.fromhex(expected_hex)) == bytes(BLOCK_SIZE)


@pytest.mark.parametrize("bad_size", [0, 1, 15, 17, 20, 31, 33, 64])
def test_rejects_bad_key_sizes(bad_size):
    with pytest.raises(ValueError, match="AES key"):
        ctr_transform(bytes(bad_size), PLAINTEXT, b"data")
    with pytest.raises(ValueError, match="AES key"):
        ctr_transform(bytes(bad_size), PLAINTEXT, b"")


@pytest.mark.parametrize("bad_block", [b"", b"short", bytes(15), bytes(17)])
def test_rejects_bad_block_sizes(bad_block):
    """The IV is the first counter block: anything but 16 bytes raises
    before OpenSSL could read past it."""
    with pytest.raises(ValueError, match="IV"):
        ctr_transform(bytes(32), bad_block, b"data")


def test_block_size_constant():
    assert BLOCK_SIZE == 16


def test_encryption_changes_data():
    assert _encrypt_block(bytes(32), bytes(16)) != bytes(16)


def test_different_keys_different_ciphertexts():
    one = _encrypt_block(bytes(16), PLAINTEXT)
    other = _encrypt_block(bytes([1] * 16), PLAINTEXT)
    assert one != other


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_accepts_bytes_like_data(wrap):
    key, data = bytes(range(32)), bytes(range(40))
    assert ctr_transform(key, PLAINTEXT, wrap(data)) == ctr_transform(key, PLAINTEXT, data)
    assert ctr_transform(wrap(key), wrap(PLAINTEXT), data) == ctr_transform(key, PLAINTEXT, data)


@settings(max_examples=25, deadline=None)
@given(key=AES_KEYS, iv=st.binary(min_size=16, max_size=16), data=st.binary(max_size=64))
def test_roundtrip_property(key, iv, data):
    assert ctr_transform(key, iv, ctr_transform(key, iv, data)) == data


@settings(max_examples=10, deadline=None)
@given(block=st.binary(min_size=16, max_size=16))
def test_encrypt_is_permutation_like(block):
    """Distinct counter blocks give distinct keystream blocks (injectivity)."""
    key = bytes(range(16))
    other = bytes(b ^ 0xFF for b in block)
    assert _encrypt_block(key, block) != _encrypt_block(key, other)


@settings(max_examples=30, deadline=None)
@given(key=AES_KEYS, block=st.binary(min_size=16, max_size=16))
def test_block_cipher_matches_reference(key, block):
    """One keystream block is the seed cipher's encryption of the IV."""
    assert _encrypt_block(key, block) == ReferenceAES(key).encrypt_block(block)


_COUNTER_SPAN = 1 << 128
CTR_COUNTS = [0, 1, 2, 3, 4, 5, 15, 16, 17, 85, 256]
CTR_WRAPS = ["nowrap", "first", "middle", "last"]


def _ctr_start(count, wrap):
    """A start counter that wraps to zero after the first, a middle or
    the last-but-one block of a *count*-block pass, or not at all."""
    if wrap == "nowrap":
        return 0x0123456789ABCDEF_FEDCBA98765432F0
    blocks_before_wrap = {"first": 1, "middle": max(count // 2, 1), "last": max(count - 1, 1)}
    return _COUNTER_SPAN - blocks_before_wrap[wrap]


def _per_block_keystream(cipher, start, count):
    return b"".join(
        cipher.encrypt_block(((start + i) % _COUNTER_SPAN).to_bytes(BLOCK_SIZE, "big"))
        for i in range(count)
    )


@pytest.mark.parametrize(
    "key_size,count,wrap",
    [
        pytest.param(key_size, count, wrap, id=f"aes{8 * key_size}-{count}-{wrap}")
        for key_size in (16, 24, 32)
        for count in CTR_COUNTS
        for wrap in CTR_WRAPS
    ],
)
def test_encrypt_ctr_blocks_matches_per_block_encryption(key_size, count, wrap):
    """A *count*-block CTR pass over zeros is the seed cipher's
    block-at-a-time encryption of each counter, including wrap-around at
    the 128-bit counter boundary."""
    key = bytes(range(key_size))
    start = _ctr_start(count, wrap)
    keystream = ctr_transform(key, start.to_bytes(BLOCK_SIZE, "big"), bytes(BLOCK_SIZE * count))
    assert len(keystream) == BLOCK_SIZE * count
    assert keystream == _per_block_keystream(ReferenceAES(key), start, count)


@settings(max_examples=25, deadline=None)
@given(
    key=AES_KEYS,
    start=st.integers(min_value=0, max_value=_COUNTER_SPAN - 1)
    | st.integers(min_value=_COUNTER_SPAN - 5, max_value=_COUNTER_SPAN - 1),
    data=st.binary(min_size=0, max_size=300),
)
def test_encrypt_ctr_blocks_matches_reference_property(key, start, data):
    """Any key size, 128-bit start (often within 5 of the wrap) and
    length 0–300: the CTR pass is byte-identical to the seed's."""
    iv = start.to_bytes(BLOCK_SIZE, "big")
    assert ctr_transform(key, iv, data) == reference_ctr_transform(key, iv, data)
