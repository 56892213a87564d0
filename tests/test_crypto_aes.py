"""AES block cipher: FIPS-197 vectors, roundtrips, error handling.

The FIPS-197 Appendix C known-answer tests (AES-128/192/256) plus the
cross-checks against the straight-line reference cipher are the guard
rail for the T-table rewrite: any divergence would silently break
pseudonym stability across requests.  The plane-sliced CTR kernel is
held to the same standard: its keystream must equal block-at-a-time
encryption of each counter for every batch size, key size and position
of the 128-bit counter wrap.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES, BLOCK_SIZE
from tests.oracles.aes_reference import ReferenceAES

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


@pytest.mark.parametrize("key_hex,expected_hex", FIPS_VECTORS)
def test_fips_197_encrypt_vectors(key_hex, expected_hex):
    cipher = AES(bytes.fromhex(key_hex))
    assert cipher.encrypt_block(PLAINTEXT).hex() == expected_hex


@pytest.mark.parametrize("key_hex,expected_hex", FIPS_VECTORS)
def test_fips_197_decrypt_vectors(key_hex, expected_hex):
    cipher = AES(bytes.fromhex(key_hex))
    assert cipher.decrypt_block(bytes.fromhex(expected_hex)) == PLAINTEXT


@pytest.mark.parametrize("key_size,rounds", [(16, 10), (24, 12), (32, 14)])
def test_round_counts(key_size, rounds):
    assert AES(bytes(key_size)).rounds == rounds


@pytest.mark.parametrize("bad_size", [0, 1, 15, 17, 20, 31, 33, 64])
def test_rejects_bad_key_sizes(bad_size):
    with pytest.raises(ValueError, match="AES key"):
        AES(bytes(bad_size))


@pytest.mark.parametrize("bad_block", [b"", b"short", bytes(15), bytes(17)])
def test_rejects_bad_block_sizes(bad_block):
    cipher = AES(bytes(16))
    with pytest.raises(ValueError, match="block"):
        cipher.encrypt_block(bad_block)
    with pytest.raises(ValueError, match="block"):
        cipher.decrypt_block(bad_block)


def test_block_size_constant():
    assert BLOCK_SIZE == 16


def test_encryption_changes_data():
    cipher = AES(bytes(32))
    assert cipher.encrypt_block(bytes(16)) != bytes(16)


def test_different_keys_different_ciphertexts():
    one = AES(bytes(16)).encrypt_block(PLAINTEXT)
    other = AES(bytes([1] * 16)).encrypt_block(PLAINTEXT)
    assert one != other


@settings(max_examples=25, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16) | st.binary(min_size=32, max_size=32),
    block=st.binary(min_size=16, max_size=16),
)
def test_roundtrip_property(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@settings(max_examples=10, deadline=None)
@given(block=st.binary(min_size=16, max_size=16))
def test_encrypt_is_permutation_like(block):
    """Distinct plaintexts map to distinct ciphertexts (injectivity)."""
    cipher = AES(bytes(range(16)))
    other = bytes(b ^ 0xFF for b in block)
    assert cipher.encrypt_block(block) != cipher.encrypt_block(other)


@settings(max_examples=30, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16)
    | st.binary(min_size=24, max_size=24)
    | st.binary(min_size=32, max_size=32),
    block=st.binary(min_size=16, max_size=16),
)
def test_t_table_cipher_matches_reference(key, block):
    """T-table encrypt/decrypt is byte-identical to the seed cipher."""
    optimized = AES(key)
    reference = ReferenceAES(key)
    ciphertext = optimized.encrypt_block(block)
    assert ciphertext == reference.encrypt_block(block)
    assert optimized.decrypt_block(ciphertext) == reference.decrypt_block(ciphertext)


_COUNTER_SPAN = 1 << 128
CTR_COUNTS = [0, 1, 2, 3, 4, 5, 15, 16, 17, 85, 256]
CTR_WRAPS = ["nowrap", "first", "middle", "last"]


def _ctr_start(count, wrap):
    """A start counter that wraps to zero after the first, a middle or
    the last-but-one block of a *count*-block batch, or not at all."""
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
    """The batched keystream equals block-at-a-time counter encryption,
    including wrap-around at the 128-bit counter boundary."""
    cipher = AES(bytes(range(key_size)))
    start = _ctr_start(count, wrap)
    batched = cipher.encrypt_ctr_blocks(start, count)
    assert len(batched) == BLOCK_SIZE * count
    assert batched == _per_block_keystream(cipher, start, count)


@settings(max_examples=25, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16)
    | st.binary(min_size=24, max_size=24)
    | st.binary(min_size=32, max_size=32),
    start=st.integers(min_value=0, max_value=_COUNTER_SPAN - 1)
    | st.integers(min_value=_COUNTER_SPAN - 300, max_value=_COUNTER_SPAN - 1),
    count=st.integers(min_value=0, max_value=300),
)
def test_encrypt_ctr_blocks_matches_reference_property(key, start, count):
    """Any key, 128-bit start and batch size: the plane-sliced kernel
    is byte-identical to the seed cipher run one counter at a time."""
    assert AES(key).encrypt_ctr_blocks(start, count) == _per_block_keystream(
        ReferenceAES(key), start, count
    )
