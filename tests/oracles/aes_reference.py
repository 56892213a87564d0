"""Straight-line reference AES/CTR — the seed implementation, kept.

This module preserves the original per-byte implementation, S-box and
GF(2⁸) tables included, that the package's AES-CTR (OpenSSL's, through
:mod:`repro.crypto.libcrypto`) replaced.  It exists for two reasons:

* **Correctness anchor** — the cross-check tests assert the package's
  CTR pass is *byte-identical* to this one on random keys and lengths.
* **The paper's pseudonym** — :func:`reference_det_encrypt`, ``det_enc``
  under a constant IV (§4.1), lives only here: the closure tests run it
  to show the many-time pad the package's Feistel pseudonym removes.
* **Perf trajectory** — ``benchmarks/ledger.py crypto`` measures
  the package against this baseline and records the speedups in
  ``BENCH_crypto.json`` so later changes can regress against them.

Never import this from production code paths; it is deliberately the
slow, obviously-correct formulation.
"""

from __future__ import annotations

from typing import List, Sequence

BLOCK_SIZE = 16

# Round constants for key expansion.
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D)


def _build_sbox() -> bytes:
    """Construct the AES S-box from the finite-field definition."""
    # Multiplicative inverse in GF(2^8) via exp/log tables, generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)  # x * 3
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]
    sbox = bytearray(256)
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        result = 0x63  # affine transformation
        for shift in (0, 1, 2, 3, 4):
            result ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        sbox[value] = result
    return bytes(sbox)


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return result


_SBOX = _build_sbox()
_INV_SBOX = bytes(_SBOX.index(value) for value in range(256))
_MUL2, _MUL3, _MUL9, _MUL11, _MUL13, _MUL14 = (
    bytes(_gf_mul(i, factor) for i in range(256)) for factor in (2, 3, 9, 11, 13, 14)
)

__all__ = ["ReferenceAES", "reference_ctr_transform", "reference_det_encrypt"]

# ShiftRows permutation of the 16-byte state laid out column-major
# (byte index = 4*col + row as in FIPS-197's one-dimensional layout).
_SHIFT_ROWS = (0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11)
_INV_SHIFT_ROWS = (0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3)

# The constant IV of the paper's det_enc (§4.1).
_DETERMINISTIC_IV = bytes(BLOCK_SIZE)


class ReferenceAES:
    """The seed's per-byte AES block cipher (FIPS-197, unoptimized)."""

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError(f"AES key must be 16, 24 or 32 bytes, got {len(key)}")
        self._key = bytes(key)
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(self._key)

    def _expand_key(self, key: bytes) -> List[bytes]:
        key_words = len(key) // 4
        total_words = 4 * (self._rounds + 1)
        words = [key[4 * i:4 * i + 4] for i in range(key_words)]
        for i in range(key_words, total_words):
            temp = words[i - 1]
            if i % key_words == 0:
                temp = bytes(
                    (
                        _SBOX[temp[1]] ^ _RCON[i // key_words - 1],
                        _SBOX[temp[2]],
                        _SBOX[temp[3]],
                        _SBOX[temp[0]],
                    )
                )
            elif key_words > 6 and i % key_words == 4:
                temp = bytes(_SBOX[b] for b in temp)
            prev = words[i - key_words]
            words.append(bytes(a ^ b for a, b in zip(prev, temp)))
        return [b"".join(words[4 * r:4 * r + 4]) for r in range(self._rounds + 1)]

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        state = bytearray(a ^ b for a, b in zip(block, self._round_keys[0]))
        for round_index in range(1, self._rounds):
            state = self._round(state, self._round_keys[round_index])
        sbox = _SBOX
        shifted = bytearray(sbox[state[_SHIFT_ROWS[i]]] for i in range(16))
        last_key = self._round_keys[self._rounds]
        return bytes(shifted[i] ^ last_key[i] for i in range(16))

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        state = bytearray(a ^ b for a, b in zip(block, self._round_keys[self._rounds]))
        inv_sbox = _INV_SBOX
        state = bytearray(inv_sbox[state[_INV_SHIFT_ROWS[i]]] for i in range(16))
        for round_index in range(self._rounds - 1, 0, -1):
            round_key = self._round_keys[round_index]
            state = bytearray(state[i] ^ round_key[i] for i in range(16))
            state = self._inv_mix_columns(state)
            state = bytearray(inv_sbox[state[_INV_SHIFT_ROWS[i]]] for i in range(16))
        first_key = self._round_keys[0]
        return bytes(state[i] ^ first_key[i] for i in range(16))

    @staticmethod
    def _round(state: Sequence[int], round_key: bytes) -> bytearray:
        sbox = _SBOX
        shifted = [sbox[state[_SHIFT_ROWS[i]]] for i in range(16)]
        mul2, mul3 = _MUL2, _MUL3
        output = bytearray(16)
        for col in range(4):
            base = 4 * col
            s0, s1, s2, s3 = shifted[base:base + 4]
            output[base] = mul2[s0] ^ mul3[s1] ^ s2 ^ s3 ^ round_key[base]
            output[base + 1] = s0 ^ mul2[s1] ^ mul3[s2] ^ s3 ^ round_key[base + 1]
            output[base + 2] = s0 ^ s1 ^ mul2[s2] ^ mul3[s3] ^ round_key[base + 2]
            output[base + 3] = mul3[s0] ^ s1 ^ s2 ^ mul2[s3] ^ round_key[base + 3]
        return output

    @staticmethod
    def _inv_mix_columns(state: Sequence[int]) -> bytearray:
        mul9, mul11, mul13, mul14 = _MUL9, _MUL11, _MUL13, _MUL14
        output = bytearray(16)
        for col in range(4):
            base = 4 * col
            s0, s1, s2, s3 = state[base:base + 4]
            output[base] = mul14[s0] ^ mul11[s1] ^ mul13[s2] ^ mul9[s3]
            output[base + 1] = mul9[s0] ^ mul14[s1] ^ mul11[s2] ^ mul13[s3]
            output[base + 2] = mul13[s0] ^ mul9[s1] ^ mul14[s2] ^ mul11[s3]
            output[base + 3] = mul11[s0] ^ mul13[s1] ^ mul9[s2] ^ mul14[s3]
        return output


def reference_ctr_transform(key: bytes, iv: bytes, data: bytes) -> bytes:
    """The seed's AES-CTR: one ``to_bytes`` and per-byte XOR per block."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"CTR IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    cipher = ReferenceAES(key)
    counter = int.from_bytes(iv, "big")
    out = bytearray()
    for offset in range(0, len(data), BLOCK_SIZE):
        keystream = cipher.encrypt_block(
            (counter & ((1 << 128) - 1)).to_bytes(BLOCK_SIZE, "big")
        )
        chunk = data[offset:offset + BLOCK_SIZE]
        out.extend(a ^ b for a, b in zip(chunk, keystream))
        counter += 1
    return bytes(out)


def reference_det_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """The paper's pseudonym det_enc: AES-CTR under a constant IV (§4.1).

    A many-time pad, kept here only as the construction the closure's
    known-plaintext rule must break; the package pseudonymizes with
    :mod:`repro.crypto.prp`."""
    return reference_ctr_transform(key, _DETERMINISTIC_IV, plaintext)
