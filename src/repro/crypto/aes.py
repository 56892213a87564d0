"""Pure-Python AES block cipher (FIPS-197), T-table implementation.

The paper's proxy enclaves use Intel SGX-SSL with AES-256 in CTR mode
for pseudonymization (constant IV, deterministic) and for protecting
recommendation lists (random IV).  This module provides the block
primitive; :mod:`repro.crypto.ctr` builds the CTR modes on top.

Supports 128-, 192- and 256-bit keys.  The hot path is the classic
32-bit T-table formulation: four combined SubBytes+MixColumns lookup
tables (built once at import), state and round keys held as four
big-endian 32-bit column words, four table lookups + XORs per column
per round.  Decryption uses the equivalent inverse cipher with
InvMixColumns folded into the decryption key schedule.  This is the
standard 4-8x win over a per-byte ``bytearray`` round function while
producing byte-identical ciphertexts.

CTR keystreams do not go block by block: :meth:`AES.encrypt_ctr_blocks`
takes all N counter blocks through each round together, as sixteen
N-byte planes (plane k = byte k of every block), so a round costs about
thirty C-level calls whatever N is.  It computes the same function as
:meth:`AES.encrypt_block` on each counter and the tests hold it to
that, byte for byte.
"""

from __future__ import annotations

from operator import itemgetter
from struct import Struct, pack
from typing import List, Optional, Tuple

__all__ = ["AES", "BLOCK_SIZE"]

BLOCK_SIZE = 16

# Round constants for key expansion.
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D)


def _build_sbox() -> bytes:
    """Construct the AES S-box from the finite-field definition."""
    # Multiplicative inverse table in GF(2^8) via exp/log tables with
    # generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply by generator 3: x * 3 = x ^ (x << 1)
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = bytearray(256)
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        # Affine transformation.
        result = 0x63
        for shift in (0, 1, 2, 3, 4):
            result ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        sbox[value] = result
    return bytes(sbox)


_SBOX = _build_sbox()
_INV_SBOX = bytearray(256)
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i
_INV_SBOX = bytes(_INV_SBOX)


def _xtime(value: int) -> int:
    """Multiply by x (i.e. 2) in GF(2^8)."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


# Per-byte multiplication tables; used to build the T-tables and the
# InvMixColumns fold-in of the decryption key schedule.
_MUL2 = bytes(_gf_mul(i, 2) for i in range(256))
_MUL3 = bytes(_gf_mul(i, 3) for i in range(256))
_MUL9 = bytes(_gf_mul(i, 9) for i in range(256))
_MUL11 = bytes(_gf_mul(i, 11) for i in range(256))
_MUL13 = bytes(_gf_mul(i, 13) for i in range(256))
_MUL14 = bytes(_gf_mul(i, 14) for i in range(256))


def _build_t_tables() -> Tuple[tuple, tuple, tuple, tuple, tuple, tuple, tuple, tuple]:
    """Build the four encryption and four decryption T-tables.

    ``Te0[x]`` is the MixColumns contribution of a state byte ``x``
    (after SubBytes) landing in row 0 of a column, as one big-endian
    32-bit word; ``Te1``-``Te3`` are the row-1..3 rotations.  The
    ``Td`` tables combine InvSubBytes with InvMixColumns likewise.
    """
    te0, te1, te2, te3 = [], [], [], []
    td0, td1, td2, td3 = [], [], [], []
    for x in range(256):
        s = _SBOX[x]
        word = (_MUL2[s] << 24) | (s << 16) | (s << 8) | _MUL3[s]
        te0.append(word)
        te1.append(((word >> 8) | (word << 24)) & 0xFFFFFFFF)
        te2.append(((word >> 16) | (word << 16)) & 0xFFFFFFFF)
        te3.append(((word >> 24) | (word << 8)) & 0xFFFFFFFF)
        si = _INV_SBOX[x]
        iword = (_MUL14[si] << 24) | (_MUL9[si] << 16) | (_MUL13[si] << 8) | _MUL11[si]
        td0.append(iword)
        td1.append(((iword >> 8) | (iword << 24)) & 0xFFFFFFFF)
        td2.append(((iword >> 16) | (iword << 16)) & 0xFFFFFFFF)
        td3.append(((iword >> 24) | (iword << 8)) & 0xFFFFFFFF)
    return (
        tuple(te0), tuple(te1), tuple(te2), tuple(te3),
        tuple(td0), tuple(td1), tuple(td2), tuple(td3),
    )


_TE0, _TE1, _TE2, _TE3, _TD0, _TD1, _TD2, _TD3 = _build_t_tables()

_PACK4 = Struct(">4I")

# --- plane-sliced CTR kernel constants --------------------------------
# 2*S(x) in GF(2^8); with S itself it gives all of SubBytes+MixColumns,
# since 3*S(x) = S(x) ^ 2*S(x).
_SBOX_X2 = _SBOX.translate(_MUL2)
# The planes lie row-major by AES state row: buffer position ``4*r + c``
# holds block byte ``r + 4*c``.  ShiftRows is then a rotation of planes
# inside each 4-plane row and MixColumns a rotation of whole rows.
_PLANE_ORDER = tuple(r + 4 * c for r in range(4) for c in range(4))
_IN_PLANE_ORDER = itemgetter(*_PLANE_ORDER)
_INDEX_PLANES = tuple(bytes((position,)) for position in range(16))
_TABLE_TAIL = bytes(256 - BLOCK_SIZE)
_ONE_BLOCK = (1).to_bytes(BLOCK_SIZE, "big")
_COUNTER_SPAN = 1 << 128


def _counter_blocks(first: int, count: int) -> bytes:
    """*count* consecutive big-endian 128-bit counters starting at *first*.

    One multiply and one add on ``16 * count``-byte integers; the caller
    keeps ``first + count <= 2**128`` so no block carries into its
    neighbour.
    """
    ones = int.from_bytes(_ONE_BLOCK * count, "big")  # 1 in every block
    # 0, 1, ..., count-1 in successive blocks: sum of i * x^(count-1-i)
    # with x = 2^128, which is (ones - count) / (x - 1).
    ramp = (ones - count) // (_COUNTER_SPAN - 1)
    return (first * ones + ramp).to_bytes(BLOCK_SIZE * count, "big")


def _inv_mix_word(word: int) -> int:
    """InvMixColumns applied to one 32-bit column word."""
    b0 = (word >> 24) & 0xFF
    b1 = (word >> 16) & 0xFF
    b2 = (word >> 8) & 0xFF
    b3 = word & 0xFF
    return (
        ((_MUL14[b0] ^ _MUL11[b1] ^ _MUL13[b2] ^ _MUL9[b3]) << 24)
        | ((_MUL9[b0] ^ _MUL14[b1] ^ _MUL11[b2] ^ _MUL13[b3]) << 16)
        | ((_MUL13[b0] ^ _MUL9[b1] ^ _MUL14[b2] ^ _MUL11[b3]) << 8)
        | (_MUL11[b0] ^ _MUL13[b1] ^ _MUL9[b2] ^ _MUL14[b3])
    )


class AES:
    """AES block cipher over 16-byte blocks.

    Parameters
    ----------
    key:
        16, 24 or 32 bytes of key material.
    """

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError(f"AES key must be 16, 24 or 32 bytes, got {len(key)}")
        self._key = bytes(key)
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._enc_keys = self._expand_key(self._key)
        # Group the flat word schedule into per-round 4-tuples so the
        # round loop unpacks one tuple per round instead of doing four
        # index additions.
        self._enc_first = tuple(self._enc_keys[0:4])
        self._enc_mid = [
            tuple(self._enc_keys[4 * r:4 * r + 4]) for r in range(1, self._rounds)
        ]
        self._enc_last = tuple(self._enc_keys[4 * self._rounds:4 * self._rounds + 4])
        # The same round keys as 16 bytes each in ``_PLANE_ORDER``, for
        # the CTR kernel.
        schedule = pack(f">{len(self._enc_keys)}I", *self._enc_keys)
        self._plane_keys = [
            bytes(_IN_PLANE_ORDER(schedule[r:r + BLOCK_SIZE]))
            for r in range(0, len(schedule), BLOCK_SIZE)
        ]
        # CTR never decrypts a block and per-request keys live for one
        # keystream, so the inverse schedule waits for ``decrypt_block``.
        self._dec_schedule: Optional[Tuple[tuple, List[tuple], tuple]] = None

    @property
    def key_size(self) -> int:
        """Key length in bytes."""
        return len(self._key)

    @property
    def rounds(self) -> int:
        """Number of AES rounds for this key size."""
        return self._rounds

    def _expand_key(self, key: bytes) -> List[int]:
        """Expand *key* into ``4 * (rounds + 1)`` 32-bit round-key words."""
        key_words = len(key) // 4
        total_words = 4 * (self._rounds + 1)
        words = [int.from_bytes(key[4 * i:4 * i + 4], "big") for i in range(key_words)]
        sbox = _SBOX
        for i in range(key_words, total_words):
            temp = words[i - 1]
            if i % key_words == 0:
                # RotWord + SubWord + Rcon.
                temp = (
                    (sbox[(temp >> 16) & 0xFF] << 24)
                    | (sbox[(temp >> 8) & 0xFF] << 16)
                    | (sbox[temp & 0xFF] << 8)
                    | sbox[(temp >> 24) & 0xFF]
                ) ^ (_RCON[i // key_words - 1] << 24)
            elif key_words > 6 and i % key_words == 4:
                temp = (
                    (sbox[(temp >> 24) & 0xFF] << 24)
                    | (sbox[(temp >> 16) & 0xFF] << 16)
                    | (sbox[(temp >> 8) & 0xFF] << 8)
                    | sbox[temp & 0xFF]
                )
            words.append(words[i - key_words] ^ temp)
        return words

    def _decryption_schedule(self) -> Tuple[tuple, List[tuple], tuple]:
        """Round keys of the equivalent inverse cipher, built on first use.

        Round keys are applied in reverse order with InvMixColumns
        folded into every key except the first and last, so decryption
        rounds can use the combined ``Td`` tables directly.  Grouped
        ``(first, middle rounds, last)`` like the encryption schedule.
        """
        schedule = self._dec_schedule
        if schedule is None:
            enc_keys = self._enc_keys
            rounds = self._rounds
            middle = [
                tuple(_inv_mix_word(enc_keys[4 * r + c]) for c in range(4))
                for r in range(rounds - 1, 0, -1)
            ]
            schedule = self._dec_schedule = (
                tuple(enc_keys[4 * rounds:4 * rounds + 4]), middle, tuple(enc_keys[0:4]),
            )
        return schedule

    def _encrypt_words(self, s0: int, s1: int, s2: int, s3: int) -> Tuple[int, int, int, int]:
        """Encrypt one block held as four big-endian column words."""
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        k0, k1, k2, k3 = self._enc_first
        s0 ^= k0
        s1 ^= k1
        s2 ^= k2
        s3 ^= k3
        for k0, k1, k2, k3 in self._enc_mid:
            t0 = te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF] ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ k0
            t1 = te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF] ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ k1
            t2 = te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF] ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ k2
            t3 = te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF] ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ k3
            s0, s1, s2, s3 = t0, t1, t2, t3
        # Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        sbox = _SBOX
        k0, k1, k2, k3 = self._enc_last
        t0 = (
            (sbox[s0 >> 24] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
            | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]
        ) ^ k0
        t1 = (
            (sbox[s1 >> 24] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
            | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]
        ) ^ k1
        t2 = (
            (sbox[s2 >> 24] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
            | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]
        ) ^ k2
        t3 = (
            (sbox[s3 >> 24] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
            | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]
        ) ^ k3
        return t0, t1, t2, t3

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        return _PACK4.pack(*self._encrypt_words(*_PACK4.unpack(block)))

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt a single 16-byte block (equivalent inverse cipher)."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        td0, td1, td2, td3 = _TD0, _TD1, _TD2, _TD3
        s0, s1, s2, s3 = _PACK4.unpack(block)
        first, middle, last = self._decryption_schedule()
        k0, k1, k2, k3 = first
        s0 ^= k0
        s1 ^= k1
        s2 ^= k2
        s3 ^= k3
        for k0, k1, k2, k3 in middle:
            t0 = td0[s0 >> 24] ^ td1[(s3 >> 16) & 0xFF] ^ td2[(s2 >> 8) & 0xFF] ^ td3[s1 & 0xFF] ^ k0
            t1 = td0[s1 >> 24] ^ td1[(s0 >> 16) & 0xFF] ^ td2[(s3 >> 8) & 0xFF] ^ td3[s2 & 0xFF] ^ k1
            t2 = td0[s2 >> 24] ^ td1[(s1 >> 16) & 0xFF] ^ td2[(s0 >> 8) & 0xFF] ^ td3[s3 & 0xFF] ^ k2
            t3 = td0[s3 >> 24] ^ td1[(s2 >> 16) & 0xFF] ^ td2[(s1 >> 8) & 0xFF] ^ td3[s0 & 0xFF] ^ k3
            s0, s1, s2, s3 = t0, t1, t2, t3
        inv_sbox = _INV_SBOX
        k0, k1, k2, k3 = last
        t0 = (
            (inv_sbox[s0 >> 24] << 24) | (inv_sbox[(s3 >> 16) & 0xFF] << 16)
            | (inv_sbox[(s2 >> 8) & 0xFF] << 8) | inv_sbox[s1 & 0xFF]
        ) ^ k0
        t1 = (
            (inv_sbox[s1 >> 24] << 24) | (inv_sbox[(s0 >> 16) & 0xFF] << 16)
            | (inv_sbox[(s3 >> 8) & 0xFF] << 8) | inv_sbox[s2 & 0xFF]
        ) ^ k1
        t2 = (
            (inv_sbox[s2 >> 24] << 24) | (inv_sbox[(s1 >> 16) & 0xFF] << 16)
            | (inv_sbox[(s0 >> 8) & 0xFF] << 8) | inv_sbox[s3 & 0xFF]
        ) ^ k2
        t3 = (
            (inv_sbox[s3 >> 24] << 24) | (inv_sbox[(s2 >> 16) & 0xFF] << 16)
            | (inv_sbox[(s1 >> 8) & 0xFF] << 8) | inv_sbox[s0 & 0xFF]
        ) ^ k3
        return _PACK4.pack(t0, t1, t2, t3)

    def encrypt_ctr_blocks(self, initial_counter: int, count: int) -> bytes:
        """Keystream for *count* counter blocks starting at *initial_counter*.

        The counter is 128 bits and wraps to zero.  All blocks go
        through each round together: the batch is one ``16 * count``
        byte buffer of sixteen planes (see ``_PLANE_ORDER``), held as
        ``bytes`` where a step is a table lookup or a permutation
        (``translate``, slices) and as an ``int`` where it is an XOR.
        """
        if count < 0:
            raise ValueError(f"block count must be >= 0, got {count}")
        if count == 0:
            return b""
        from_bytes = int.from_bytes
        size = BLOCK_SIZE * count
        row = 4 * count  # bytes in one state row of the buffer
        row_bits = 8 * row
        mask = (1 << 8 * size) - 1

        # AddRoundKey: ``index`` holds its own position number in every
        # byte of each plane, so one translate through a table that
        # starts with the round key spreads that key over the planes.
        index = b"".join([plane * count for plane in _INDEX_PLANES])

        def spread(round_key: bytes) -> int:
            return from_bytes(index.translate(round_key + _TABLE_TAIL), "big")

        def shift_rows(buffer: bytes) -> bytes:
            # Row r turns left by r planes.
            return b"".join((
                buffer[:row],
                buffer[row + count:2 * row], buffer[row:row + count],
                buffer[2 * row + 2 * count:3 * row], buffer[2 * row:2 * row + 2 * count],
                buffer[3 * row + 3 * count:], buffer[3 * row:3 * row + 3 * count],
            ))

        def turn_rows(planes: int, rows: int) -> int:
            # Rotate the buffer left by whole state rows.
            return ((planes << rows * row_bits) | (planes >> (4 - rows) * row_bits)) & mask

        initial_counter %= _COUNTER_SPAN
        before_wrap = min(count, _COUNTER_SPAN - initial_counter)
        counters = _counter_blocks(initial_counter, before_wrap)
        if before_wrap < count:
            counters += _counter_blocks(0, count - before_wrap)

        round_keys = self._plane_keys
        state = (
            from_bytes(b"".join([counters[k::BLOCK_SIZE] for k in _PLANE_ORDER]), "big")
            ^ spread(round_keys[0])
        )
        for round_key in round_keys[1:-1]:
            shifted = shift_rows(state.to_bytes(size, "big"))
            s = from_bytes(shifted.translate(_SBOX), "big")
            s2 = from_bytes(shifted.translate(_SBOX_X2), "big")
            # MixColumns: output row r is 2*a[r] ^ 3*a[r+1] ^ a[r+2] ^ a[r+3]
            # over input rows a, and turning the buffer left by j rows
            # puts a[r+j] where row r sits.
            state = (
                s2 ^ turn_rows(s ^ s2, 1) ^ turn_rows(s, 2) ^ turn_rows(s, 3)
                ^ spread(round_key)
            )
        # Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        shifted = shift_rows(state.to_bytes(size, "big"))
        planes = (
            from_bytes(shifted.translate(_SBOX), "big") ^ spread(round_keys[-1])
        ).to_bytes(size, "big")
        out = bytearray(size)
        for position, k in enumerate(_PLANE_ORDER):
            out[k::BLOCK_SIZE] = planes[position * count:(position + 1) * count]
        return bytes(out)
