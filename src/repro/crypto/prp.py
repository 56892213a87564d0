"""The pseudonym: a keyed permutation of the 48-byte identifier block.

The paper's ``det_enc`` (AES-CTR under a constant IV, §4.1) XORs every
identifier under a key with one keystream, so one known (identifier,
pseudonym) pair decodes them all (docs/threat-model.md).  This keeps
what the protocol needs of it — deterministic, invertible, 48 bytes in
and out — as a 4-round Luby–Rackoff Feistel network over two 24-byte
halves, a strong pseudorandom permutation.  Round *i* is keyed BLAKE2b
under the layer key with its own personalisation (``hashlib``, in C).
A block that is not :data:`BLOCK_BYTES` long, or a key that is not a
layer key, raises :class:`ValueError` before any round runs.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Tuple

from repro.crypto.envelope import FIXED_ID_BYTES
from repro.crypto.keys import SYMMETRIC_KEY_BYTES

__all__ = ["BLOCK_BYTES", "encipher", "decipher"]

BLOCK_BYTES = FIXED_ID_BYTES
_HALF = BLOCK_BYTES // 2
# Four rounds, each with its own BLAKE2b personalisation (≤ 16 bytes):
# three would not resist an adversary querying both directions.
_PERSONS = tuple(b"pprox-prp-rnd-%d" % index for index in range(4))


def _feistel(key: bytes, block: bytes, persons: Tuple[bytes, ...]) -> bytes:
    if len(key) != SYMMETRIC_KEY_BYTES:
        raise ValueError(f"expected a {SYMMETRIC_KEY_BYTES}-byte layer key, got {len(key)}")
    if len(block) != BLOCK_BYTES:
        raise ValueError(f"expected a {BLOCK_BYTES}-byte identifier block, got {len(block)}")
    left, right = block[:_HALF], block[_HALF:]
    for person in persons:
        mask = blake2b(right, key=key, person=person, digest_size=_HALF).digest()
        left, right = right, (
            int.from_bytes(left, "big") ^ int.from_bytes(mask, "big")
        ).to_bytes(_HALF, "big")
    return left + right


def encipher(key: bytes, block: bytes) -> bytes:
    """The pseudonym of the identifier *block* under *key*."""
    return _feistel(key, block, _PERSONS)


def decipher(key: bytes, block: bytes) -> bytes:
    """Invert :func:`encipher`: the same network, rounds in reverse
    order, on the swapped halves."""
    swapped = _feistel(key, block[_HALF:] + block[:_HALF], _PERSONS[::-1])
    return swapped[_HALF:] + swapped[:_HALF]
