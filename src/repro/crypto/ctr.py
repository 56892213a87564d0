"""AES-CTR stream modes used by the PProx protocol.

Two flavours, exactly as in the paper (§4.1, §5):

* :func:`det_encrypt` / :func:`det_decrypt` — deterministic encryption
  with a *constant* initialization vector.  Used to pseudonymize user
  and item identifiers so the LRS can recognise two encryptions of the
  same identifier as the same entity.
* :func:`rand_encrypt` / :func:`rand_decrypt` — randomized encryption
  with a fresh random IV prepended to the ciphertext.  Used for the
  recommendation list returned under the per-request temporary key
  ``k_u`` and for the public-key hybrid envelopes.

Hot-path structure: all keystream blocks of a payload are generated in
one call (:meth:`repro.crypto.aes.AES.encrypt_ctr_blocks`, which takes
them through each AES round together) and XORed against the payload
with a single whole-buffer integer XOR.  Because the
deterministic mode uses a constant IV, its keystream for a given key
is *fixed* — a per-key prefix is cached, so steady-state
pseudonymization of a ≤32-byte identifier is one slice + one XOR with
no AES calls at all.
"""

from __future__ import annotations

import hmac
import os
from typing import Callable, Optional

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.xor import xor_bytes

__all__ = [
    "ctr_transform",
    "det_encrypt",
    "det_decrypt",
    "rand_encrypt",
    "rand_decrypt",
    "keyed_pseudonym",
    "DETERMINISTIC_IV",
]

# The paper uses "a constant initialization vector" for deterministic
# encryption; any fixed value works as long as both directions agree.
DETERMINISTIC_IV = bytes(BLOCK_SIZE)

# Key schedules are expensive in pure Python; the proxy reuses a small
# number of permanent keys, so cache the expanded ciphers.
_CIPHER_CACHE: dict = {}
_CIPHER_CACHE_MAX = 256

# Constant-IV keystreams are fixed per key; cache a prefix long enough
# for identifiers and typical short payloads (32 blocks = 512 bytes).
_DET_KEYSTREAM_CACHE: dict = {}
_DET_KEYSTREAM_CACHE_MAX = 256
_DET_KEYSTREAM_PREFIX_BLOCKS = 32


def _evict_oldest(cache: dict, maxsize: int) -> None:
    """Drop the oldest entries until *cache* has room for one more.

    Dicts are insertion-ordered, so the first key is the oldest; a
    wholesale ``clear()`` here would re-expand all hot key schedules.
    """
    while len(cache) >= maxsize:
        del cache[next(iter(cache))]


def _cipher_for(key: bytes) -> AES:
    """Return a cached :class:`AES` instance for *key*."""
    cipher = _CIPHER_CACHE.get(key)
    if cipher is None:
        _evict_oldest(_CIPHER_CACHE, _CIPHER_CACHE_MAX)
        cipher = AES(key)
        _CIPHER_CACHE[key] = cipher
    return cipher


def _det_keystream(key: bytes, length: int) -> bytes:
    """Constant-IV keystream for *key*, at least *length* bytes long."""
    stream = _DET_KEYSTREAM_CACHE.get(key)
    if stream is None or len(stream) < length:
        blocks = max(
            _DET_KEYSTREAM_PREFIX_BLOCKS,
            (length + BLOCK_SIZE - 1) // BLOCK_SIZE,
        )
        initial = int.from_bytes(DETERMINISTIC_IV, "big")
        fresh = _cipher_for(key).encrypt_ctr_blocks(initial, blocks)
        if stream is None:
            _evict_oldest(_DET_KEYSTREAM_CACHE, _DET_KEYSTREAM_CACHE_MAX)
        _DET_KEYSTREAM_CACHE[key] = fresh
        return fresh
    return stream


def ctr_transform(key: bytes, iv: bytes, data: bytes) -> bytes:
    """Encrypt or decrypt *data* with AES-CTR (the operation is symmetric).

    The 16-byte *iv* is treated as a big-endian counter block and
    incremented per 16-byte keystream block.
    """
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"CTR IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    if not data:
        return b""
    cipher = _cipher_for(key)
    blocks = (len(data) + BLOCK_SIZE - 1) // BLOCK_SIZE
    keystream = cipher.encrypt_ctr_blocks(int.from_bytes(iv, "big"), blocks)
    return xor_bytes(data, keystream)


def det_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """Deterministically encrypt *plaintext* (constant IV, AES-CTR).

    Two calls with the same key and plaintext produce the same
    ciphertext — this is what makes pseudonymous identifiers stable
    across requests (paper §4.1).  The constant-IV keystream is cached
    per key, so repeat calls cost one slice and one integer XOR.
    """
    if not plaintext:
        return b""
    return xor_bytes(plaintext, _det_keystream(key, len(plaintext)))


def det_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    """Invert :func:`det_encrypt`."""
    if not ciphertext:
        return b""
    return xor_bytes(ciphertext, _det_keystream(key, len(ciphertext)))


def rand_encrypt(key: bytes, plaintext: bytes, rng: Optional[Callable[[int], bytes]] = None) -> bytes:
    """Encrypt with a fresh random IV; returns ``iv || ciphertext``.

    *rng* may be supplied for deterministic tests; it must return *n*
    random bytes when called as ``rng(n)``.  Defaults to ``os.urandom``.
    """
    random_bytes = rng or os.urandom
    iv = random_bytes(BLOCK_SIZE)
    if len(iv) != BLOCK_SIZE:
        raise ValueError("rng returned an IV of the wrong size")
    return iv + ctr_transform(key, iv, plaintext)


def rand_decrypt(key: bytes, blob: bytes) -> bytes:
    """Invert :func:`rand_encrypt` on an ``iv || ciphertext`` blob."""
    if len(blob) < BLOCK_SIZE:
        raise ValueError("ciphertext too short to contain an IV")
    iv, ciphertext = blob[:BLOCK_SIZE], blob[BLOCK_SIZE:]
    return ctr_transform(key, iv, ciphertext)


def keyed_pseudonym(key: bytes, identifier: bytes, length: int = 16) -> bytes:
    """HMAC-SHA256 pseudonym: the *fast provider's* deterministic map.

    Unlike :func:`det_encrypt` this is not invertible, which is fine for
    pseudonymization-only flows (the LRS never needs the original user
    identifier back; item identifiers do need inversion, so the fast
    provider keeps a reverse table inside the enclave).
    """
    digest = hmac.new(key, identifier, "sha256").digest()
    return digest[:length]
