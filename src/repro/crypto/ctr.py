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

Every pass runs in OpenSSL's libcrypto (:func:`repro.crypto.libcrypto.aes_ctr`),
as the paper's SGX-SSL does: a key schedule there costs well under a
microsecond, so no cipher or keystream is cached.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from repro.crypto.libcrypto import aes_ctr

__all__ = [
    "ctr_transform",
    "det_encrypt",
    "det_decrypt",
    "rand_encrypt",
    "rand_decrypt",
    "BLOCK_SIZE",
    "DETERMINISTIC_IV",
]

#: AES block (and CTR counter block) size in bytes.
BLOCK_SIZE = 16

# The paper uses "a constant initialization vector" for deterministic
# encryption; any fixed value works as long as both directions agree.
DETERMINISTIC_IV = bytes(BLOCK_SIZE)


def ctr_transform(key: bytes, iv: bytes, data: bytes) -> bytes:
    """Encrypt or decrypt *data* with AES-CTR (the operation is symmetric).

    The 16-byte *iv* is treated as a big-endian counter block and
    incremented per 16-byte keystream block; *key* is 16, 24 or 32 bytes.
    """
    return aes_ctr(key, iv, data)


def det_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """Deterministically encrypt *plaintext* (constant IV, AES-CTR).

    Two calls with the same key and plaintext produce the same
    ciphertext — this is what makes pseudonymous identifiers stable
    across requests (paper §4.1).
    """
    return aes_ctr(key, DETERMINISTIC_IV, plaintext)


def det_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    """Invert :func:`det_encrypt`."""
    return aes_ctr(key, DETERMINISTIC_IV, ciphertext)


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

