"""AES-CTR with a random IV, as the PProx protocol uses it (paper §5).

:func:`rand_encrypt` / :func:`rand_decrypt` prepend a fresh IV to the
ciphertext; they protect the recommendation list under the per-request
temporary key ``k_u`` and the body of the hybrid envelopes.  (The
paper's constant-IV ``det_enc`` pseudonym is a many-time pad; see
:mod:`repro.crypto.prp`.)

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
    "rand_encrypt",
    "rand_decrypt",
    "BLOCK_SIZE",
]

#: AES block (and CTR counter block) size in bytes.
BLOCK_SIZE = 16


def ctr_transform(key: bytes, iv: bytes, data: bytes) -> bytes:
    """Encrypt or decrypt *data* with AES-CTR (the operation is symmetric).

    The 16-byte *iv* is treated as a big-endian counter block and
    incremented per 16-byte keystream block; *key* is 16, 24 or 32 bytes.
    """
    return aes_ctr(key, iv, data)


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

