"""RSA with OAEP padding, implemented from scratch.

The paper's proxy service uses RSA (via Intel SGX-SSL) for the
asymmetric half of the protocol: the user-side library encrypts the
user identifier under ``pkUA`` and item identifiers / temporary keys
under ``pkIA`` so that exactly one proxy layer can read each field.

Key generation uses Miller-Rabin probabilistic primality testing and a
CRT-accelerated private operation.  Default modulus size is 1024 bits
— small by deployment standards but sound for a simulation, and fast
enough to run thousands of real decryptions inside the benchmarks (the
key size is configurable up to 3072 bits).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

from repro.crypto.xor import xor_bytes

__all__ = ["RsaPublicKey", "RsaPrivateKey", "generate_keypair", "OaepError"]

_E = 65537

# Small primes for fast trial division before Miller-Rabin.
_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]


class OaepError(ValueError):
    """Raised when OAEP decoding fails (wrong key or corrupted data)."""


def _is_probable_prime(candidate: int, rng: Callable[[int], int], rounds: int = 16) -> bool:
    """Miller-Rabin primality test with *rounds* random bases."""
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate % prime == 0:
            return candidate == prime
    # Write candidate - 1 as d * 2^r with d odd.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        base = rng(candidate - 3) + 2
        x = pow(base, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: Callable[[int], int]) -> int:
    """Sample a random prime with exactly *bits* bits and its top two set.

    Two such primes are each at least ``0.75 * 2**bits``, so their
    product always has exactly ``2 * bits`` bits and key generation
    never has to throw a pair away for a short modulus.
    """
    while True:
        candidate = rng(1 << (bits - 2)) | (3 << (bits - 2)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key ``(n, e)`` with OAEP encryption."""

    n: int
    e: int = _E

    @property
    def modulus_bytes(self) -> int:
        """Length of the modulus in bytes."""
        return (self.n.bit_length() + 7) // 8

    @property
    def max_message_bytes(self) -> int:
        """Largest plaintext OAEP can carry under this key (SHA-256)."""
        return self.modulus_bytes - 2 * hashlib.sha256().digest_size - 2

    def encrypt(self, message: bytes, rng: Optional[Callable[[int], bytes]] = None) -> bytes:
        """OAEP-encrypt *message*; result is ``modulus_bytes`` long.

        Encryption is randomized: two encryptions of the same message
        differ, which is exactly why the ciphertext of a user id cannot
        serve as its pseudonym (paper §4.1).
        """
        padded = _oaep_encode(message, self.modulus_bytes, rng or os.urandom)
        value = pow(int.from_bytes(padded, "big"), self.e, self.n)
        return value.to_bytes(self.modulus_bytes, "big")


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key with CRT parameters for fast decryption."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def public_key(self) -> RsaPublicKey:
        """The matching public key."""
        return RsaPublicKey(n=self.n, e=self.e)

    @property
    def modulus_bytes(self) -> int:
        """Length of the modulus in bytes."""
        return (self.n.bit_length() + 7) // 8

    def decrypt(self, ciphertext: bytes) -> bytes:
        """OAEP-decrypt a ciphertext produced by the matching public key."""
        if len(ciphertext) != self.modulus_bytes:
            raise OaepError(
                f"ciphertext length {len(ciphertext)} != modulus length {self.modulus_bytes}"
            )
        value = int.from_bytes(ciphertext, "big")
        if value >= self.n:
            raise OaepError("ciphertext value out of range")
        padded = self._crt_power(value).to_bytes(self.modulus_bytes, "big")
        return _oaep_decode(padded, self.modulus_bytes)

    @cached_property
    def _crt_params(self) -> Tuple[int, int, int]:
        """Cached CRT exponents and inverse: ``(dp, dq, q_inv)``."""
        return self.d % (self.p - 1), self.d % (self.q - 1), pow(self.q, -1, self.p)

    def _crt_power(self, value: int) -> int:
        """Compute ``value ** d mod n`` using the Chinese Remainder Theorem."""
        dp, dq, q_inv = self._crt_params
        m1 = pow(value % self.p, dp, self.p)
        m2 = pow(value % self.q, dq, self.q)
        h = (q_inv * (m1 - m2)) % self.p
        return m2 + h * self.q


def generate_keypair(
    bits: int = 1024, rng: Optional[Callable[[int], int]] = None
) -> Tuple[RsaPublicKey, RsaPrivateKey]:
    """Generate an RSA keypair with a *bits*-bit modulus.

    *rng* maps an exclusive upper bound to a uniform integer in
    ``[0, bound)``; defaults to a CSPRNG.  Supplying a seeded rng makes
    key generation reproducible for tests.
    """
    if bits < 832:
        # OAEP with SHA-256 needs 2*32+2 = 66 bytes of overhead, and the
        # hybrid envelope must fit a 32-byte session key on top.
        raise ValueError("modulus must be at least 832 bits to carry OAEP payloads")
    if rng is None:
        def rng(bound: int) -> int:
            return int.from_bytes(os.urandom((bound.bit_length() + 7) // 8 + 8), "big") % bound

    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        if phi % _E == 0:
            continue
        d = pow(_E, -1, phi)
        return RsaPublicKey(n=n, e=_E), RsaPrivateKey(n=n, e=_E, d=d, p=p, q=q)


def _mgf1(seed: bytes, length: int) -> bytes:
    """MGF1 mask generation function with SHA-256."""
    output = bytearray()
    counter = 0
    while len(output) < length:
        output.extend(hashlib.sha256(seed + counter.to_bytes(4, "big")).digest())
        counter += 1
    return bytes(output[:length])


def _oaep_encode(message: bytes, modulus_bytes: int, random_bytes: Callable[[int], bytes]) -> bytes:
    """RSAES-OAEP encoding (empty label, SHA-256)."""
    hash_len = hashlib.sha256().digest_size
    max_message = modulus_bytes - 2 * hash_len - 2
    if len(message) > max_message:
        raise OaepError(f"message too long for OAEP: {len(message)} > {max_message}")
    label_hash = hashlib.sha256(b"").digest()
    padding = b"\x00" * (max_message - len(message))
    data_block = label_hash + padding + b"\x01" + message
    seed = random_bytes(hash_len)
    masked_db = xor_bytes(data_block, _mgf1(seed, len(data_block)))
    masked_seed = xor_bytes(seed, _mgf1(masked_db, hash_len))
    return b"\x00" + masked_seed + masked_db


def _oaep_decode(padded: bytes, modulus_bytes: int) -> bytes:
    """RSAES-OAEP decoding; raises :class:`OaepError` on any mismatch."""
    hash_len = hashlib.sha256().digest_size
    if len(padded) != modulus_bytes or padded[0] != 0:
        raise OaepError("malformed OAEP block")
    masked_seed = padded[1:1 + hash_len]
    masked_db = padded[1 + hash_len:]
    seed = xor_bytes(masked_seed, _mgf1(masked_db, hash_len))
    data_block = xor_bytes(masked_db, _mgf1(seed, len(masked_db)))
    label_hash = hashlib.sha256(b"").digest()
    if data_block[:hash_len] != label_hash:
        raise OaepError("OAEP label hash mismatch")
    separator = data_block.find(b"\x01", hash_len)
    if separator == -1 or any(data_block[hash_len:separator]):
        raise OaepError("OAEP padding separator not found")
    return data_block[separator + 1:]
