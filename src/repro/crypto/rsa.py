"""RSA with OAEP padding, implemented from scratch.

The paper's proxy service uses RSA (via Intel SGX-SSL) for the
asymmetric half of the protocol: the user-side library encrypts the
user identifier under ``pkUA`` and item identifiers / temporary keys
under ``pkIA`` so that exactly one proxy layer can read each field.

Every key is a standard RFC 8017 two-prime key: ``n = pq`` for two
distinct 512-bit primes found by Miller-Rabin, with the CRT values
``(dP, dQ, qInv)`` of RFC 8017's second private-key representation, so
OpenSSL — hence the SGX-SSL library the paper's enclaves run — loads
it as it is.  The private operation is RFC 8017's: one modular power
mod ``p``, one mod ``q``, and Garner's recombination.  Every modular
power with a non-negative exponent — OAEP's public one, the CRT powers
and Miller-Rabin's — is :func:`repro.crypto.libcrypto.mod_pow`,
OpenSSL's Montgomery power as in SGX-SSL: constant-time for the secret
exponents, plain for the public ``e`` and Miller-Rabin's squarings.

The modulus is :data:`RSA_BITS` (1024) bits — small by deployment
standards but sound for a simulation, and fast enough to run thousands
of real decryptions inside the benchmarks.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Tuple

from repro.crypto.libcrypto import mod_pow
from repro.crypto.xor import xor_bytes

__all__ = ["RsaPublicKey", "RsaPrivateKey", "generate_keypair", "OaepError", "RSA_BITS"]

#: Modulus size of every keypair :func:`generate_keypair` draws.
RSA_BITS = 1024

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
        x = mod_pow(base, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = mod_pow(x, 2, candidate, public_exponent=True)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: Callable[[int], int]) -> int:
    """Sample a random prime with exactly *bits* bits and its top two set.

    Each factor is then at least three quarters of its power of two, and
    ``(3/4)**2`` exceeds one half, so the product of two always has
    exactly ``2 * bits`` bits and key generation never throws a pair
    away for a short modulus.
    """
    while True:
        candidate = rng(1 << (bits - 2)) | (0b11 << (bits - 2)) | 1
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
        value = mod_pow(int.from_bytes(padded, "big"), self.e, self.n, public_exponent=True)
        return value.to_bytes(self.modulus_bytes, "big")


@dataclass(frozen=True)
class RsaPrivateKey:
    """RFC 8017 two-prime RSA private key, with CRT decryption."""

    n: int
    e: int
    d: int
    p: int
    q: int

    def __post_init__(self) -> None:
        # A key whose factors do not describe n would otherwise decrypt
        # to garbage and fail as if the ciphertext were malformed.
        if self.p * self.q != self.n:
            raise ValueError("p * q is not n")
        if self.p == self.q:
            raise ValueError("p and q must be distinct primes")
        for prime in (self.p, self.q):
            if prime < 2 or (self.e * self.d - 1) % (prime - 1):
                raise ValueError("e * d is not 1 modulo p - 1 and q - 1")

    @property
    def public_key(self) -> RsaPublicKey:
        """The matching public key."""
        return RsaPublicKey(n=self.n, e=self.e)

    @property
    def modulus_bytes(self) -> int:
        """Length of the modulus in bytes."""
        return (self.n.bit_length() + 7) // 8

    @cached_property
    def crt_values(self) -> Tuple[int, int, int]:
        """RFC 8017's ``(dP, dQ, qInv)``: ``d mod (p - 1)``,
        ``d mod (q - 1)`` and ``q^-1 mod p``."""
        return self.d % (self.p - 1), self.d % (self.q - 1), pow(self.q, -1, self.p)

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

    def _crt_power(self, value: int) -> int:
        """Compute ``value ** d mod n`` as RFC 8017 §5.1.2, step 2.b:
        one power mod ``p``, one mod ``q``, and Garner's recombination."""
        d_p, d_q, q_inverse = self.crt_values
        root_p = mod_pow(value % self.p, d_p, self.p)
        root_q = mod_pow(value % self.q, d_q, self.q)
        return root_q + self.q * ((root_p - root_q) * q_inverse % self.p)


def generate_keypair(
    rng: Optional[Callable[[int], int]] = None,
) -> Tuple[RsaPublicKey, RsaPrivateKey]:
    """Generate an RSA keypair with an :data:`RSA_BITS`-bit modulus.

    Two distinct primes ``p`` and ``q`` of half the modulus each are
    drawn, each with ``p - 1`` prime to ``e``.  *rng* maps an exclusive
    upper bound to a uniform integer in ``[0, bound)``; defaults to a
    CSPRNG.  Supplying a seeded rng makes key generation reproducible
    for tests.
    """
    if rng is None:
        def rng(bound: int) -> int:
            return int.from_bytes(os.urandom((bound.bit_length() + 7) // 8 + 8), "big") % bound

    primes: List[int] = []
    while len(primes) < 2:
        prime = _random_prime(RSA_BITS // 2, rng)
        # e must be invertible modulo p - 1 and q - 1.
        if prime not in primes and (prime - 1) % _E:
            primes.append(prime)
    p, q = primes
    n = p * q
    d = pow(_E, -1, (p - 1) * (q - 1))
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
    if len(seed) != hash_len:
        # xor_bytes would truncate the mask, and the block would fail
        # only at the receiving layer, as a label hash mismatch.
        raise ValueError("rng returned an OAEP seed of the wrong size")
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
