"""RSA with OAEP padding, implemented from scratch.

The paper's proxy service uses RSA (via Intel SGX-SSL) for the
asymmetric half of the protocol: the user-side library encrypts the
user identifier under ``pkUA`` and item identifiers / temporary keys
under ``pkIA`` so that exactly one proxy layer can read each field.

Key generation uses Miller-Rabin probabilistic primality testing.
Below 1024 bits a modulus is ``n = pq``; from 1024 bits up it is the
multi-power modulus ``n = p²q`` (Takagi, CRYPTO '98), whose smallest
factor is still a third of the modulus (340 bits at 1024).  The public
key is ``(n, e)`` either way, so any standard RSA-OAEP encryptor can
encrypt to it, and OAEP and the wire do not depend on the shape.  The
private operation runs through the Chinese Remainder Theorem over the
prime *powers*: one modular power per distinct prime, and for ``p²``
one Hensel step that lifts the root from mod ``p`` to mod ``p²``.
Every modular power with a non-negative exponent — OAEP's public one,
the CRT powers, the lift's ``root^e`` and Miller-Rabin's — is
:func:`repro.crypto.libcrypto.mod_pow`, OpenSSL's Montgomery power as
in the SGX-SSL the paper's enclaves run: constant-time for the secret
exponents, plain for the public ``e`` and Miller-Rabin's squarings.

The ``p²q`` private key is simulation-grade: RFC 8017 multi-prime keys
need distinct primes, and OpenSSL (hence the SGX-SSL library the paper's
enclaves run) cannot load one.  Only its public half is an ordinary RSA
key.  Default modulus size is 1024 bits — small by deployment standards
but sound for a simulation, and fast enough to run thousands of real
decryptions inside the benchmarks.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Callable, List, Optional, Tuple

from repro.crypto.libcrypto import mod_pow
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


def _random_prime(bits: int, rng: Callable[[int], int], top_bits: int = 2) -> int:
    """Sample a random prime with exactly *bits* bits and its top *top_bits* set.

    With ``k`` prime factors (counted with multiplicity) each carrying
    its top ``k`` bits, every factor is at least ``(1 - 2**-k)`` times
    its power of two, and ``(1 - 2**-k)**k`` exceeds one half for ``k`` =
    2 (0.5625) and 3 (0.67).  So the product always has exactly the sum
    of the factor sizes in bits, and key generation never has to throw a
    pair away for a short modulus.
    """
    top = (1 << top_bits) - 1
    while True:
        candidate = rng(1 << (bits - top_bits)) | (top << (bits - top_bits)) | 1
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
    """RSA private key over its prime factors, with CRT decryption."""

    n: int
    e: int
    d: int
    #: The prime factors of ``n`` with multiplicity, in the order drawn:
    #: ``(p, q)``, or ``(p, p, q)`` for a multi-power key.
    primes: Tuple[int, ...]

    def __post_init__(self) -> None:
        # A key whose factors do not describe n would otherwise decrypt
        # to garbage and fail as if the ciphertext were malformed.
        if prod(self.primes) != self.n:
            raise ValueError("the primes do not multiply to n")
        for prime in set(self.primes):
            if self.primes.count(prime) > 2:
                # The lift from mod p is a single Hensel step: p² at most.
                raise ValueError("a prime may be listed at most twice")
            if prime < 2 or (self.e * self.d - 1) % (prime - 1):
                raise ValueError("e * d is not 1 modulo p - 1 for every prime p")

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
    def _crt_params(self) -> Tuple[Tuple[int, int, int, int, int], ...]:
        """Per distinct prime ``p`` dividing ``n`` exactly ``k`` times:
        ``(p, p^k, d mod (p - 1) - 1, e^-1 mod p, M^-1 mod p^k)``, where
        ``M`` is the product of the prime powers before it."""
        params = []
        product = 1
        for prime in dict.fromkeys(self.primes):
            modulus = prime ** self.primes.count(prime)
            params.append((prime, modulus, self.d % (prime - 1) - 1,
                           pow(self.e, -1, prime), pow(product, -1, modulus)))
            product *= modulus
        return tuple(params)

    def _crt_power(self, value: int) -> int:
        """Compute ``value ** d mod n`` from one power per distinct prime.

        Mod ``p`` the root is ``B * v`` with ``B = v^(d_p - 1)``.  For
        ``p²`` one Hensel step lifts it: the inverse of the derivative
        ``e * root^(e-1)`` mod ``p`` is ``B * e^-1``, because
        ``root^(e-1) = v / root``, so no call inverts anything.  When
        ``p`` divides ``v`` the root and the lift are both 0, as
        ``pow(v, d, n)`` is.  Garner's recombination (RFC 8017 §5.1.2,
        step 2.b) then makes ``result`` the answer modulo the product of
        the prime powers seen so far, each further one lifting it by a
        multiple of that product.
        """
        result = 0
        product = 1
        for prime, modulus, exponent, e_inverse, coefficient in self._crt_params:
            residue = value % prime
            base = mod_pow(residue, exponent, prime)
            root = base * residue % prime
            if modulus != prime:
                error = (value - mod_pow(root, self.e, modulus, public_exponent=True)) % modulus // prime
                root += prime * (error * base * e_inverse % prime)
            result += product * ((root - result) * coefficient % modulus)
            product *= modulus
        return result


def generate_keypair(
    bits: int = 1024, rng: Optional[Callable[[int], int]] = None
) -> Tuple[RsaPublicKey, RsaPrivateKey]:
    """Generate an RSA keypair with a *bits*-bit modulus.

    Two distinct primes ``p`` and ``q`` are drawn: ``n = pq`` below 1024
    bits ([416, 416] at 832), and ``n = p²q`` from 1024 bits up, with
    ``p`` of ``ceil(bits / 3)`` bits and ``q`` the rest ([342, 340] at
    1024, [683, 682] at 2048).  *rng* maps an exclusive upper bound to a
    uniform integer in ``[0, bound)``; defaults to a CSPRNG.  Supplying a
    seeded rng makes key generation reproducible for tests.
    """
    if bits < 832:
        # OAEP with SHA-256 needs 2*32+2 = 66 bytes of overhead, and the
        # hybrid envelope must fit a 32-byte session key on top.
        raise ValueError("modulus must be at least 832 bits to carry OAEP payloads")
    if rng is None:
        def rng(bound: int) -> int:
            return int.from_bytes(os.urandom((bound.bit_length() + 7) // 8 + 8), "big") % bound

    count = 2 if bits < 1024 else 3  # prime factors, with multiplicity
    first = -(-bits // count)
    sizes = [first, bits - (count - 1) * first]
    distinct: List[int] = []
    while len(distinct) < 2:
        prime = _random_prime(sizes[len(distinct)], rng, count)
        # e must be invertible modulo every p - 1.
        if prime not in distinct and (prime - 1) % _E:
            distinct.append(prime)
    p, q = distinct
    primes = (p, q) if count == 2 else (p, p, q)
    n = prod(primes)
    # φ(n): (p - 1)(q - 1) for pq, p(p - 1)(q - 1) for p²q.
    d = pow(_E, -1, n // (p * q) * (p - 1) * (q - 1))
    return RsaPublicKey(n=n, e=_E), RsaPrivateKey(n=n, e=_E, d=d, primes=primes)


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
