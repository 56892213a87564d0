"""The Paillier additively-homomorphic cryptosystem.

Built to reproduce the paper's §9 contrast: privacy-preserving
recommenders based on encrypted processing — e.g. Basu et al.'s
homomorphically-encrypted Slope One on public clouds — "report base
latencies for get queries in the order of several seconds", versus
PProx's proxying overhead of a few milliseconds of crypto per request.

Implements key generation (two safe-sized primes), encryption,
decryption, and the two homomorphic operations Slope One needs:

* ``add(c1, c2)``   — E(m1) (+) E(m2)      = E(m1 + m2)
* ``mul_plain``     — E(m) (*) k           = E(m * k)

Plaintexts are integers modulo n; negative values are represented in
the upper half of the range (two's-complement style) so rating
deviations can be negative.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

from repro.crypto.rsa import _is_probable_prime, _random_prime  # reuse Miller-Rabin

__all__ = ["PaillierPublicKey", "PaillierPrivateKey", "generate_paillier_keypair"]


@dataclass(frozen=True)
class PaillierPublicKey:
    """Paillier public key ``n`` (generator g = n + 1)."""

    n: int

    @cached_property
    def n_squared(self) -> int:
        return self.n * self.n

    @property
    def max_plaintext(self) -> int:
        """Largest representable magnitude (half range, signed)."""
        return self.n // 2

    def _encode(self, message: int) -> int:
        if abs(message) > self.max_plaintext:
            raise ValueError(f"plaintext magnitude {message} exceeds key range")
        return message % self.n

    def encrypt(self, message: int, rng: Optional[Callable[[int], int]] = None) -> int:
        """Encrypt a (signed) integer."""
        encoded = self._encode(message)
        if rng is None:
            def rng(bound: int) -> int:
                return int.from_bytes(os.urandom((bound.bit_length() + 7) // 8 + 8),
                                      "big") % bound
        while True:
            r = rng(self.n - 1) + 1
            if r % self.n != 0:
                break
        # g^m = (n+1)^m = 1 + n*m (mod n^2) — the standard shortcut.
        g_m = (1 + self.n * encoded) % self.n_squared
        return (g_m * pow(r, self.n, self.n_squared)) % self.n_squared

    def add(self, c1: int, c2: int) -> int:
        """Homomorphic addition of two ciphertexts."""
        return (c1 * c2) % self.n_squared

    def mul_plain(self, ciphertext: int, k: int) -> int:
        """Homomorphic multiplication by a plaintext constant."""
        return pow(ciphertext, self._encode(k), self.n_squared)


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Paillier private key (lambda = lcm(p-1, q-1), CRT-free form)."""

    public: PaillierPublicKey
    lam: int

    @cached_property
    def _mu(self) -> int:
        n = self.public.n
        # mu = (L(g^lambda mod n^2))^-1 mod n with g = n+1:
        # g^lambda = 1 + n*lambda (mod n^2) only when lambda < n; use
        # the general L function for correctness.
        x = pow(1 + n, self.lam, self.public.n_squared)
        l_value = (x - 1) // n
        return pow(l_value, -1, n)

    def decrypt(self, ciphertext: int) -> int:
        """Decrypt to a signed integer."""
        n = self.public.n
        x = pow(ciphertext, self.lam, self.public.n_squared)
        l_value = (x - 1) // n
        plain = (l_value * self._mu) % n
        # Signed decode: upper half of the range is negative.
        return plain - n if plain > n // 2 else plain


def generate_paillier_keypair(
    bits: int = 1024, rng: Optional[Callable[[int], int]] = None
) -> Tuple[PaillierPublicKey, PaillierPrivateKey]:
    """Generate a Paillier keypair with a *bits*-bit modulus."""
    if bits < 256:
        raise ValueError("modulus must be at least 256 bits")
    if rng is None:
        def rng(bound: int) -> int:
            return int.from_bytes(os.urandom((bound.bit_length() + 7) // 8 + 8),
                                  "big") % bound
    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        # lcm(p-1, q-1)
        import math

        lam = (p - 1) * (q - 1) // math.gcd(p - 1, q - 1)
        public = PaillierPublicKey(n=n)
        return public, PaillierPrivateKey(public=public, lam=lam)
