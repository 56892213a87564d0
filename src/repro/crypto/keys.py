"""Key material for the two PProx proxy layers (paper Table 1).

Each layer owns an asymmetric keypair (``pk``/``sk``) used by the
user-side library to address fields to exactly one layer, and a
permanent symmetric key (``kUA`` / ``kIA``) used for deterministic
pseudonymization of user and item identifiers.  A per-request
temporary key ``k_u`` protects the recommendation list on its way
back through the UA layer.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, generate_keypair

__all__ = ["LayerKeys", "LayerPublicMaterial", "KeyFactory", "SYMMETRIC_KEY_BYTES"]

SYMMETRIC_KEY_BYTES = 32  # AES-256 as in the paper.


@dataclass(frozen=True)
class LayerPublicMaterial:
    """The public half of a layer's key material (safe to publish)."""

    public_key: RsaPublicKey


@dataclass(frozen=True)
class LayerKeys:
    """Full key material provisioned into one proxy layer's enclaves.

    All enclaves of the same layer share the same keys (paper §5,
    Horizontal scaling), so a :class:`LayerKeys` instance is created
    once per layer by the RaaS client application and provisioned to
    every attested enclave of that layer.
    """

    private_key: RsaPrivateKey
    symmetric_key: bytes

    def __post_init__(self) -> None:
        if len(self.symmetric_key) != SYMMETRIC_KEY_BYTES:
            raise ValueError(
                f"layer symmetric key must be {SYMMETRIC_KEY_BYTES} bytes,"
                f" got {len(self.symmetric_key)}"
            )

    @cached_property
    def public_material(self) -> LayerPublicMaterial:
        """The publishable half of this material, built once: the
        client looks it up on every request."""
        return LayerPublicMaterial(public_key=self.private_key.public_key)

    @property
    def fingerprint(self) -> str:
        """Short digest of the public modulus.

        Identity-free (derived from public material only — no secret
        bytes enter the hash) and stable per generation, so telemetry
        can correlate an epoch announcement with the keys an enclave
        was provisioned without ever serializing key material.
        """
        modulus = self.private_key.public_key.n
        return hashlib.sha256(str(modulus).encode("ascii")).hexdigest()[:16]


@dataclass
class KeyFactory:
    """Generates key material; seedable for reproducible experiments."""

    rng_int: Optional[Callable[[int], int]] = None
    rng_bytes: Callable[[int], bytes] = field(default=os.urandom)

    def layer_keys(self) -> LayerKeys:
        """Generate fresh key material for one proxy layer."""
        _, private_key = generate_keypair(self.rng_int)
        return LayerKeys(
            private_key=private_key,
            symmetric_key=self.rng_bytes(SYMMETRIC_KEY_BYTES),
        )

