"""Crypto provider interface used by the user-side library and proxies.

Two implementations:

* :class:`RealCryptoProvider` — the paper's construction: RSA-OAEP for
  layer-addressed fields, AES-256-CTR with a constant IV for
  deterministic pseudonymization, AES-256-CTR with a random IV for the
  temporary-key protection of recommendation lists.  Ships a bounded
  LRU memo for pseudonym operations (hot user/item ids repeat heavily
  under the MovieLens workload) with hit/miss counters the metrics
  layer can sample.
* :class:`SimCryptoProvider` — keyed-BLAKE2 stand-in that cuts host
  CPU for drills and large simulations (what every ``SimContext``
  defaults to); see its docstring for the caveats.

Both are *real* transformations — ciphertexts are actually unreadable
without the key — so the privacy test-suite exercises genuine data
flow, not tags.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, List

from repro.crypto import ctr
from repro.crypto.keys import SYMMETRIC_KEY_BYTES, LayerKeys, LayerPublicMaterial
from repro.crypto.rsa import RsaPublicKey
from repro.crypto.xor import xor_bytes

__all__ = [
    "CryptoProvider",
    "RealCryptoProvider",
    "SimCryptoProvider",
]


class CryptoProvider:
    """Abstract interface for the protocol's cryptographic operations."""

    #: Human-readable name used in experiment configuration records.
    name = "abstract"

    def asym_encrypt(self, public: LayerPublicMaterial, plaintext: bytes) -> bytes:
        """Randomized public-key encryption addressed to one layer."""
        raise NotImplementedError

    def asym_decrypt(self, keys: LayerKeys, blob: bytes) -> bytes:
        """Invert :meth:`asym_encrypt` with the layer's private key."""
        raise NotImplementedError

    def pseudonymize(self, key: bytes, identifier: bytes) -> bytes:
        """Deterministic encryption of a fixed-size identifier."""
        raise NotImplementedError

    def depseudonymize(self, key: bytes, pseudonym: bytes) -> bytes:
        """Invert :meth:`pseudonymize`."""
        raise NotImplementedError

    def pseudonymize_many(self, key: bytes, identifiers: Sequence[bytes]) -> List[bytes]:
        """Batched :meth:`pseudonymize` (providers may override)."""
        pseudonymize = self.pseudonymize
        return [pseudonymize(key, identifier) for identifier in identifiers]

    def depseudonymize_many(self, key: bytes, pseudonyms: Sequence[bytes]) -> List[bytes]:
        """Batched :meth:`depseudonymize` (providers may override)."""
        depseudonymize = self.depseudonymize
        return [depseudonymize(key, pseudonym) for pseudonym in pseudonyms]

    def sym_encrypt(self, key: bytes, plaintext: bytes) -> bytes:
        """Randomized symmetric encryption (temporary-key payloads)."""
        raise NotImplementedError

    def sym_decrypt(self, key: bytes, blob: bytes) -> bytes:
        """Invert :meth:`sym_encrypt`."""
        raise NotImplementedError

    def new_temporary_key(self) -> bytes:
        """Fresh per-request temporary key ``k_u``."""
        return os.urandom(SYMMETRIC_KEY_BYTES)


class _LruMemo:
    """Bounded insertion-ordered memo with hit/miss counters.

    Plain dict (insertion-ordered) with move-to-back on hit and
    evict-front on overflow; a ``maxsize`` of 0 disables caching.
    """

    __slots__ = ("maxsize", "hits", "misses", "_data")

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: dict = {}

    def get(self, key):
        value = self._data.pop(key, None)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._data[key] = value  # re-insert: most recently used at back
        return value

    def put(self, key, value) -> None:
        if self.maxsize <= 0:
            return
        data = self._data
        if key not in data and len(data) >= self.maxsize:
            del data[next(iter(data))]
        data[key] = value

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> Dict[str, int]:
        """Counters for the metrics layer."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._data),
            "maxsize": self.maxsize,
        }


@dataclass
class RealCryptoProvider(CryptoProvider):
    """The paper's construction: RSA-OAEP + AES-256-CTR."""

    rng_bytes: Callable[[int], bytes] = field(default=os.urandom)
    #: Entries per direction of the pseudonym memo; 0 disables it.
    pseudonym_cache_size: int = 4096

    name = "real"

    def __post_init__(self) -> None:
        self._pseudonym_memo = _LruMemo(self.pseudonym_cache_size)
        self._depseudonym_memo = _LruMemo(self.pseudonym_cache_size)

    def asym_encrypt(self, public: LayerPublicMaterial, plaintext: bytes) -> bytes:
        key: RsaPublicKey = public.public_key
        if len(plaintext) <= key.max_message_bytes:
            # Direct OAEP; mark with a 0x00 prefix.
            return b"\x00" + key.encrypt(plaintext, self.rng_bytes)
        # Hybrid envelope for payloads larger than OAEP capacity:
        # RSA-OAEP(session key) || AES-CTR(payload).
        session_key = _aes256(self.rng_bytes(SYMMETRIC_KEY_BYTES))
        header = key.encrypt(session_key, self.rng_bytes)
        body = ctr.rand_encrypt(session_key, plaintext, self.rng_bytes)
        return b"\x01" + header + body

    def asym_decrypt(self, keys: LayerKeys, blob: bytes) -> bytes:
        if not blob:
            raise ValueError("empty asymmetric ciphertext")
        kind, rest = blob[0], blob[1:]
        if kind == 0:
            return keys.private_key.decrypt(rest)
        if kind == 1:
            modulus_bytes = keys.private_key.modulus_bytes
            session_key = keys.private_key.decrypt(rest[:modulus_bytes])
            return ctr.rand_decrypt(_aes256(session_key), rest[modulus_bytes:])
        raise ValueError(f"unknown asymmetric envelope kind {kind}")

    def pseudonymize(self, key: bytes, identifier: bytes) -> bytes:
        memo_key = (key, identifier)
        pseudonym = self._pseudonym_memo.get(memo_key)
        if pseudonym is None:
            pseudonym = ctr.det_encrypt(key, identifier)
            self._pseudonym_memo.put(memo_key, pseudonym)
            # Deterministic encryption is invertible, so seed the
            # reverse direction too: the IA de-pseudonymizes the very
            # ids it pseudonymized on the request path.
            self._depseudonym_memo.put((key, pseudonym), identifier)
        return pseudonym

    def depseudonymize(self, key: bytes, pseudonym: bytes) -> bytes:
        memo_key = (key, pseudonym)
        identifier = self._depseudonym_memo.get(memo_key)
        if identifier is None:
            identifier = ctr.det_decrypt(key, pseudonym)
            self._depseudonym_memo.put(memo_key, identifier)
            self._pseudonym_memo.put((key, identifier), pseudonym)
        return identifier

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Pseudonym-memo hit/miss counters for the metrics layer."""
        return {
            "pseudonymize": self._pseudonym_memo.stats(),
            "depseudonymize": self._depseudonym_memo.stats(),
        }

    def sym_encrypt(self, key: bytes, plaintext: bytes) -> bytes:
        return ctr.rand_encrypt(_aes256(key), plaintext, self.rng_bytes)

    def sym_decrypt(self, key: bytes, blob: bytes) -> bytes:
        return ctr.rand_decrypt(_aes256(key), blob)

    def new_temporary_key(self) -> bytes:
        return self.rng_bytes(SYMMETRIC_KEY_BYTES)


def _aes256(key: bytes) -> bytes:
    """*key*, if it is the paper's AES-256 key (``k_u``, a hybrid
    session key); AES would take 16 or 24 bytes as AES-128/192."""
    if len(key) != SYMMETRIC_KEY_BYTES:
        raise ValueError(f"expected a {SYMMETRIC_KEY_BYTES}-byte AES-256 key, got {len(key)}")
    return key


@dataclass
class SimCryptoProvider(CryptoProvider):
    """Simulation stand-in: keyed BLAKE2 pseudonyms + token envelopes.

    Drills default to it because the real provider would cost them host
    time: with :class:`RealCryptoProvider` as the context default, drill
    host time grows 1.2-1.6x (capacity ≈ 35 → 52 s).  This provider
    replaces the *asymmetric* envelope with an in-process token registry
    that enforces key possession (decryption checks the private key's
    modulus) and the symmetric primitives with keyed BLAKE2 — still real
    keyed transformations at C speed.  Time *costs* of the paper's crypto are charged by the
    simulator's cost model regardless of the provider in use, so
    latency results are identical; this provider only cuts host CPU.

    Not a cryptographic construction — use :class:`RealCryptoProvider`
    anywhere security is under test.
    """

    rng_bytes: Callable[[int], bytes] = field(default=os.urandom)

    name = "sim"

    def __post_init__(self) -> None:
        self._asym_registry: dict = {}
        self._asym_counter = 0
        self._reverse_pseudonyms: dict = {}

    def asym_encrypt(self, public: LayerPublicMaterial, plaintext: bytes) -> bytes:
        self._asym_counter += 1
        token = b"ASYM:%d" % self._asym_counter
        self._asym_registry[token] = (public.public_key.n, plaintext)
        # Pad the token to a plausible envelope size so wire sizes stay
        # constant and realistic for the adversary's observations.
        return token.ljust(public.public_key.modulus_bytes + 16, b"\x00")

    def asym_decrypt(self, keys: LayerKeys, blob: bytes) -> bytes:
        token = blob.rstrip(b"\x00")
        entry = self._asym_registry.get(token)
        if entry is None:
            raise ValueError("unknown asymmetric token (corrupted ciphertext?)")
        modulus, plaintext = entry
        if modulus != keys.private_key.n:
            raise ValueError("decryption attempted with the wrong layer's key")
        return plaintext

    def pseudonymize(self, key: bytes, identifier: bytes) -> bytes:
        pseudonym = hashlib.blake2s(identifier, key=key[:32], digest_size=16).digest()
        self._reverse_pseudonyms[(key, pseudonym)] = identifier
        return pseudonym

    def depseudonymize(self, key: bytes, pseudonym: bytes) -> bytes:
        identifier = self._reverse_pseudonyms.get((key, pseudonym))
        if identifier is None:
            raise ValueError("unknown pseudonym for this key")
        return identifier

    def sym_encrypt(self, key: bytes, plaintext: bytes) -> bytes:
        iv = self.rng_bytes(16)
        return iv + xor_bytes(plaintext, _blake_keystream(key, iv, len(plaintext)))

    def sym_decrypt(self, key: bytes, blob: bytes) -> bytes:
        if len(blob) < 16:
            raise ValueError("symmetric ciphertext too short")
        iv, body = blob[:16], blob[16:]
        return xor_bytes(body, _blake_keystream(key, iv, len(body)))

    def new_temporary_key(self) -> bytes:
        return self.rng_bytes(SYMMETRIC_KEY_BYTES)


def _blake_keystream(key: bytes, iv: bytes, length: int) -> bytes:
    """Keyed-BLAKE2 keystream (fast path for the sim provider)."""
    blake2s = hashlib.blake2s
    short_key = key[:32]
    parts = [
        blake2s(iv + counter.to_bytes(4, "big"), key=short_key).digest()
        for counter in range((length + 31) // 32)
    ]
    return b"".join(parts)[:length]
