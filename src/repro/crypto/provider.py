"""Crypto provider interface used by the user-side library and proxies.

:class:`CryptoProvider` implements what every provider shares:
pseudonyms (:mod:`repro.crypto.prp`) behind a bounded LRU memo per
direction, whose hit/miss counters :meth:`~CryptoProvider.cache_stats`
exposes (hot MovieLens ids repeat heavily), and AES-256-CTR with a
random IV for the temporary-key payloads.  Implementations differ only
in the layer-addressed envelope:

* :class:`RealCryptoProvider` — the paper's RSA-OAEP (hybrid beyond
  OAEP's capacity).
* :class:`SimCryptoProvider` — an in-process token registry that cuts
  host CPU for drills and large simulations (what every ``SimContext``
  defaults to); see its docstring for the caveats.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, List

from repro.crypto import ctr, prp
from repro.crypto.keys import SYMMETRIC_KEY_BYTES, LayerKeys, LayerPublicMaterial
from repro.crypto.rsa import RsaPublicKey

__all__ = [
    "CryptoProvider",
    "PSEUDONYM_MEMO_ENTRIES",
    "RealCryptoProvider",
    "SimCryptoProvider",
]

#: Entries per direction of a provider's pseudonym memo; 0 disables it.
PSEUDONYM_MEMO_ENTRIES = 4096


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

@dataclass
class CryptoProvider:
    """The protocol's cryptographic operations; subclasses supply
    :meth:`asym_encrypt` / :meth:`asym_decrypt`."""

    rng_bytes: Callable[[int], bytes] = field(default=os.urandom)

    #: Human-readable name used in experiment configuration records.
    name = "abstract"

    def __post_init__(self) -> None:
        self._pseudonym_memo = _LruMemo(PSEUDONYM_MEMO_ENTRIES)
        self._depseudonym_memo = _LruMemo(PSEUDONYM_MEMO_ENTRIES)

    def asym_encrypt(self, public: LayerPublicMaterial, plaintext: bytes) -> bytes:
        """Randomized public-key encryption addressed to one layer."""
        raise NotImplementedError

    def asym_decrypt(self, keys: LayerKeys, blob: bytes) -> bytes:
        """Invert :meth:`asym_encrypt` with the layer's private key."""
        raise NotImplementedError

    def pseudonymize(self, key: bytes, identifier: bytes) -> bytes:
        """The deterministic pseudonym of a fixed-size identifier."""
        memo_key = (key, identifier)
        pseudonym = self._pseudonym_memo.get(memo_key)
        if pseudonym is None:
            pseudonym = prp.encipher(key, identifier)
            self._pseudonym_memo.put(memo_key, pseudonym)
            # The permutation is invertible, so seed the reverse
            # direction too: the IA de-pseudonymizes the very ids it
            # pseudonymized on the request path.
            self._depseudonym_memo.put((key, pseudonym), identifier)
        return pseudonym

    def depseudonymize(self, key: bytes, pseudonym: bytes) -> bytes:
        """Invert :meth:`pseudonymize`."""
        memo_key = (key, pseudonym)
        identifier = self._depseudonym_memo.get(memo_key)
        if identifier is None:
            identifier = prp.decipher(key, pseudonym)
            self._depseudonym_memo.put(memo_key, identifier)
            self._pseudonym_memo.put((key, identifier), pseudonym)
        return identifier

    def depseudonymize_many(self, key: bytes, pseudonyms: Sequence[bytes]) -> List[bytes]:
        """Batched :meth:`depseudonymize`."""
        depseudonymize = self.depseudonymize
        return [depseudonymize(key, pseudonym) for pseudonym in pseudonyms]

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Pseudonym-memo hit/miss counters for the metrics layer."""
        return {
            name: {"hits": memo.hits, "misses": memo.misses,
                   "size": len(memo._data), "maxsize": memo.maxsize}
            for name, memo in (("pseudonymize", self._pseudonym_memo),
                               ("depseudonymize", self._depseudonym_memo))
        }

    def sym_encrypt(self, key: bytes, plaintext: bytes) -> bytes:
        """Randomized symmetric encryption (temporary-key payloads)."""
        return ctr.rand_encrypt(_aes256(key), plaintext, self.rng_bytes)

    def sym_decrypt(self, key: bytes, blob: bytes) -> bytes:
        """Invert :meth:`sym_encrypt`."""
        return ctr.rand_decrypt(_aes256(key), blob)

    def new_temporary_key(self) -> bytes:
        """Fresh per-request temporary key ``k_u``."""
        return self.rng_bytes(SYMMETRIC_KEY_BYTES)


def _aes256(key: bytes) -> bytes:
    """*key*, if it is the paper's AES-256 key (``k_u``, a hybrid
    session key); AES would take 16 or 24 bytes as AES-128/192."""
    if len(key) != SYMMETRIC_KEY_BYTES:
        raise ValueError(f"expected a {SYMMETRIC_KEY_BYTES}-byte AES-256 key, got {len(key)}")
    return key


@dataclass
class RealCryptoProvider(CryptoProvider):
    """The paper's layer envelopes: RSA-OAEP, hybrid beyond its capacity."""

    name = "real"

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


@dataclass
class SimCryptoProvider(CryptoProvider):
    """Simulation stand-in: token envelopes in place of RSA-OAEP.

    Drills default to it because RSA would cost them host time.  The
    *asymmetric* envelope is an in-process token registry that enforces
    key possession (decryption checks the private key's modulus);
    pseudonyms and the symmetric payloads are the real ones.  Time
    *costs* of the paper's crypto are charged by the simulator's cost
    model regardless of the provider in use, so latency results are
    identical; this provider only cuts host CPU.

    How much it cuts, measured as the wall seconds of ``python -m repro
    run <scenario>`` with each provider (median of three alternating
    runs, 2 vCPU, CPython 3.11, RSA-1024): the real provider takes
    1.25-1.80x the time of this one on every scenario that runs crypto
    (chaos 1.38, overload 1.67, rotation 1.59, fleet 1.58, capacity
    1.80, telemetry 1.37, obs 1.25), and 1.00-1.08x on ``wire`` and
    ``scale``.  The sim provider stays the drills' default while that
    ratio is above 1.15x: below it, one provider would do.  A cheaper
    asymmetric scheme does not close the gap — an HPKE seal plus open
    costs more host time per get than RSA-1024 OAEP does.

    Not a cryptographic construction — use :class:`RealCryptoProvider`
    anywhere security is under test.
    """

    name = "sim"

    def __post_init__(self) -> None:
        super().__post_init__()
        self._asym_registry: dict = {}
        self._asym_counter = 0

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
