"""Cryptographic substrate for the PProx reproduction.

Everything the protocol in the paper needs.  The two primitives the
paper's enclaves take from SGX-SSL — the AES-CTR pass and RSA's modular
powers — run in the OpenSSL libcrypto CPython's ``hashlib`` already
loads; the protocol around them is built here:

* :mod:`repro.crypto.libcrypto` — ``aes_ctr`` and ``mod_pow``
  (constant-time for secret exponents), bound through :mod:`ctypes`.
* :mod:`repro.crypto.ctr` — deterministic (constant-IV) and randomized
  AES-CTR, matching the paper's use of Intel SGX-SSL.
* :mod:`repro.crypto.rsa` — RSA-OAEP with Miller-Rabin key generation;
  every key is a standard two-prime RFC 8017 key, loadable by OpenSSL /
  SGX-SSL, and the private operation is RFC 8017's CRT: two powers and
  Garner's recombination.
* :mod:`repro.crypto.keys` — per-layer key material (Table 1).
* :mod:`repro.crypto.envelope` — fixed-size identifier encoding and
  padded recommendation lists (§4.3), base64/JSON helpers.
* :mod:`repro.crypto.provider` — the provider interface with the
  paper's ``real`` construction and the cheap ``sim`` stand-in that
  drills and large simulations default to.
* :mod:`repro.crypto.xor` — the whole-buffer XOR primitive behind
  RSA-OAEP masking and the ``sim`` provider's keystream.

The seed's straight-line AES/CTR — the byte-identical correctness
anchor and perf baseline — is a test oracle
(``tests/oracles/aes_reference.py``), not part of the package.
"""

from repro.crypto.ctr import BLOCK_SIZE, det_decrypt, det_encrypt, rand_decrypt, rand_encrypt
from repro.crypto.envelope import (
    FIXED_ID_BYTES,
    MAX_RECOMMENDATIONS,
    EnvelopeCodec,
    PaddingError,
    decode_identifier,
    encode_identifier,
    pad_item_list,
    strip_padding_items,
)
from repro.crypto.keys import KeyFactory, LayerKeys, LayerPublicMaterial, SYMMETRIC_KEY_BYTES
from repro.crypto.provider import (
    CryptoProvider,
    RealCryptoProvider,
    SimCryptoProvider,
)
from repro.crypto.rsa import OaepError, RsaPrivateKey, RsaPublicKey, generate_keypair
from repro.crypto.xor import xor_bytes

__all__ = [
    "BLOCK_SIZE",
    "det_encrypt",
    "det_decrypt",
    "rand_encrypt",
    "rand_decrypt",
    "xor_bytes",
    "FIXED_ID_BYTES",
    "MAX_RECOMMENDATIONS",
    "EnvelopeCodec",
    "PaddingError",
    "encode_identifier",
    "decode_identifier",
    "pad_item_list",
    "strip_padding_items",
    "KeyFactory",
    "LayerKeys",
    "LayerPublicMaterial",
    "SYMMETRIC_KEY_BYTES",
    "CryptoProvider",
    "RealCryptoProvider",
    "SimCryptoProvider",
    "OaepError",
    "RsaPublicKey",
    "RsaPrivateKey",
    "generate_keypair",
]
