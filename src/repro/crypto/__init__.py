"""Cryptographic substrate for the PProx reproduction.

Everything the protocol in the paper needs.  The two primitives the
paper's enclaves take from SGX-SSL — the AES-CTR pass and the raw RSA
operations — run in the OpenSSL libcrypto CPython's ``hashlib`` already
loads; the protocol around them is built here:

* :mod:`repro.crypto.libcrypto` — ``aes_ctr``, ``RsaHandle`` (an RSA key
  loaded into OpenSSL once, for unpadded private and public operations)
  and ``mod_pow`` (constant-time for secret exponents), bound through
  :mod:`ctypes`.
* :mod:`repro.crypto.ctr` — randomized AES-CTR, matching the paper's
  use of Intel SGX-SSL.
* :mod:`repro.crypto.prp` — the pseudonym: a keyed Feistel permutation
  of the 48-byte identifier block, not the paper's constant-IV CTR.
* :mod:`repro.crypto.rsa` — RSA-OAEP with Miller-Rabin key generation;
  every key is a standard two-prime RFC 8017 key, loaded into OpenSSL
  on first use; a private operation is one ``RSA_private_decrypt`` and
  a public one one ``RSA_public_encrypt``, with OAEP around them here.
* :mod:`repro.crypto.keys` — per-layer key material (Table 1).
* :mod:`repro.crypto.envelope` — fixed-size identifier encoding and
  padded recommendation lists (§4.3), base64/JSON helpers.
* :mod:`repro.crypto.provider` — the provider interface, with the
  paper's ``real`` RSA-OAEP envelopes or the cheap ``sim`` token
  envelopes that drills and large simulations default to.
* :mod:`repro.crypto.xor` — the whole-buffer XOR primitive behind
  RSA-OAEP masking.

The seed's straight-line AES/CTR — the byte-identical correctness
anchor and perf baseline — is a test oracle
(``tests/oracles/aes_reference.py``), not part of the package.
"""

from repro.crypto.ctr import BLOCK_SIZE, rand_decrypt, rand_encrypt
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
