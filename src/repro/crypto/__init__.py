"""Cryptographic substrate for the PProx reproduction.

Everything the protocol in the paper needs, built from scratch:

* :mod:`repro.crypto.aes` — AES block cipher (FIPS-197).
* :mod:`repro.crypto.ctr` — deterministic (constant-IV) and randomized
  AES-CTR, matching the paper's use of Intel SGX-SSL.
* :mod:`repro.crypto.rsa` — RSA-OAEP with Miller-Rabin key generation.
* :mod:`repro.crypto.keys` — per-layer key material (Table 1).
* :mod:`repro.crypto.envelope` — fixed-size identifier encoding and
  padded recommendation lists (§4.3), base64/JSON helpers.
* :mod:`repro.crypto.provider` — the provider interface with the
  paper's ``real`` construction and the cheap ``sim`` stand-in that
  drills and large simulations default to.
* :mod:`repro.crypto.xor` — the whole-buffer XOR primitive shared by
  every symmetric hot path.

The seed's straight-line AES/CTR — the byte-identical correctness
anchor and perf baseline — is a test oracle
(``tests/oracles/aes_reference.py``), not part of the package.
"""

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.ctr import det_decrypt, det_encrypt, keyed_pseudonym, rand_decrypt, rand_encrypt
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
    "AES",
    "BLOCK_SIZE",
    "det_encrypt",
    "det_decrypt",
    "keyed_pseudonym",
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
