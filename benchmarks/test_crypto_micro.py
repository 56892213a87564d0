"""Crypto hot-path microbenchmarks (pytest-benchmark).

Times the primitives the proxy layers hit on every simulated request —
block encryption, deterministic/randomized CTR, pseudonym maps, and
RSA-OAEP decryption — on both provider tiers.  These are real
wall-clock benchmarks (unlike the figure benchmarks, which time the
simulator); run them with::

    PYTHONPATH=src python -m pytest benchmarks/test_crypto_micro.py

``benchmarks/run_crypto_bench.py`` distils the same measurements into
``BENCH_crypto.json`` (optimized vs. seed-reference speedups) so the
perf trajectory is regressable across PRs.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto import ctr
from repro.crypto.aes import AES
from repro.crypto.keys import KeyFactory
from repro.crypto.provider import RealCryptoProvider, SimCryptoProvider
from tests.oracles.aes_reference import ReferenceAES, reference_ctr_transform

KEY = bytes(range(32))
BLOCK = bytes(range(16))
IDENTIFIER = b"user-0000000042!"  # 16 bytes, the typical id size
PAYLOAD_1K = bytes(i % 256 for i in range(1024))
IV = bytes(16)

#: Hot identifier pool sized well under the pseudonym memo, matching
#: the MovieLens property that a small core of users/items dominates.
HOT_IDS = [b"user-%011d" % i for i in range(64)]

PROVIDERS = {
    "real": RealCryptoProvider,
    "sim": SimCryptoProvider,
}


def _seeded_rng(seed: int = 7):
    stream = random.Random(seed)
    return lambda n: stream.getrandbits(8 * n).to_bytes(n, "big") if n else b""


@pytest.fixture(scope="module")
def layer_keys():
    """One deterministic 1024-bit RSA keypair shared by the module."""
    stream = random.Random(11)
    factory = KeyFactory(
        rsa_bits=1024,
        rng_int=lambda bound: stream.randrange(bound),
        rng_bytes=_seeded_rng(13),
    )
    return factory.layer_keys()


def _bench(benchmark, fn, *args):
    return benchmark.pedantic(fn, args=args, rounds=20, iterations=5, warmup_rounds=2)


# ------------------------------------------------------------ block cipher


def test_block_encrypt(benchmark):
    cipher = AES(KEY)
    _bench(benchmark, cipher.encrypt_block, BLOCK)


def test_block_decrypt(benchmark):
    cipher = AES(KEY)
    _bench(benchmark, cipher.decrypt_block, BLOCK)


def test_block_encrypt_reference(benchmark):
    """Seed baseline: the per-byte cipher the T-tables replaced."""
    cipher = ReferenceAES(KEY)
    _bench(benchmark, cipher.encrypt_block, BLOCK)


# -------------------------------------------------------------- CTR modes


def test_det_encrypt_identifier(benchmark):
    ctr.det_encrypt(KEY, IDENTIFIER)  # warm the keystream cache
    _bench(benchmark, ctr.det_encrypt, KEY, IDENTIFIER)


def test_ctr_transform_1k(benchmark):
    _bench(benchmark, ctr.ctr_transform, KEY, IV, PAYLOAD_1K)


def test_ctr_transform_1k_reference(benchmark):
    _bench(benchmark, reference_ctr_transform, KEY, IV, PAYLOAD_1K)


def test_rand_encrypt_1k(benchmark):
    rng = _seeded_rng()
    _bench(benchmark, ctr.rand_encrypt, KEY, PAYLOAD_1K, rng)


# ------------------------------------------------------------- pseudonyms


@pytest.mark.parametrize("tier", sorted(PROVIDERS))
def test_pseudonymize_hot_ids(benchmark, tier):
    provider = PROVIDERS[tier](rng_bytes=_seeded_rng())
    for identifier in HOT_IDS:
        provider.pseudonymize(KEY, identifier)  # warm memos/tables

    def run():
        for identifier in HOT_IDS:
            provider.pseudonymize(KEY, identifier)

    benchmark.pedantic(run, rounds=20, iterations=2, warmup_rounds=2)


# ------------------------------------------------------------ asymmetric


@pytest.mark.parametrize("tier", sorted(PROVIDERS))
def test_asym_decrypt(benchmark, tier, layer_keys):
    provider = PROVIDERS[tier](rng_bytes=_seeded_rng())
    blob = provider.asym_encrypt(layer_keys.public_material, IDENTIFIER)

    def run():
        return provider.asym_decrypt(layer_keys, blob)

    assert run() == IDENTIFIER
    benchmark.pedantic(run, rounds=10, iterations=2, warmup_rounds=1)
