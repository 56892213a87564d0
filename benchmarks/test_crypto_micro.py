"""Crypto hot-path microbenchmarks (pytest-benchmark).

Times the primitives the proxy layers hit on every simulated request —
one AES block (as a one-block CTR pass), randomized CTR, the pseudonym permutation and memo, and
RSA-OAEP decryption — on both provider tiers.  These are real
wall-clock benchmarks (unlike the figure benchmarks, which time the
simulator); run them with::

    PYTHONPATH=src python -m pytest benchmarks/test_crypto_micro.py

The ``crypto`` suite of ``benchmarks/ledger.py`` distils the same
measurements into ``BENCH_crypto.json`` (package vs. seed-reference
speedups, each under a floor) so the perf trajectory is regressable.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto import ctr, prp
from repro.crypto.envelope import encode_identifier
from repro.crypto.keys import KeyFactory
from repro.crypto.provider import RealCryptoProvider, SimCryptoProvider
from tests.oracles.aes_reference import ReferenceAES, reference_ctr_transform

KEY = bytes(range(32))
BLOCK = bytes(range(16))
IDENTIFIER = encode_identifier("user-0000000042")  # the fixed 48-byte block
PAYLOAD_1K = bytes(i % 256 for i in range(1024))
IV = bytes(16)

#: Hot identifier pool sized well under the pseudonym memo, matching
#: the MovieLens property that a small core of users/items dominates.
HOT_IDS = [encode_identifier("user-%011d" % i) for i in range(64)]

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
        rng_int=lambda bound: stream.randrange(bound),
        rng_bytes=_seeded_rng(13),
    )
    return factory.layer_keys()


def _bench(benchmark, fn, *args):
    return benchmark.pedantic(fn, args=args, rounds=20, iterations=5, warmup_rounds=2)


# ------------------------------------------------------------ block cipher


def test_block_encrypt(benchmark):
    """One block: a 16-byte CTR pass whose counter block is BLOCK."""
    _bench(benchmark, ctr.ctr_transform, KEY, BLOCK, bytes(16))


def test_block_encrypt_reference(benchmark):
    """Seed baseline: the per-byte block cipher."""
    cipher = ReferenceAES(KEY)
    _bench(benchmark, cipher.encrypt_block, BLOCK)


# -------------------------------------------------------------- CTR modes


def test_ctr_transform_1k(benchmark):
    _bench(benchmark, ctr.ctr_transform, KEY, IV, PAYLOAD_1K)


def test_ctr_transform_1k_reference(benchmark):
    _bench(benchmark, reference_ctr_transform, KEY, IV, PAYLOAD_1K)


def test_rand_encrypt_1k(benchmark):
    rng = _seeded_rng()
    _bench(benchmark, ctr.rand_encrypt, KEY, PAYLOAD_1K, rng)


# ------------------------------------------------------------- pseudonyms


def test_pseudonym_prp_identifier(benchmark):
    """One cold pseudonym: the four Feistel rounds, no memo."""
    _bench(benchmark, prp.encipher, KEY, IDENTIFIER)


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
