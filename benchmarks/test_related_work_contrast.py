"""§9 contrast: encrypted-processing CF vs PProx's proxying.

"Evaluations of privacy-preserving recommendation algorithms based on
encrypted processing by other researchers often yield latencies for
client requests that exceed several seconds" (Basu et al.'s Paillier
Slope One on Google App Engine / AWS) — while PProx adds milliseconds.

We measure the *computational* cost of one encrypted Slope One
prediction over a small rating matrix (real 2048-bit-modulus-squared
modular arithmetic) against the per-request cryptographic work PProx
performs (RSA-OAEP decryptions + AES-CTR passes), on the same host.
The orders-of-magnitude gap the paper cites falls out directly, even
before network round-trips and the paper's cloud overheads.
"""

from __future__ import annotations

import random
import time

from repro.crypto.envelope import encode_identifier
from repro.crypto.keys import LayerKeys
from repro.crypto.provider import RealCryptoProvider
from repro.crypto.rsa import generate_keypair
from repro.related.encrypted_slope_one import EncryptedSlopeOne
from repro.related.paillier import generate_paillier_keypair


def _pprox_per_request_seconds() -> float:
    """Host CPU for the crypto of one PProx get (all four legs)."""
    rng = random.Random(3)
    provider = RealCryptoProvider()
    _, ua_private = generate_keypair(lambda b: rng.randrange(b))
    _, ia_private = generate_keypair(lambda b: rng.randrange(b))
    ua_keys = LayerKeys(private_key=ua_private, symmetric_key=bytes(range(32)))
    ia_keys = LayerKeys(private_key=ia_private, symmetric_key=bytes(range(32, 64)))

    user_blob = provider.asym_encrypt(ua_keys.public_material, encode_identifier("u"))
    tmp_key = provider.new_temporary_key()
    tmpkey_blob = provider.asym_encrypt(ia_keys.public_material, tmp_key)
    items = [encode_identifier(f"item-{i}") for i in range(20)]
    pseudo_items = [provider.pseudonymize(ia_keys.symmetric_key, i) for i in items]

    rounds = 20
    start = time.perf_counter()
    for _ in range(rounds):
        # UA: decrypt user, pseudonymize.
        plain_user = provider.asym_decrypt(ua_keys, user_blob)
        provider.pseudonymize(ua_keys.symmetric_key, plain_user)
        # IA: decrypt k_u; response: de-pseudonymize 20 + re-encrypt.
        recovered = provider.asym_decrypt(ia_keys, tmpkey_blob)
        clear = [provider.depseudonymize(ia_keys.symmetric_key, p) for p in pseudo_items]
        provider.sym_encrypt(recovered, b"".join(clear))
    return (time.perf_counter() - start) / rounds


def _encrypted_cf_per_request_seconds() -> float:
    """Host CPU for one encrypted Slope One prediction (50-item user
    profile, 2048-bit Paillier as in Basu et al.'s deployments)."""
    rng = random.Random(4)
    public, private = generate_paillier_keypair(2048, lambda b: rng.randrange(b))
    cloud = EncryptedSlopeOne(public=public)
    profile = {f"item-{i}": float(1 + i % 5) for i in range(50)}
    encrypted = EncryptedSlopeOne.client_encrypt_ratings(public, profile)
    # Ingest one co-rater so deviations exist (counted separately: this
    # is the feedback path, not the query path).
    cloud.submit_user_ratings("peer", encrypted)
    cloud.submit_user_ratings("querier", encrypted)

    start = time.perf_counter()
    result = cloud.predict_encrypted("querier", "item-0")
    assert result is not None
    EncryptedSlopeOne.decrypt_prediction(private, result[0], result[1])
    return time.perf_counter() - start


def test_orders_of_magnitude_gap(benchmark):
    def measure():
        return _pprox_per_request_seconds(), _encrypted_cf_per_request_seconds()

    pprox_cost, encrypted_cost = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    print("== §9 contrast: per-request cryptographic work (host CPU) ==")
    print(f"PProx proxying (4 legs, 20-item list):  {pprox_cost * 1000:8.1f} ms")
    print(f"encrypted Slope One (1 prediction):     {encrypted_cost * 1000:8.1f} ms")
    print(f"ratio: {encrypted_cost / pprox_cost:.0f}x")
    # The paper's qualitative claim: a solid order-of-magnitude gap.
    assert encrypted_cost > 10 * pprox_cost
