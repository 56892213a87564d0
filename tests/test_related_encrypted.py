"""Paillier cryptosystem and the encrypted Slope One baseline (§9)."""

from __future__ import annotations

import random

import pytest

from repro.related.encrypted_slope_one import SCALE, EncryptedSlopeOne
from repro.related.paillier import generate_paillier_keypair
from tests.oracles.plain_slope_one import PlainSlopeOne


@pytest.fixture(scope="module")
def keypair():
    rng = random.Random(19)
    return generate_paillier_keypair(512, lambda b: rng.randrange(b))


# -- Paillier primitives -----------------------------------------------------


def test_encrypt_decrypt_roundtrip(keypair):
    public, private = keypair
    for message in (0, 1, 42, 123456, -1, -9999):
        assert private.decrypt(public.encrypt(message)) == message


def test_encryption_is_randomized(keypair):
    public, _ = keypair
    assert public.encrypt(7) != public.encrypt(7)


def test_homomorphic_addition(keypair):
    public, private = keypair
    c = public.add(public.encrypt(20), public.encrypt(22))
    assert private.decrypt(c) == 42


def test_homomorphic_addition_with_negatives(keypair):
    public, private = keypair
    c = public.add(public.encrypt(10), public.encrypt(-25))
    assert private.decrypt(c) == -15


def test_homomorphic_plain_multiplication(keypair):
    public, private = keypair
    assert private.decrypt(public.mul_plain(public.encrypt(-6), 7)) == -42


def test_plaintext_range_enforced(keypair):
    public, _ = keypair
    with pytest.raises(ValueError, match="range"):
        public.encrypt(public.n)


def test_keypair_generation_rejects_tiny_keys():
    with pytest.raises(ValueError):
        generate_paillier_keypair(64)


def test_deterministic_keygen():
    one = generate_paillier_keypair(256, random.Random(5).randrange)
    two = generate_paillier_keypair(256, random.Random(5).randrange)
    assert one[0].n == two[0].n


# -- Slope One ---------------------------------------------------------------

RATINGS = [
    ("alice", "a", 5.0), ("alice", "b", 3.0), ("alice", "c", 2.0),
    ("bob", "a", 3.0), ("bob", "b", 4.0),
    ("carol", "b", 2.0), ("carol", "c", 5.0),
]


def test_plain_slope_one_known_value():
    """The canonical Slope One worked example structure: prediction is
    a weighted blend of per-pair deviations."""
    model = PlainSlopeOne()
    model.fit(RATINGS)
    prediction = model.predict("bob", "c")
    assert prediction is not None
    # dev(c,a) = ((2-5)) / 1 = -3 ; dev(c,b) = ((2-3)+(5-2))/2 = 1
    # weighted: ((-3+3)*1 + (1+4)*2) / 3 = 10/3
    assert prediction == pytest.approx(10 / 3)


def test_plain_slope_one_unknown_user():
    model = PlainSlopeOne()
    model.fit(RATINGS)
    assert model.predict("stranger", "a") is None


def test_encrypted_matches_plain(keypair):
    """The encrypted pipeline computes exactly the weighted Slope One
    value, end to end, without the cloud touching a plaintext."""
    public, private = keypair
    plain = PlainSlopeOne()
    plain.fit(RATINGS)

    cloud = EncryptedSlopeOne(public=public)
    by_user = {}
    for user, item, value in RATINGS:
        by_user.setdefault(user, {})[item] = value
    for user, ratings in by_user.items():
        encrypted = EncryptedSlopeOne.client_encrypt_ratings(public, ratings)
        cloud.submit_user_ratings(user, encrypted)

    for user, item in [("bob", "c"), ("carol", "a"), ("alice", "a")]:
        expected = plain.predict(user, item)
        result = cloud.predict_encrypted(user, item)
        if expected is None:
            assert result is None
            continue
        encrypted_numerator, denominator = result
        value = EncryptedSlopeOne.decrypt_prediction(
            private, encrypted_numerator, denominator
        )
        assert value == pytest.approx(expected, abs=1.0 / SCALE)


def test_cloud_state_is_ciphertext_only(keypair):
    public, private = keypair
    cloud = EncryptedSlopeOne(public=public)
    encrypted = EncryptedSlopeOne.client_encrypt_ratings(public, {"a": 5.0, "b": 1.0})
    cloud.submit_user_ratings("u", encrypted)
    # Stored values are Paillier ciphertexts: huge integers, useless
    # without the private key, and never equal to the scaled ratings.
    for ciphertext in cloud.encrypted_ratings["u"].values():
        assert ciphertext > public.n  # far beyond any scaled rating
    for ciphertext in cloud.encrypted_dev_sums.values():
        assert ciphertext > public.n


def test_homomorphic_op_counter_grows(keypair):
    public, _ = keypair
    cloud = EncryptedSlopeOne(public=public)
    encrypted = EncryptedSlopeOne.client_encrypt_ratings(
        public, {"a": 1.0, "b": 2.0, "c": 3.0}
    )
    cloud.submit_user_ratings("u", encrypted)
    assert cloud.homomorphic_ops >= 6  # 3 items -> 6 ordered pairs
