"""RSA-OAEP: keygen, roundtrips, CRT correctness, failure modes."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import rsa
from repro.crypto.rsa import OaepError, RsaPublicKey, generate_keypair


@pytest.fixture(scope="module")
def keypair():
    rng = random.Random(7)
    return generate_keypair(1024, lambda bound: rng.randrange(bound))


def test_keygen_is_deterministic_with_seeded_rng():
    first = generate_keypair(1024, random.Random(3).randrange)
    second = generate_keypair(1024, random.Random(3).randrange)
    assert first[0].n == second[0].n


def test_keygen_rejects_tiny_moduli():
    with pytest.raises(ValueError, match="832 bits"):
        generate_keypair(512)


@pytest.mark.parametrize("bits", [832, 1024, 2048])
def test_keygen_never_discards_a_prime_pair(bits, monkeypatch):
    """Both primes carry their top two bits, so the modulus always has
    the requested length and the first pair drawn is the pair used."""
    draws = []
    random_prime = rsa._random_prime

    def counting_random_prime(prime_bits, rng):
        draws.append(prime_bits)
        return random_prime(prime_bits, rng)

    monkeypatch.setattr(rsa, "_random_prime", counting_random_prime)
    # The defect this guards discarded 94 % of pairs, so four seeds at
    # the slow size still miss it with probability < 1e-4.
    for seed in range(4 if bits == 2048 else 20):
        del draws[:]
        public, private = generate_keypair(bits, random.Random(seed).randrange)
        assert draws == [bits // 2, bits - bits // 2]
        assert public.n.bit_length() == bits
        assert private.p * private.q == public.n


def test_modulus_has_requested_bits(keypair):
    public, private = keypair
    assert public.n.bit_length() == 1024
    assert private.n == public.n


def test_roundtrip(keypair):
    public, private = keypair
    assert private.decrypt(public.encrypt(b"hello")) == b"hello"


def test_encryption_is_randomized(keypair):
    """Two encryptions differ — the paper's reason why a ciphertext of
    u cannot serve as a stable pseudonym (§4.1)."""
    public, _ = keypair
    assert public.encrypt(b"u") != public.encrypt(b"u")


def test_empty_message(keypair):
    public, private = keypair
    assert private.decrypt(public.encrypt(b"")) == b""


def test_max_length_message(keypair):
    public, private = keypair
    message = b"m" * public.max_message_bytes
    assert private.decrypt(public.encrypt(message)) == message


def test_oversized_message_rejected(keypair):
    public, _ = keypair
    with pytest.raises(OaepError, match="too long"):
        public.encrypt(b"m" * (public.max_message_bytes + 1))


def test_decrypt_wrong_length_rejected(keypair):
    _, private = keypair
    with pytest.raises(OaepError):
        private.decrypt(b"abc")


def test_decrypt_corrupted_ciphertext_rejected(keypair):
    public, private = keypair
    blob = bytearray(public.encrypt(b"secret"))
    blob[-1] ^= 0x01
    with pytest.raises(OaepError):
        private.decrypt(bytes(blob))


def test_decrypt_with_wrong_key_rejected(keypair):
    public, _ = keypair
    rng = random.Random(8)
    _, other_private = generate_keypair(1024, lambda bound: rng.randrange(bound))
    with pytest.raises(OaepError):
        other_private.decrypt(public.encrypt(b"secret"))


def test_crt_matches_plain_exponentiation(keypair):
    public, private = keypair
    value = 0x1234567890ABCDEF
    assert private._crt_power(value) == pow(value, private.d, private.n)


def test_public_key_accessor(keypair):
    _, private = keypair
    assert private.public_key == RsaPublicKey(n=private.n, e=private.e)


def test_ciphertext_value_out_of_range_rejected(keypair):
    _, private = keypair
    too_big = (private.n + 1).to_bytes(private.modulus_bytes, "big")
    with pytest.raises(OaepError, match="range"):
        private.decrypt(too_big)


@settings(max_examples=15, deadline=None)
@given(message=st.binary(min_size=0, max_size=62))
def test_roundtrip_property(keypair, message):
    public, private = keypair
    assert private.decrypt(public.encrypt(message)) == message
