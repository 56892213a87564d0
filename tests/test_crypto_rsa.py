"""RSA-OAEP: keygen, roundtrips, CRT correctness, failure modes."""

from __future__ import annotations

import random
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.crypto import rsa
from repro.crypto.ctr import BLOCK_SIZE
from repro.crypto.keys import SYMMETRIC_KEY_BYTES, LayerKeys, LayerPublicMaterial
from repro.crypto.provider import RealCryptoProvider
from repro.crypto.rsa import OaepError, RsaPrivateKey, RsaPublicKey, generate_keypair

# Known-answer vectors from an independent implementation: the Python
# ``cryptography`` package (OpenSSL), RSAES-OAEP with SHA-256, MGF1-SHA-256
# and an empty label, e = 65537.  KAT2_* is a two-prime 1024-bit key that
# library generated, with its own (n, d, p, q) and its ciphertext of
# KAT2_MESSAGE.  KAT3_* is the n = p²q key (three prime factors counted
# with multiplicity, ``primes == (p, p, q)``) that
# ``generate_keypair(1024, random.Random(KAT3_SEED).randrange)`` returns,
# and a ciphertext of KAT3_MESSAGE the library made from that key's
# (n, e) alone (it refuses to load a p²q private key).  Regenerate with
# that package's ``asymmetric.rsa.generate_private_key(65537, 1024)`` and
# ``RSAPublicNumbers(e, n).public_key().encrypt(message, OAEP(...))``.
KAT2_MESSAGE = b"PProx KAT: two-prime key made by an independent library"
KAT2_N = int(
    "a1cdc9aa93c9182938d694a0a57167fa02a57591ff74605c71b698318278664b"
    "3c46ed841b90787ce98c3c5c9b985f74b16ecd5fb331d3d01b86a0347314bfff"
    "0a0cfaf4bca029747868445744a09770ed00b2dd89db69dcaf237b5b1f3af13e"
    "cd5eb1e348aab275b46607e628962b0160b9660aaa7d36be11a8774c430a8b83",
    16,
)
KAT2_D = int(
    "40a53f956f4640e8f754843d4adc6c766ee83c79005f36c0b88e037084782626"
    "99069d8ed2947e0f2a20655d7aacfe36594db3b030a00fc86db6f3fb009fa1b5"
    "594343b17f412321e517b5ec1a86a80c8e553c36fb6b541883f936ff06476b49"
    "d85c16e17f3c5753bc205591ea6ce474615b7c3db9b77d65337e9c29344b9fc1",
    16,
)
KAT2_P = int(
    "d3ee9be82b9e8d5c823d80918d5328c99a9a7fdce4d1268d3050b199b133e9f0"
    "c4e417c796e0b8e3280ada64f11bdf5687e43e9ca7457527ebb07a222f01e415",
    16,
)
KAT2_Q = int(
    "c372cbb8ecce46e315e82c7742e3f8e855beb6e94303627b239b61e1fe81cfd6"
    "67d813c1d7d2abbf40fea1ca1d217417aa9bc46595d23dab4202c93b1ff41f37",
    16,
)
KAT2_CIPHERTEXT = bytes.fromhex(
    "2b9382922d43d8cc69085fd24ac8078b39c33ac6d138ee2cb824eab8a652f248"
    "7dfab83c45ab638abc434b3281b127db172fabf344b6ff5d885be5bf5c382299"
    "76bbdbb48c3928e16c9dbdd373e20996c3bd0a7cd695dc0fc5c8f70d4d05472e"
    "448bf94deebfefe4b70881d86daa27374552cf91f0cb4158cb116a8f5ebe322f"
)

KAT3_SEED = 2026
KAT3_MESSAGE = b"PProx KAT: three-prime (p, p, q) key, independent encryptor"
KAT3_N = int(
    "c02667f6ba5cd1979c2d880e3edbe99b591255ff82de480cec9c216c832d18a5"
    "a69197fd94d199de3e1f37d26255cae3c6fdda48e50fbbb9ba8789e1dee310af"
    "74a8499bf7ad81c4d9d6c851975ec996f0efa1a02dcaab50f512586c5f6730bc"
    "366ad564efea8b01ee3e94f50b8da6fc08531d7043e4539b7792c556a3cf283d",
    16,
)
KAT3_D = int(
    "456619aa7d08c51252f006f1ce36331b4e8256d91ff51464c698656201c6a9de"
    "3a58df6250fb9aed2fd6a4b664ee1beafcee7672ccabd3320235288c66457b3a"
    "e525dd6f16d053698360169569444c5a979215cbccb4c36ce0e6b799e731caf7"
    "447ba942ed8c49300e01452fade5458ae6f3de550aa17971e24b5d8702e63f21",
    16,
)
KAT3_P = int(
    "39b2b897482b48d57b0f3cb175dfa37cea0d73933299e0ab1ca59a990b7d85c3"
    "733f27f55f313940b2174d",
    16,
)
KAT3_Q = int(
    "ec6a81384eb0604c327d8eee4303d65539ade985c5385124648a5263be6e9152"
    "1fc333c4e44d03596b0f5",
    16,
)
KAT3_CIPHERTEXT = bytes.fromhex(
    "2a616ca84d653b02fa670ca30ada0badeb8b7c7646687376eeb11ee96732a61a"
    "3342dc343957edc6c22c0d239516644ff9caa8a6a5c46a249bb112e84d0ec7f0"
    "663b9043437bedc1bd254c04f13b9421a6fa12bf709ac7813b118e50b3e81cd4"
    "d238e44effea5a93134c0a88a82d888149e486ee3618316697c08c743f5466bf"
)

_SIZES = {832: [416, 416], 1024: [342, 340], 2048: [683, 682]}


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
    """Two distinct primes p and q: n = pq below 1024 bits, n = p²q from
    1024 up, sized so the factors sum to *bits*.  Each of the k prime
    factors (counted with multiplicity) carries its top k bits, so the
    modulus always has the requested length and the first pair drawn is
    the pair used."""
    draws = []
    random_prime = rsa._random_prime

    def counting_random_prime(prime_bits, *args):
        draws.append(prime_bits)
        return random_prime(prime_bits, *args)

    monkeypatch.setattr(rsa, "_random_prime", counting_random_prime)
    sizes = _SIZES[bits]
    count = 2 if bits < 1024 else 3
    top = (1 << count) - 1
    for seed in range(4 if bits == 2048 else 20):
        del draws[:]
        public, private = generate_keypair(bits, random.Random(seed).randrange)
        assert draws == sizes
        p, q = private.primes[0], private.primes[-1]
        assert private.primes == ((p, q) if count == 2 else (p, p, q))
        assert [p.bit_length(), q.bit_length()] == sizes
        assert all(prime >> (size - count) == top
                   for prime, size in zip((p, q), sizes))
        assert prod(private.primes) == public.n
        assert public.n.bit_length() == bits
        assert p != q


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


@pytest.fixture(scope="module")
def keys_by_prime_count(keypair):
    """A pq key and a p²q key, by prime factors counted with multiplicity."""
    _, two_prime = generate_keypair(832, random.Random(7).randrange)
    return {2: two_prime, 3: keypair[1]}


@settings(max_examples=20, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("count", [2, 3])
def test_crt_power_is_plain_exponentiation_for_any_prime_set(keys_by_prime_count, count, data):
    private = keys_by_prime_count[count]
    assert len(private.primes) == count
    assert len(set(private.primes)) == 2
    for prime in private.primes:
        assert private.e * private.d % (prime - 1) == 1
    value = data.draw(st.integers(min_value=0, max_value=private.n - 1))
    assert private._crt_power(value) == pow(value, private.d, private.n)


@pytest.mark.parametrize("count", [2, 3])
def test_crt_power_is_plain_exponentiation_at_the_edges(keys_by_prime_count, count):
    """Values the Hensel lift and the Garner steps treat specially: 0, 1,
    multiples of p (where the root mod p is 0), q and n - 1."""
    private = keys_by_prime_count[count]
    p, q, n = private.primes[0], private.primes[-1], private.n
    for value in (0, 1, p, 5 * p, p * p % n, q, n - 1):
        assert private._crt_power(value) == pow(value, private.d, n)


_KATS = {
    "two_prime_foreign_key": (
        RsaPrivateKey(n=KAT2_N, e=65537, d=KAT2_D, primes=(KAT2_P, KAT2_Q)),
        KAT2_MESSAGE,
        KAT2_CIPHERTEXT,
    ),
    "three_prime_our_key": (
        RsaPrivateKey(n=KAT3_N, e=65537, d=KAT3_D, primes=(KAT3_P, KAT3_P, KAT3_Q)),
        KAT3_MESSAGE,
        KAT3_CIPHERTEXT,
    ),
}


@pytest.mark.parametrize("name", sorted(_KATS))
def test_oaep_known_answer_decrypts(name):
    private, message, ciphertext = _KATS[name]
    assert private.decrypt(ciphertext) == message


@pytest.mark.parametrize("name", sorted(_KATS))
@pytest.mark.parametrize("bit", [0, 9, 512, 1023])
def test_oaep_known_answer_with_a_flipped_bit_is_rejected(name, bit):
    private, _, ciphertext = _KATS[name]
    flipped = bytearray(ciphertext)
    flipped[bit // 8] ^= 0x80 >> (bit % 8)
    with pytest.raises(OaepError):
        private.decrypt(bytes(flipped))


def test_three_prime_vector_key_is_the_key_keygen_draws():
    public, private = generate_keypair(1024, random.Random(KAT3_SEED).randrange)
    assert public.n == KAT3_N
    assert private.primes == (KAT3_P, KAT3_P, KAT3_Q)
    assert private.d == KAT3_D


def test_keygen_skips_a_repeated_prime_and_one_e_cannot_invert(monkeypatch):
    """A q equal to p is redrawn: the p² of n = p²q is the shape, a third
    draw of p would be a different key."""
    unusable = 3 * 65537 + 1  # p - 1 is a multiple of e
    draws = iter([unusable, KAT3_P, KAT3_P, KAT3_Q])
    monkeypatch.setattr(rsa, "_random_prime", lambda *args: next(draws))
    public, private = generate_keypair(1024, random.Random(0).randrange)
    assert private.primes == (KAT3_P, KAT3_P, KAT3_Q)
    assert (public.n, private.d) == (KAT3_N, KAT3_D)


_P3_D = pow(65537, -1, KAT3_P * KAT3_P * (KAT3_P - 1))

_BROKEN_KEYS = {
    "a_prime_that_does_not_divide_n": (KAT3_N, KAT3_D, (KAT3_P, KAT3_P, KAT3_Q + 2), "multiply"),
    "a_factor_missing": (KAT3_N, KAT3_D, (KAT3_P, KAT3_Q), "multiply"),
    "a_prime_three_times": (KAT3_P ** 3, _P3_D, (KAT3_P, KAT3_P, KAT3_P), "at most twice"),
    "d_not_the_inverse_of_e": (KAT3_N, KAT3_D + 1, (KAT3_P, KAT3_P, KAT3_Q), "modulo p - 1"),
    "a_unit_factor": (KAT3_N, KAT3_D, (KAT3_P, KAT3_P, KAT3_Q, 1), "modulo p - 1"),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_KEYS))
def test_a_key_whose_factors_do_not_describe_n_is_refused(case):
    """Refused at construction, not at the first decrypt, where it would
    read as a malformed ciphertext (``OaepError``)."""
    n, d, primes, reason = _BROKEN_KEYS[case]
    with pytest.raises(ValueError, match=reason) as caught:
        RsaPrivateKey(n=n, e=65537, d=d, primes=primes)
    assert not isinstance(caught.value, OaepError)


def test_a_two_prime_and_a_p2q_key_construct():
    two_prime = RsaPrivateKey(n=KAT2_N, e=65537, d=KAT2_D, primes=(KAT2_P, KAT2_Q))
    p2q = RsaPrivateKey(n=KAT3_N, e=65537, d=KAT3_D, primes=(KAT3_P, KAT3_P, KAT3_Q))
    assert [len(key._crt_params) for key in (two_prime, p2q)] == [2, 2]


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


@pytest.fixture(scope="module")
def sealed_envelopes(keypair):
    """A direct (``0x00``) and a hybrid (``0x01``) envelope to one layer."""
    public, private = keypair
    provider = RealCryptoProvider(rng_bytes=random.Random(5).randbytes)
    material = LayerPublicMaterial(public_key=public)
    sealed = {
        0: provider.asym_encrypt(material, b"item-0000042"),
        1: provider.asym_encrypt(material, bytes(range(200))),
    }
    keys = LayerKeys(private_key=private, symmetric_key=bytes(SYMMETRIC_KEY_BYTES))
    assert [blob[0] for blob in sealed.values()] == [0, 1]
    assert provider.asym_decrypt(keys, sealed[1]) == bytes(range(200))
    return keys, sealed


def _malformed(draw, case, kind, blob, private):
    """*blob* spoiled where opening it can tell: the kind byte, the RSA
    block and (hybrid) the length of the CTR IV.  The hybrid body behind
    them is AES-CTR, which the paper's construction leaves
    unauthenticated."""
    sealed = 1 + private.modulus_bytes
    if case == "truncated":
        return blob[:draw(st.integers(0, sealed - 1 + (BLOCK_SIZE if kind else 0)))]
    if case == "extended":
        extra = draw(st.binary(min_size=1, max_size=64))
        if kind == 0:
            return blob + extra
        at = draw(st.integers(1, sealed - 1))
        extended = blob[:at] + extra + blob[at:]
        assume(extended[:sealed] != blob[:sealed])
        return extended
    if case == "flipped":
        bit = draw(st.integers(0, 8 * sealed - 1))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        return bytes(flipped)
    if case == "out_of_range":
        value = draw(st.integers(private.n, (1 << (8 * private.modulus_bytes)) - 1))
        return blob[:1] + value.to_bytes(private.modulus_bytes, "big") + blob[sealed:]
    if case == "unknown_kind":
        return bytes([draw(st.integers(2, 255))]) + blob[1:]
    # "not_a_session_key": a hybrid envelope whose OAEP payload has the
    # wrong length for an AES-256 key -- 16 and 24 bytes among them,
    # which AES itself would take as AES-128 / AES-192 keys.
    size = draw(st.sampled_from([16, 24])
                | st.integers(0, private.public_key.max_message_bytes))
    assume(size != SYMMETRIC_KEY_BYTES)
    payload = draw(st.binary(min_size=size, max_size=size))
    return b"\x01" + private.public_key.encrypt(payload) + blob[sealed:]


_MALFORMATIONS = ["truncated", "extended", "flipped", "out_of_range",
                  "unknown_kind", "not_a_session_key"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("kind", [0, 1])
def test_malformed_envelope_ends_in_a_typed_error(sealed_envelopes, kind, data):
    """Whatever is wrong with an asymmetric envelope, opening it raises
    ``ValueError`` (``OaepError`` is one) and nothing else."""
    keys, sealed = sealed_envelopes
    case = data.draw(st.sampled_from(_MALFORMATIONS))
    blob = _malformed(data.draw, case, kind, sealed[kind], keys.private_key)
    with pytest.raises(ValueError):
        RealCryptoProvider().asym_decrypt(keys, blob)
