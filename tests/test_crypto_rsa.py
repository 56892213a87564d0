"""RSA-OAEP: keygen, roundtrips, CRT correctness, failure modes."""

from __future__ import annotations

import random

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
# KAT2_MESSAGE.  KAT2026_* is the key
# ``generate_keypair(random.Random(2026).randrange)`` returns, and a
# ciphertext of KAT2026_MESSAGE the library made from that key's (n, e).
# Regenerate with that package's
# ``asymmetric.rsa.generate_private_key(65537, 1024)`` and
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

KAT2026_MESSAGE = b"PProx KAT: our two-prime key, independent encryptor"
KAT2026_N = int(
    "d21369bd45b08bbd8c9546e3b7a404dcd006949239c1280a4ff37d342eb68e6c"
    "ca1e86646014b8034caece2baee2adbcf1c0de102e066b6a0d58195c0249e743"
    "94ae37952e3f0b290d981f8cf0c11ffbf0f4ebfa40e425dc61a94e24c06d4bf2"
    "d3d396ac3a6457d690b23cf46f074386bbdf355610e85a0c492717e15d8919e3",
    16,
)
KAT2026_D = int(
    "cd2a4279a44720a2b55ad0c9f2fecff4eb8191b6218ba05439f31e13498fe717"
    "1e6aa36c025e19bcb7367d8a321995fe52c8bed7646bc699e38067fbf10c463b"
    "7778056ae3f598be7e587c5d7240df6c9a4eca54d7edacb181db95c7d0de73e1"
    "186c9a042c624f2c228f1427a2deebc5491c4448682fdb89be0295cbdd15f1f1",
    16,
)
KAT2026_P = int(
    "da3050e0559a9dc1e6bc77fc99f641a96481a0ff94793b44b08ed1cfc30a515b"
    "feef2cba6793a1bf8b2f9cc13698f58420cbc7fb2a9ccf2805171c9e0ab75179",
    16,
)
KAT2026_Q = int(
    "f67b2d88832084d3228ef631a6e6a2b488b792afe2e533494071a2e53746ec0c"
    "523b4e27db908dd7e22f253c1d9a4d7f551e802fd95cf0338ba4be1e32ea2b3b",
    16,
)
KAT2026_CIPHERTEXT = bytes.fromhex(
    "0798a6144285fd82d1bbc836862f32cfd8bfc8ca32d54b6150b6107e2466c2b1"
    "13dfea7b4cf31a0ea25b7cbfb7513016e981a541049ec17809c74a3098e14ec2"
    "047c354b89c47955c8556b6e57bcc543812a4e01e5001a04ef7604b19fc1aae7"
    "400865e07faedeaf47e1b94b83817f27406bdf229b60332f22de8d9ee5023741"
)


@pytest.fixture(scope="module")
def keypair():
    rng = random.Random(7)
    return generate_keypair(lambda bound: rng.randrange(bound))


def test_keygen_is_deterministic_with_seeded_rng():
    first = generate_keypair(random.Random(3).randrange)
    second = generate_keypair(random.Random(3).randrange)
    assert first[0].n == second[0].n


@pytest.mark.parametrize("bits", [832, 1024, 2048])
def test_keygen_never_discards_a_prime_pair(bits, monkeypatch):
    """Two distinct primes of half the modulus each, each with its top
    two bits set, so the modulus always has the full length and the
    first pair drawn is the pair used.  The sizing argument holds for
    any modulus length, so it is checked at :data:`rsa.RSA_BITS` and at
    a smaller and a larger one."""
    draws = []
    random_prime = rsa._random_prime

    def counting_random_prime(prime_bits, *args):
        draws.append(prime_bits)
        return random_prime(prime_bits, *args)

    monkeypatch.setattr(rsa, "_random_prime", counting_random_prime)
    monkeypatch.setattr(rsa, "RSA_BITS", bits)
    half = bits // 2
    for seed in range(4 if bits == 2048 else 20):
        del draws[:]
        public, private = generate_keypair(random.Random(seed).randrange)
        assert draws == [half, half]
        assert [private.p.bit_length(), private.q.bit_length()] == [half, half]
        assert private.p >> (half - 2) == private.q >> (half - 2) == 0b11
        assert private.p * private.q == public.n
        assert public.n.bit_length() == bits
        assert private.p != private.q


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
    _, other_private = generate_keypair(lambda bound: rng.randrange(bound))
    with pytest.raises(OaepError):
        other_private.decrypt(public.encrypt(b"secret"))


def test_crt_matches_plain_exponentiation(keypair):
    public, private = keypair
    value = 0x1234567890ABCDEF
    assert private._crt_power(value) == pow(value, private.d, private.n)


@pytest.fixture(scope="module")
def keys_by_seed():
    """Two more keys, drawn from independently seeded rngs, so the CRT
    checks below run on prime sets other than the module keypair's."""
    return {seed: generate_keypair(random.Random(seed).randrange)[1] for seed in (2, 3)}


@settings(max_examples=20, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("seed", [2, 3])
def test_crt_power_is_plain_exponentiation_for_any_prime_set(keys_by_seed, seed, data):
    private = keys_by_seed[seed]
    assert private.p != private.q
    for prime in (private.p, private.q):
        assert private.e * private.d % (prime - 1) == 1
    value = data.draw(st.integers(min_value=0, max_value=private.n - 1))
    assert private._crt_power(value) == pow(value, private.d, private.n)


@pytest.mark.parametrize("seed", [2, 3])
def test_crt_power_is_plain_exponentiation_at_the_edges(keys_by_seed, seed):
    """Values Garner's step treats specially: 0, 1, multiples of p
    (where the root mod p is 0), q and n - 1."""
    private = keys_by_seed[seed]
    p, q, n = private.p, private.q, private.n
    for value in (0, 1, p, 5 * p, q, n - 1):
        assert private._crt_power(value) == pow(value, private.d, n)


def test_generated_keys_load_into_openssl_and_interoperate():
    """Every key keygen draws is a standard RFC 8017 two-prime key: the
    ``cryptography`` package (OpenSSL) loads its private half, and OAEP
    ciphertexts decrypt in both directions."""
    crypto_rsa = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.rsa")
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric import padding

    oaep = padding.OAEP(mgf=padding.MGF1(hashes.SHA256()), algorithm=hashes.SHA256(), label=None)
    for seed in range(20):
        public, private = generate_keypair(random.Random(seed).randrange)
        d_p, d_q, q_inverse = private.crt_values
        loaded = crypto_rsa.RSAPrivateNumbers(
            p=private.p, q=private.q, d=private.d, dmp1=d_p, dmq1=d_q, iqmp=q_inverse,
            public_numbers=crypto_rsa.RSAPublicNumbers(public.e, public.n),
        ).private_key()
        message = b"seed %d" % seed
        assert loaded.decrypt(public.encrypt(message), oaep) == message
        assert private.decrypt(loaded.public_key().encrypt(message, oaep)) == message


_KATS = {
    "two_prime_foreign_key": (
        RsaPrivateKey(n=KAT2_N, e=65537, d=KAT2_D, p=KAT2_P, q=KAT2_Q),
        KAT2_MESSAGE,
        KAT2_CIPHERTEXT,
    ),
    "two_prime_our_key": (
        RsaPrivateKey(n=KAT2026_N, e=65537, d=KAT2026_D, p=KAT2026_P, q=KAT2026_Q),
        KAT2026_MESSAGE,
        KAT2026_CIPHERTEXT,
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


def test_vector_key_is_the_key_keygen_draws():
    public, private = generate_keypair(random.Random(2026).randrange)
    assert public.n == KAT2026_N
    assert (private.p, private.q, private.d) == (KAT2026_P, KAT2026_Q, KAT2026_D)


def test_keygen_skips_a_repeated_prime_and_one_e_cannot_invert(monkeypatch):
    """A q equal to p is redrawn, as is a prime whose p - 1 e divides."""
    unusable = 3 * 65537 + 1  # p - 1 is a multiple of e
    draws = iter([unusable, KAT2026_P, KAT2026_P, KAT2026_Q])
    monkeypatch.setattr(rsa, "_random_prime", lambda *args: next(draws))
    public, private = generate_keypair(random.Random(0).randrange)
    assert (private.p, private.q) == (KAT2026_P, KAT2026_Q)
    assert (public.n, private.d) == (KAT2026_N, KAT2026_D)


_N, _D, _P, _Q = KAT2026_N, KAT2026_D, KAT2026_P, KAT2026_Q

_BROKEN_KEYS = {
    "a_prime_that_does_not_divide_n": (_N, _D, _P, _Q + 2, "is not n"),
    "a_factor_missing": (3 * _N, _D, _P, _Q, "is not n"),
    "a_prime_twice": (_P * _P, _D, _P, _P, "distinct"),
    "d_not_the_inverse_of_e": (_N, _D + 1, _P, _Q, "modulo p - 1"),
    "a_unit_factor": (_N, _D, 1, _N, "modulo p - 1"),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_KEYS))
def test_a_key_whose_factors_do_not_describe_n_is_refused(case):
    """Refused at construction, not at the first decrypt, where it would
    read as a malformed ciphertext (``OaepError``)."""
    n, d, p, q, reason = _BROKEN_KEYS[case]
    with pytest.raises(ValueError, match=reason) as caught:
        RsaPrivateKey(n=n, e=65537, d=d, p=p, q=q)
    assert not isinstance(caught.value, OaepError)


def test_public_key_accessor(keypair):
    _, private = keypair
    assert private.public_key == RsaPublicKey(n=private.n, e=private.e)


def test_ciphertext_value_out_of_range_rejected(keypair):
    _, private = keypair
    too_big = (private.n + 1).to_bytes(private.modulus_bytes, "big")
    with pytest.raises(OaepError, match="range"):
        private.decrypt(too_big)


def test_a_short_oaep_seed_is_refused_when_sealing(keypair):
    """An rng that returns too few bytes fails at encryption, not as a
    label hash mismatch at the layer that opens the block."""
    public, _ = keypair
    with pytest.raises(ValueError, match="OAEP seed"):
        public.encrypt(b"hello", lambda n: b"\x01" * (n - 1))


def test_a_hybrid_session_key_that_is_not_aes_256_is_refused_when_sealing(keypair):
    """The first draw, the session key, comes back 16 bytes long -- a
    key AES would take as AES-128 -- and every later draw is sound."""
    public, _ = keypair
    draws = [bytes(16)]
    provider = RealCryptoProvider(rng_bytes=lambda n: draws.pop() if draws else bytes(n))
    with pytest.raises(ValueError, match="AES-256"):
        provider.asym_encrypt(LayerPublicMaterial(public_key=public), bytes(200))


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
