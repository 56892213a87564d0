"""The pseudonym PRP: known answers, inversion, injectivity, the reject."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import prp
from repro.crypto.envelope import encode_identifier
from repro.crypto.provider import RealCryptoProvider, SimCryptoProvider

KEY = bytes(range(32))

# (key hex, 48-byte block hex, pseudonym hex), generated once from
# repro.crypto.prp.encipher and committed: a change of round function,
# personalisation, round count or half layout changes every pseudonym
# in every LRS store, so it must show here first.
KATS = [
    (KEY.hex(), encode_identifier("user-1").hex(),
     "d5acb52614c3174c4977b8ef25c16419bdb868df36c37b3443c427541a2f384f"
     "819e661e997bc767cbb1c7122e7e81c7"),
    (KEY.hex(), encode_identifier("movie-33").hex(),
     "3dcb281cf79944c920e454e79bffcf818d07802e8bcd81bd1407b0b1aad062de"
     "10a26b36622a5cf5da557efa520315af"),
    (KEY.hex(), encode_identifier("").hex(),
     "14f47bccf91b7fc88ee2e48ec0cc22c03c20b3a339a861d06dad4ab92b0865f9"
     "452ffe03398d58d997fabed3a11d0e8a"),
    (KEY.hex(), encode_identifier("x" * 46).hex(),
     "f9a4a7c79c0c9b7b15e468444e09fce831238f6604232b5fc2a7b80e21ccd796"
     "a1e6986d7d41190d2d85cf21cb35c2ac"),
    (KEY.hex(), "ff" * 48,
     "c2af536ebd264d1a6f23f4e3170aeb0908ec2e292820321d3570cb63b3c09b45"
     "9b03d16f5013e9f303d3f12d75079ea8"),
    (bytes(32).hex(), encode_identifier("user-1").hex(),
     "df2f54bb4d9e488ea61874383b8f8c9e22f1cfa4b0475ee4b9ab0d231333e21b"
     "04b79f4299f8a61373206cf61245672c"),
    (hashlib.sha256(b"kIA").hexdigest(), encode_identifier("user-1").hex(),
     "2d721d9914ebdb23349decff195715c8cb21cdf4613781a16cfba5d215e505cc"
     "a23d025764e7c7965c134eae7bf05aae"),
]

BLOCKS = st.binary(min_size=prp.BLOCK_BYTES, max_size=prp.BLOCK_BYTES)
PROVIDERS = [RealCryptoProvider, SimCryptoProvider]


@pytest.mark.parametrize("key_hex,block_hex,pseudonym_hex", KATS)
def test_known_answers(key_hex, block_hex, pseudonym_hex):
    key, block = bytes.fromhex(key_hex), bytes.fromhex(block_hex)
    assert prp.encipher(key, block).hex() == pseudonym_hex
    assert prp.decipher(key, bytes.fromhex(pseudonym_hex)) == block


@pytest.mark.parametrize("provider_cls", PROVIDERS)
def test_both_providers_give_the_known_answers(provider_cls):
    provider = provider_cls()
    for key_hex, block_hex, pseudonym_hex in KATS:
        key = bytes.fromhex(key_hex)
        assert provider.pseudonymize(key, bytes.fromhex(block_hex)).hex() == pseudonym_hex


def test_the_construction_is_a_four_round_blake2b_feistel():
    """One known answer recomputed from the construction as the module
    docstring states it: 24-byte halves, round i keyed BLAKE2b of the
    right half under the layer key, personalised per round."""
    block = encode_identifier("user-1")
    left, right = block[:24], block[24:]
    for index in range(4):
        mask = hashlib.blake2b(
            right, key=KEY, person=b"pprox-prp-rnd-%d" % index, digest_size=24
        ).digest()
        left, right = right, bytes(a ^ b for a, b in zip(left, mask))
    assert (left + right).hex() == KATS[0][2]


@settings(max_examples=60, deadline=None)
@given(block=BLOCKS)
def test_decipher_inverts_encipher(block):
    pseudonym = prp.encipher(KEY, block)
    assert len(pseudonym) == prp.BLOCK_BYTES
    assert prp.decipher(KEY, pseudonym) == block
    assert prp.encipher(KEY, prp.decipher(KEY, block)) == block


@pytest.mark.parametrize("provider_cls", PROVIDERS)
@settings(max_examples=40, deadline=None)
@given(block=BLOCKS)
def test_depseudonymize_inverts_pseudonymize(provider_cls, block):
    """On a provider that has not seen the pseudonym, so the permutation
    itself answers and not the memo."""
    pseudonym = provider_cls().pseudonymize(KEY, block)
    assert provider_cls().depseudonymize(KEY, pseudonym) == block


@pytest.mark.parametrize("provider_cls", PROVIDERS)
@settings(max_examples=40, deadline=None)
@given(first=BLOCKS, second=BLOCKS)
def test_pseudonymize_is_injective(provider_cls, first, second):
    provider = provider_cls()
    if first != second:
        assert provider.pseudonymize(KEY, first) != provider.pseudonymize(KEY, second)


@pytest.mark.parametrize("size", [0, 16, 47, 49])
def test_a_wrong_length_block_is_rejected_before_any_round(size, monkeypatch):
    rounds = []
    monkeypatch.setattr(prp, "blake2b", lambda *args, **kwargs: rounds.append(args))
    for direction in (prp.encipher, prp.decipher):
        with pytest.raises(ValueError, match="48-byte identifier block"):
            direction(KEY, bytes(size))
    for provider_cls in PROVIDERS:
        with pytest.raises(ValueError, match="48-byte identifier block"):
            provider_cls().pseudonymize(KEY, bytes(size))
        with pytest.raises(ValueError, match="48-byte identifier block"):
            provider_cls().depseudonymize(KEY, bytes(size))
    assert rounds == []


@pytest.mark.parametrize("size", [0, 16, 31, 33, 64])
def test_only_a_layer_key_is_accepted(size):
    with pytest.raises(ValueError, match="32-byte layer key"):
        prp.encipher(bytes(size), encode_identifier("user-1"))
