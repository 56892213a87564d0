"""The recommendation-list path against its seed, input for input.

The IA packs the fixed-size identifiers it has checked as they are, the
JSON item list is written without ``json.dumps`` and read one entry at
a time with ``_unb64``, ``base64.b64decode(validate=True)`` on the text
itself.  None of that may change a byte or a verdict: each test here runs the
product and the verbatim seed path of
``tests/oracles/item_list_reference.py`` on the same input and requires
the same bytes back, or a raise from both.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.envelope import (
    FIXED_ID_BYTES,
    MAX_RECOMMENDATIONS,
    EnvelopeCodec,
    _unb64,
    encode_identifier,
)
from repro.crypto.provider import RealCryptoProvider, SimCryptoProvider
from repro.proxy import protocol
from repro.proxy.config import PProxConfig
from repro.rest.codec import BINARY_WIRE_CODEC, JSON_WIRE_CODEC
from repro.rest.messages import Response, Verb
from tests.oracles.item_list_reference import (
    seed_decode_identifiers,
    seed_ia_transform_response,
    seed_json_unpack_items,
    seed_unb64,
    seed_wire_blob,
)

wire_text = EnvelopeCodec.wire_text

CONFIG = PProxConfig(shuffle_size=0)
NO_ITEM_PSEUDO = PProxConfig(shuffle_size=0, item_pseudonymization=False)

B64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def outcome(fn, *args, **kwargs):
    """``("ok", value)``, or ``("raises",)`` whatever the exception."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception:
        return ("raises",)


# ------------------------------------------------------------------ _unb64


base64ish = st.text(alphabet=B64_ALPHABET + "=-_ \n\t\r", max_size=24)


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(st.text(max_size=24), base64ish))
def test_unb64_raises_exactly_when_the_seed_raises(text):
    assert outcome(_unb64, text) == outcome(seed_unb64, text)


@pytest.mark.parametrize("text", [
    "", "qrvM", "qrs=", "qr==", "q===", "qrvM=", "=qrv", "qr=v", "qrv", "qrvM\n",
    " qrvM", "qr-_", "qrvMé", "ＱrvM",
])
def test_unb64_parity_on_the_edge_cases(text):
    assert outcome(_unb64, text) == outcome(seed_unb64, text)


# ---------------------------------------------- client: unpack_items + decode


identifiers = st.text(max_size=14).filter(
    lambda s: len(s.encode("utf-8")) <= FIXED_ID_BYTES - 2
)
valid_entry = identifiers.map(lambda s: wire_text(encode_identifier(s)))


def _mutate(entry: str, index: int, char: str) -> str:
    return entry[:index] + char + entry[index + 1:]


list_entries = st.one_of(
    valid_entry,
    # Any 48 bytes: the identifier check, not the codec, refuses most.
    st.binary(min_size=FIXED_ID_BYTES, max_size=FIXED_ID_BYTES).map(wire_text),
    # Entries that are not the text of 48 bytes.
    st.binary(max_size=60).map(wire_text),
    st.text(alphabet=B64_ALPHABET + "=", min_size=64, max_size=64),
    # "=" (or a stranger) inside a valid entry, or padding at its end.
    st.builds(_mutate, valid_entry, st.integers(0, 63), st.sampled_from("=-_ \né")),
    valid_entry.map(lambda e: e[:-1] + "="),
    valid_entry.map(lambda e: e[:-2] + "=="),
    # Padding after a complete entry: accepted by 3.11+'s strict
    # decoder, up to "==" by 3.10's; product and seed agree on each.
    valid_entry.map(lambda e: e + "="),
    valid_entry.map(lambda e: e + "=="),
    valid_entry.map(lambda e: e + "===="),
    # Not strings at all.
    st.integers(), st.none(), st.booleans(), st.lists(st.integers(), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(
    st.one_of(list_entries, st.binary(min_size=60, max_size=68), st.text(max_size=70)),
    max_size=25,
))
def test_wire_blob_entries_decodes_each_value_as_the_seed_does(values):
    """One pass over the joined text of a well-formed list, entry by
    entry otherwise: either way the seed's bytes and verdicts."""
    assert outcome(EnvelopeCodec.wire_blob_entries, values) == outcome(
        lambda: [seed_wire_blob(value) for value in values]
    )


@pytest.mark.parametrize("values", [
    [],
    [wire_text(bytes(range(48)))] * 3,
    [bytes(64)] * 2,  # 64 long, but bytes: passed through, not decoded
    [wire_text(bytes(48)), bytes(64)],
    [wire_text(bytes(48))[:-1] + "é"],
    [wire_text(bytes(48)) + "="],
    [wire_text(bytes(48)), 64],
])
def test_wire_blob_entries_parity_on_the_edge_cases(values):
    assert outcome(EnvelopeCodec.wire_blob_entries, values) == outcome(
        lambda: [seed_wire_blob(value) for value in values]
    )


def _client_side_seed(data):
    return seed_decode_identifiers(seed_json_unpack_items(data))


def _client_side(data):
    return EnvelopeCodec.decode_identifiers(JSON_WIRE_CODEC.unpack_items(data))


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(list_entries, max_size=25))
def test_unpack_and_decode_accept_exactly_what_the_seed_accepts(entries):
    data = json.dumps(entries).encode("utf-8")
    assert outcome(_client_side, data) == outcome(_client_side_seed, data)


@settings(max_examples=200, deadline=None)
@given(payload=st.one_of(
    st.text(max_size=40).map(lambda t: t.encode("utf-8")),
    st.binary(max_size=40),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2).map(
        lambda d: json.dumps(d).encode("utf-8")),
))
def test_unpack_parity_on_payloads_that_are_not_lists(payload):
    assert outcome(_client_side, payload) == outcome(_client_side_seed, payload)


def test_a_well_formed_list_decodes_as_the_seed_decodes_it():
    entries = [wire_text(encode_identifier(f"movie-{index}")) for index in range(20)]
    data = json.dumps(entries).encode("utf-8")
    assert _client_side(data) == _client_side_seed(data) == [
        f"movie-{index}" for index in range(20)
    ]


# ----------------------------------------------------------------- the IA


def _seeded_bytes(seed: int):
    rng = random.Random(seed)
    return lambda n: rng.getrandbits(8 * n).to_bytes(n, "big") if n else b""


PROVIDERS = {
    "real": lambda: RealCryptoProvider(rng_bytes=_seeded_bytes(5)),
    "sim": lambda: SimCryptoProvider(rng_bytes=_seeded_bytes(7)),
}

CODECS = {"json": JSON_WIRE_CODEC, "binary": BINARY_WIRE_CODEC}

TEMPORARY_KEY = bytes(range(100, 132))


def _items(count: int):
    return [f"movie-{index}" if index % 3 else f"film-ü-{index}" for index in range(count)]


def _pseudonyms(provider, key: bytes, items):
    return [wire_text(provider.pseudonymize(key, encode_identifier(item))) for item in items]


def _run_both(keys, provider_name, codec, config, build_items, *, previous=None):
    """The product and the seed on twin providers: same keys, same rng,
    same pseudonyms minted in the same order."""
    results = []
    for transform in (protocol.ia_transform_response, seed_ia_transform_response):
        provider = PROVIDERS[provider_name]()
        items = build_items(provider)
        context = protocol.IaRequestContext(verb=Verb.GET, temporary_key=TEMPORARY_KEY)
        uses = []
        result = outcome(
            transform, provider, keys, config, context,
            Response(status=200, fields={"items": items}, request_id=3),
            previous=previous, on_previous_use=lambda: uses.append(1), codec=codec,
        )
        if result[0] == "ok":
            result = ("ok", result[1].status, result[1].fields, result[1].request_id)
        results.append((result, uses))
    return results


@pytest.fixture(scope="module")
def epochs(second_layer_keys, layer_keys):
    """The IA's active keys and its previous epoch's."""
    return second_layer_keys, layer_keys


@pytest.mark.parametrize("codec_name", sorted(CODECS))
@pytest.mark.parametrize("provider_name", sorted(PROVIDERS))
@pytest.mark.parametrize("count", [0, 7, MAX_RECOMMENDATIONS, 25])
def test_ia_packs_the_seed_bytes(epochs, provider_name, codec_name, count):
    active, _ = epochs

    def build(provider):
        return _pseudonyms(provider, active.symmetric_key, _items(count))

    product, seed = _run_both(active, provider_name, CODECS[codec_name], CONFIG, build)
    assert product == seed
    assert product[0][0] == "ok"


@pytest.mark.parametrize("codec_name", sorted(CODECS))
@pytest.mark.parametrize("provider_name", sorted(PROVIDERS))
@pytest.mark.parametrize("position", [0, 6, 22])
def test_ia_refuses_a_garbage_pseudonym_as_the_seed_does(
    epochs, provider_name, codec_name, position
):
    """A pseudonym no key minted is refused wherever it sits, also past
    the twenty entries that are kept."""
    active, _ = epochs

    def build(provider):
        items = _pseudonyms(provider, active.symmetric_key, _items(25))
        items[position] = wire_text(bytes([0x5A]) * FIXED_ID_BYTES)
        return items

    product, seed = _run_both(active, provider_name, CODECS[codec_name], CONFIG, build)
    assert product == seed
    assert product[0] == ("raises",)


@pytest.mark.parametrize("codec_name", sorted(CODECS))
@pytest.mark.parametrize("provider_name", sorted(PROVIDERS))
@pytest.mark.parametrize("count", [0, 7, 25])
def test_ia_dual_epoch_fallback_packs_the_seed_bytes(
    epochs, provider_name, codec_name, count
):
    """Every other entry was minted under the previous epoch's key."""
    active, old = epochs

    def build(provider):
        items = _items(count)
        fresh = _pseudonyms(provider, active.symmetric_key, items[::2])
        stale = _pseudonyms(provider, old.symmetric_key, items[1::2])
        return [entry for pair in zip(fresh, stale) for entry in pair] + fresh[len(stale):]

    product, seed = _run_both(
        active, provider_name, CODECS[codec_name], CONFIG, build, previous=old
    )
    assert product == seed
    assert product[0][0] == "ok"
    assert product[1] == ([1] if count > 1 else [])


@pytest.mark.parametrize("codec_name", sorted(CODECS))
@pytest.mark.parametrize("provider_name", sorted(PROVIDERS))
@pytest.mark.parametrize("items", [
    [], _items(7), _items(25),
    # Too long for the fixed-size encoding: refused among the kept
    # twenty, ignored past them, as the seed did.
    _items(3) + ["x" * FIXED_ID_BYTES],
    _items(22) + ["x" * FIXED_ID_BYTES],
])
def test_ia_without_item_pseudonyms_packs_the_seed_bytes(
    epochs, provider_name, codec_name, items
):
    active, _ = epochs
    product, seed = _run_both(
        active, provider_name, CODECS[codec_name], NO_ITEM_PSEUDO, lambda provider: list(items)
    )
    assert product == seed


@settings(max_examples=60, deadline=None)
@given(
    items=st.lists(identifiers, max_size=25),
    codec_name=st.sampled_from(sorted(CODECS)),
    pseudonymized=st.booleans(),
)
def test_ia_parity_on_arbitrary_lists(epochs, items, codec_name, pseudonymized):
    active, _ = epochs
    config = CONFIG if pseudonymized else NO_ITEM_PSEUDO

    def build(provider):
        if not pseudonymized:
            return list(items)
        return _pseudonyms(provider, active.symmetric_key, items)

    product, seed = _run_both(active, "sim", CODECS[codec_name], config, build)
    assert product == seed
    assert product[0][0] == "ok"
