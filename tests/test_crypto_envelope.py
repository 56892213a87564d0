"""Fixed-size identifier encoding and recommendation-list padding."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.envelope import (
    FIXED_ID_BYTES,
    MAX_RECOMMENDATIONS,
    EnvelopeCodec,
    PaddingError,
    decode_identifier,
    encode_identifier,
    pad_encoded_items,
    pad_item_list,
    strip_padding_items,
)


def test_encoded_identifier_has_fixed_size():
    for identifier in ("a", "user-123", "x" * 40):
        assert len(encode_identifier(identifier)) == FIXED_ID_BYTES


def test_roundtrip():
    assert decode_identifier(encode_identifier("movie-917")) == "movie-917"


def test_unicode_identifier_roundtrip():
    assert decode_identifier(encode_identifier("usér-ñ")) == "usér-ñ"


def test_empty_identifier_roundtrip():
    assert decode_identifier(encode_identifier("")) == ""


def test_identifier_too_long_rejected():
    with pytest.raises(PaddingError, match="too long"):
        encode_identifier("x" * (FIXED_ID_BYTES - 1))


def test_decode_rejects_wrong_size():
    with pytest.raises(PaddingError, match="bytes"):
        decode_identifier(b"short")


def test_decode_rejects_corrupt_length_prefix():
    blob = bytes([0xFF, 0xFF]) + bytes(FIXED_ID_BYTES - 2)
    with pytest.raises(PaddingError, match="length"):
        decode_identifier(blob)


def test_decode_rejects_nonzero_padding():
    blob = bytearray(encode_identifier("ab"))
    blob[-1] = 7
    with pytest.raises(PaddingError, match="padding"):
        decode_identifier(bytes(blob))


def test_pad_item_list_to_default_size():
    padded = pad_item_list(["a", "b"])
    assert len(padded) == MAX_RECOMMENDATIONS
    assert padded[:2] == ["a", "b"]


def test_pad_item_list_full_list_untouched():
    items = [f"i{n}" for n in range(MAX_RECOMMENDATIONS)]
    assert pad_item_list(items) == items


def test_pad_item_list_rejects_overflow():
    with pytest.raises(PaddingError, match="longer"):
        pad_item_list(["x"] * (MAX_RECOMMENDATIONS + 1))


@pytest.mark.parametrize("count", [0, 1, 7, MAX_RECOMMENDATIONS])
def test_pad_encoded_items_is_the_padded_list_encoded(count):
    items = [f"i{n}" for n in range(count)]
    assert pad_encoded_items(EnvelopeCodec.encode_identifiers(items)) == (
        EnvelopeCodec.encode_identifiers(pad_item_list(items))
    )


def test_pad_encoded_items_rejects_overflow():
    with pytest.raises(PaddingError, match="longer"):
        pad_encoded_items([encode_identifier("x")] * (MAX_RECOMMENDATIONS + 1))


def test_strip_padding_recovers_original():
    assert strip_padding_items(pad_item_list(["a", "b", "c"])) == ["a", "b", "c"]


def test_strip_padding_on_empty_list():
    assert strip_padding_items(pad_item_list([])) == []


def test_padding_items_are_recognizable():
    padded = pad_item_list(["real"])
    assert len(padded) > 1
    assert strip_padding_items(padded) == ["real"]


def test_real_identifiers_cannot_collide_with_padding():
    """The padding sentinel starts with NUL, which no UTF-8 app id
    produced by the catalog would."""
    padded = pad_item_list([])
    assert all(item.startswith("\x00") for item in padded)


def test_b64_roundtrip():
    text = EnvelopeCodec.wire_text(b"\x00\x01\xffdata")
    assert EnvelopeCodec.wire_blob(text) == b"\x00\x01\xffdata"


def test_unb64_rejects_invalid():
    with pytest.raises(Exception):
        EnvelopeCodec.wire_blob("not!!base64$$")


@settings(max_examples=30, deadline=None)
@given(
    identifier=st.text(max_size=20).filter(
        lambda s: len(s.encode("utf-8")) <= FIXED_ID_BYTES - 2
    )
)
def test_identifier_roundtrip_property(identifier):
    assert decode_identifier(encode_identifier(identifier)) == identifier


@settings(max_examples=200, deadline=None)
@given(blob=st.one_of(
    st.binary(min_size=FIXED_ID_BYTES, max_size=FIXED_ID_BYTES),
    # Well-formed layout around any body: valid UTF-8 or not.
    st.binary(max_size=FIXED_ID_BYTES - 2).map(
        lambda body: len(body).to_bytes(2, "big") + body + bytes(FIXED_ID_BYTES - 2 - len(body))
    ),
    # A real encoding with one byte flipped.
    st.builds(
        lambda blob, index, value: blob[:index] + bytes([value]) + blob[index + 1:],
        st.text(max_size=10).map(encode_identifier),
        st.integers(0, FIXED_ID_BYTES - 1), st.integers(0, 255),
    ),
))
def test_encoding_what_decode_accepts_gives_it_back(blob):
    """The IA packs the identifiers it checked as they are: that is
    sound because decode-then-encode is the identity wherever decode
    succeeds."""
    try:
        identifier = decode_identifier(blob)
    except (PaddingError, UnicodeDecodeError):
        return
    assert encode_identifier(identifier) == blob


@settings(max_examples=20, deadline=None)
@given(items=st.lists(st.text(alphabet="abc123-", min_size=1, max_size=8), max_size=MAX_RECOMMENDATIONS))
def test_pad_strip_roundtrip_property(items):
    assert strip_padding_items(pad_item_list(items)) == items
