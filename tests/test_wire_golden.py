"""Golden wire vectors: the two codecs pinned to exact byte literals.

The JSON vectors are captured from the *seed* wire (``Request.body_json``
et al.) and hold :class:`JsonCodec` byte-identical to it; the binary
vectors freeze the v1 frame layout so any accidental change to offsets,
tags or prefixes fails loudly instead of silently versioning the wire.
"""

from __future__ import annotations

import pytest

from repro.crypto.envelope import EnvelopeCodec, pad_item_list
from repro.rest.codec import BINARY_WIRE_CODEC, JSON_WIRE_CODEC, CodecError
from repro.rest.messages import Request, Response, Verb

# One fully loaded UA-bound get(u): base64 pseudonym text, raw sealed
# key bytes, and all three fixed-width header fields stamped.
GOLDEN_REQUEST = Request(
    verb=Verb.GET,
    fields={
        "user": "dXNlcg==",
        "tmpkey": b"\x01\x02\x03\x04",
        "deadline": "000004.50000",
        "kepoch": "0007",
        "trace": "tw:0000000000012",
    },
    request_id=7,
    client_address="client-a",
)

#: 4-byte length prefix (63) | "PW" 01 kind=01 | verb=02 flags=07 |
#: deadline[6:18] epoch[18:22] trace[22:38] | count=2 | entries
#: (user: tag 01 type str len 8; tmpkey: tag 03 type bytes len 4).
GOLDEN_REQUEST_FRAME = (
    b"\x00\x00\x00?PW\x01\x01\x02\x07"
    b"000004.50000" b"0007" b"tw:0000000000012"
    b"\x02"
    b"\x01\x02\x00\x00\x00\x08dXNlcg=="
    b"\x03\x01\x00\x00\x00\x04\x01\x02\x03\x04"
)

GOLDEN_RESPONSE = Response(
    status=200,
    fields={"blob": b"\xaa\xbb\xcc", "retryable": False},
    request_id=7,
)

#: length 27 | "PW" 01 kind=02 | status 00c8 | count=2 | entries
#: (blob: tag 07 bytes; retryable: tag 0a json "false").
GOLDEN_RESPONSE_FRAME = (
    b"\x00\x00\x00\x1bPW\x01\x02\x00\xc8\x02"
    b"\x07\x01\x00\x00\x00\x03\xaa\xbb\xcc"
    b"\x0a\x03\x00\x00\x00\x05false"
)


#: ``JsonCodec.pack_items`` of ``pad_item_list(["movie-1", "movie-22",
#: "ünïcode"])``, fixed-size encoded: captured from the seed wire.
GOLDEN_JSON_ITEM_PAYLOAD = (
    b'["AAdtb3ZpZS0xAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    b'"AAhtb3ZpZS0yMgAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    b'"AAnDvG7Dr2NvZGUAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    b'"AAwAcHByb3gtcGFkOjAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    b'"AAwAcHByb3gtcGFkOjEAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    b'"AAwAcHByb3gtcGFkOjIAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    b'"AAwAcHByb3gtcGFkOjMAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    b'"AAwAcHByb3gtcGFkOjQAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    b'"AAwAcHByb3gtcGFkOjUAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    b'"AAwAcHByb3gtcGFkOjYAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    b'"AAwAcHByb3gtcGFkOjcAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    b'"AAwAcHByb3gtcGFkOjgAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    b'"AAwAcHByb3gtcGFkOjkAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    b'"AA0AcHByb3gtcGFkOjEwAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    b'"AA0AcHByb3gtcGFkOjExAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    b'"AA0AcHByb3gtcGFkOjEyAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    b'"AA0AcHByb3gtcGFkOjEzAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    b'"AA0AcHByb3gtcGFkOjE0AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    b'"AA0AcHByb3gtcGFkOjE1AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    b'"AA0AcHByb3gtcGFkOjE2AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"]'
)


class TestBinaryVectors:
    def test_request_frame_bytes(self):
        assert BINARY_WIRE_CODEC.encode_request(GOLDEN_REQUEST) == GOLDEN_REQUEST_FRAME

    def test_request_frame_decodes_back(self):
        decoded = BINARY_WIRE_CODEC.decode_request(
            GOLDEN_REQUEST_FRAME, request_id=7, client_address="client-a"
        )
        assert decoded.verb == Verb.GET  # self-describing: no verb argument
        materialized = {
            name: bytes(value) if isinstance(value, memoryview) else value
            for name, value in decoded.fields.items()
        }
        assert materialized == GOLDEN_REQUEST.fields
        assert decoded.request_id == 7
        assert decoded.client_address == "client-a"

    def test_response_frame_bytes(self):
        assert (
            BINARY_WIRE_CODEC.encode_response(GOLDEN_RESPONSE)
            == GOLDEN_RESPONSE_FRAME
        )

    def test_response_frame_decodes_back(self):
        decoded = BINARY_WIRE_CODEC.decode_response(GOLDEN_RESPONSE_FRAME, request_id=7)
        assert decoded.status == 200
        assert bytes(decoded.fields["blob"]) == b"\xaa\xbb\xcc"
        assert decoded.fields["retryable"] is False

    def test_severing_offsets(self):
        """The epoch and trace live at exactly the documented byte
        ranges (after the 4-byte length prefix): zeroing them is the
        UA front door's severing operation."""
        frame = GOLDEN_REQUEST_FRAME[4:]
        assert frame[6:18] == b"000004.50000"
        assert frame[18:22] == b"0007"
        assert frame[22:38] == b"tw:0000000000012"

    def test_envelope_payload_bytes(self):
        payload = BINARY_WIRE_CODEC.pack_envelope(
            {"user": "dXNlcg==", "tmpkey": b"\x01\x02"}, b"\x10\x11\x12"
        )
        assert payload == (
            b"EV\x03\x10\x11\x12\x02"
            b"\x01\x02\x00\x00\x00\x08dXNlcg=="
            b"\x03\x01\x00\x00\x00\x02\x01\x02"
        )
        fields, key = BINARY_WIRE_CODEC.unpack_envelope(payload)
        assert key == b"\x10\x11\x12"
        assert fields["user"] == "dXNlcg=="
        assert bytes(fields["tmpkey"]) == b"\x01\x02"

    def test_response_fields_payload_bytes(self):
        payload = BINARY_WIRE_CODEC.pack_response_fields({"blob": b"\xaa\xbb"})
        assert payload == b"RF\x01\x07\x01\x00\x00\x00\x02\xaa\xbb"
        fields = BINARY_WIRE_CODEC.unpack_response_fields(payload)
        assert bytes(fields["blob"]) == b"\xaa\xbb"

    def test_item_payload_is_raw_concatenation(self):
        blobs = [bytes(range(48)), bytes(48)]
        packed = BINARY_WIRE_CODEC.pack_items(blobs)
        assert packed == blobs[0] + blobs[1]
        assert [bytes(b) for b in BINARY_WIRE_CODEC.unpack_items(packed)] == blobs

    def test_batch_frame_packing_bytes(self):
        packed = EnvelopeCodec.pack_frames([b"abc", b"de"])
        assert packed == b"\x00\x00\x00\x02\x00\x00\x00\x03abc\x00\x00\x00\x02de"
        assert [bytes(f) for f in EnvelopeCodec.unpack_frames(packed)] == [b"abc", b"de"]


class TestJsonVectors:
    """The JSON codec *is* the seed wire: sorted compact bodies,
    base64 text blobs."""

    def test_request_body_bytes(self):
        request = Request(
            verb=Verb.GET,
            fields={"user": "dXNlcg==", "tmpkey": "AQIDBA=="},
            request_id=7,
            client_address="client-a",
        )
        body = JSON_WIRE_CODEC.encode_request(request)
        assert body == b'{"tmpkey":"AQIDBA==","user":"dXNlcg=="}'
        assert body == request.body_json().encode("utf-8")  # == seed

    def test_response_body_bytes(self):
        response = Response(status=200, fields={"blob": "qrvM"}, request_id=7)
        body = JSON_WIRE_CODEC.encode_response(response)
        assert body == b'{"blob":"qrvM"}'
        assert body == response.body_json().encode("utf-8")  # == seed

    def test_wire_sizes_match_seed_accounting(self):
        """The latency model must charge the same transport bytes the
        seed's ``size_bytes()`` charged."""
        request = Request(
            verb=Verb.GET, fields={"user": "dXNlcg=="}, request_id=1,
            client_address="c",
        )
        response = Response(status=200, fields={"blob": "qrvM"}, request_id=1)
        assert JSON_WIRE_CODEC.request_size_bytes(request) == request.size_bytes()
        assert JSON_WIRE_CODEC.response_size_bytes(response) == response.size_bytes()

    def test_blob_representation_is_base64(self):
        assert JSON_WIRE_CODEC.wire_value(b"\xaa\xbb\xcc") == "qrvM"
        assert JSON_WIRE_CODEC.blob_value("qrvM") == b"\xaa\xbb\xcc"

    def test_item_payload_bytes(self):
        """A padded 20-entry list: the seed's ``json.dumps`` of one
        base64 string per fixed-size identifier, default separators."""
        blobs = EnvelopeCodec.encode_identifiers(
            pad_item_list(["movie-1", "movie-22", "ünïcode"])
        )
        packed = JSON_WIRE_CODEC.pack_items(blobs)
        assert packed == GOLDEN_JSON_ITEM_PAYLOAD
        assert [bytes(b) for b in JSON_WIRE_CODEC.unpack_items(packed)] == blobs

    def test_json_frames_are_not_self_describing(self):
        body = b'{"user":"dXNlcg=="}'
        with pytest.raises(CodecError):
            JSON_WIRE_CODEC.decode_request(body)  # verb required
        decoded = JSON_WIRE_CODEC.decode_request(body, verb=Verb.GET)
        assert decoded.verb == Verb.GET
