"""Pluggable wire codecs: pinned JSON/base64 and zero-copy binary framing.

The seed wire format is the paper's §5 "base64 format" taken
literally: every message body is ``json.dumps`` over a dict whose
binary values are base64 text.  At the 100k-RPS scale opened by the
calendar-queue engine, serialization and base64 inflation dominate
the proxy hot path, so the format becomes a first-class, swappable
API instead of an implicit assumption smeared across layers:

* :class:`JsonCodec` — pinned byte-identical to the seed format:
  golden vector tests in ``tests/test_wire_golden.py`` hold it to
  exact byte literals captured from the seed.
* :class:`BinaryCodec` — length-prefixed frames with a fixed-offset
  header and tagged fields, decoded by zero-copy ``memoryview``
  slicing: no intermediate dict on the parse path, no base64
  inflation (ciphertext travels raw).

Frame layout (offsets relative to the frame, after the 4-byte
big-endian length prefix)::

    request                             response
    ------- ---------------------       ------- -----------------
    0   2   magic "PW"                  0   2   magic "PW"
    2   1   version (1)                 2   1   version (1)
    3   1   kind (1=request)            3   1   kind (2=response)
    4   1   verb (1=POST 2=GET)         4   2   status (BE)
    5   1   flags                       6   1   field count
    6   32  fixed-width header          7  ...  field entries
            (repro.rest.header)
    38  1   field count
    39  ...  field entries

The header regions (deadline / key epoch / trace id; names, widths,
flag bits and offsets are :data:`repro.rest.header.HEADER_FIELDS`, the
one statement of them) are the *severing offsets*: the UA front door
strips the epoch tag and the trace id before the shuffle boundary
(:func:`repro.rest.header.strip`), so every frame it emits carries
zeros at exactly ``frame[18:38]`` and the privacy argument about what
crosses the shuffler is a statement about fixed byte ranges.  A field
entry is ``tag(1) [namelen(1) name]  type(1) length(4 BE) value`` —
well-known field names get a one-byte tag, unknown names ride inline,
and that is the only spelling that decodes (no duplicate entry, no
well-known name under tag 0, no header field sent as an entry): one
dict, one encoding.

There is no object wire: every protected hop carries encoded bytes.
:func:`ship` frames at the sender, puts a :class:`WireFrame` on the
wire (so wiretap auditors observe real encoded bytes), and the
receiver parses it at delivery — always.  ``"json"`` is the wire a
deployment gets without naming one
(:class:`repro.context.SimContext`), the paper's REST bodies byte for
byte.

**Forward, don't re-serialise.**  Most legs of a request do not touch
the body (§5: a layer forwards the response "backward using the same
path"; the UA never reads a blob that is opaque to it), so a hop that
sends on the very message it parsed sends on the bytes it parsed it
from.  :meth:`WireFrame.decode` attaches ``(codec, data)`` to the
message it returns (``arrived_as``, see :mod:`repro.rest.messages`:
every rewrite drops it, only :meth:`Request.readdressed` carries it
over) and :meth:`WireFrame.for_message` re-sends ``data`` when the
message still has it under the same codec, encoding as ever otherwise.
Nobody sets the choice; it follows from the message not having been
rewritten.  What is saved is the sender's encode — never the
receiver's parse, which is why the carrier closure in :func:`ship`
calls ``decode`` on whatever arrives.

The delivery closure in :func:`ship` is a plain closure holding its
continuation as ``on_deliver`` on purpose: ``benchmarks/e2e/tracing.py``
finds the layer that owns a scheduled callback by walking closures of
this module, ``simnet.network`` and ``simnet.node`` through that name.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable, Collection, Dict, List, Optional, Sequence, Tuple, Union

from repro.crypto.envelope import FIXED_ID_BYTES, EnvelopeCodec
from repro.rest.header import HEADER_END, HEADER_FIELDS
from repro.rest.messages import Request, Response, Verb, encode_compact_json

__all__ = [
    "CodecError",
    "WireCodec",
    "JsonCodec",
    "BinaryCodec",
    "WireFrame",
    "BatchEnvelope",
    "JSON_WIRE_CODEC",
    "BINARY_WIRE_CODEC",
    "resolve_codec",
    "ship",
]


class CodecError(ValueError):
    """Raised when a wire frame cannot be encoded or decoded."""


_MAGIC = b"PW"
_MAGIC0, _MAGIC1 = _MAGIC
_VERSION = 1
_KIND_REQUEST = 1
_KIND_RESPONSE = 2

_VERB_CODES = {Verb.POST: 1, Verb.GET: 2}
_VERB_NAMES = {code: verb for verb, code in _VERB_CODES.items()}

# Well-known field tags; tag 0 means "name carried inline".
_FIELD_TAGS = {
    "user": 1,
    "item": 2,
    "tmpkey": 3,
    "sealed": 4,
    "payload": 5,
    "tenant": 6,
    "blob": 7,
    "sealed_resp": 8,
    "items": 9,
    "retryable": 10,
    "error": 11,
    "pad": 12,
}

_TYPE_BYTES = 1
_TYPE_STR = 2
_TYPE_JSON = 3

# Hot-path lookup tables: one-byte singletons, a dense tag->name table
# (O(1) without a dict probe), precomputed (tag, type) entry heads and
# the fixed frame prefixes.  The encoder assembles a frame with a
# single ``b"".join`` over these.
_ONE_BYTE = [bytes((value,)) for value in range(256)]
_TAG_NAME_TABLE: List[Optional[str]] = [None] * 256
for _name, _tag in _FIELD_TAGS.items():
    _TAG_NAME_TABLE[_tag] = _name
_ENTRY_HEADS = {
    (tag, code): bytes((tag, code))
    for tag in _FIELD_TAGS.values()
    for code in (_TYPE_BYTES, _TYPE_STR, _TYPE_JSON)
}
_REQ_PREFIX = _MAGIC + bytes((_VERSION, _KIND_REQUEST))
_RESP_PREFIX = _MAGIC + bytes((_VERSION, _KIND_RESPONSE))
_VERB_FLAG_BYTES = {
    (verb_code, flags): bytes((verb_code, flags))
    for verb_code in _VERB_NAMES
    for flags in range(1 << len(HEADER_FIELDS))
}
# Entry heads parsed in one call: ``tag type length`` of a tagged entry,
# ``type length`` after an inline name; and the 8-byte frame head
# (length prefix, then magic + version + kind read as one word).
_TAGGED_HEAD = struct.Struct(">BBI").unpack_from
_INLINE_HEAD = struct.Struct(">BI").unpack_from
_FRAME_HEAD = struct.Struct(">II").unpack_from
_REQ_WORD = int.from_bytes(_REQ_PREFIX, "big")
_RESP_WORD = int.from_bytes(_RESP_PREFIX, "big")

# Request-frame offsets (after the length prefix); the fixed-width
# header regions between the flags byte and the field count are
# repro.rest.header's.
_REQ_VERB_OFFSET = 4
_REQ_FLAGS_OFFSET = 5
_REQ_COUNT_OFFSET = HEADER_END
_REQ_HEADER_SIZE = _REQ_COUNT_OFFSET + 1
_HEADER_NAMES = frozenset(spec.name for spec in HEADER_FIELDS)
_NO_HEADER = bytes(HEADER_END - HEADER_FIELDS[0].offset)

_RESP_STATUS_OFFSET = 4
_RESP_COUNT_OFFSET = 6
_RESP_HEADER_SIZE = 7


def _unique_keys(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise CodecError("duplicate key in a JSON object")
    return obj


#: The one JSON parser of this module.  ``json.loads`` keeps the last
#: of two equal keys; here that spelling does not decode, so "one dict,
#: one encoding" holds on the JSON wire as it does for binary entries.
_parse_json = json.JSONDecoder(object_pairs_hook=_unique_keys).decode


def _as_text(data: Any) -> str:
    """UTF-8 decode a bytes-like (memoryview included)."""
    if isinstance(data, str):
        return data
    return bytes(data).decode("utf-8")


class WireCodec:
    """Serialization strategy for every protected-hop message.

    One codec instance covers three concerns that were previously
    hard-wired to JSON+base64 across rest/crypto/proxy/client:

    * message framing (:meth:`encode_request` / :meth:`decode_request`
      and the response pair) and the wire sizes the latency model
      charges for;
    * the representation of binary blobs inside message fields
      (:meth:`wire_value` / :meth:`blob_value`);
    * the plaintext packings that get encrypted — hardened-hop
      envelopes, sealed response fields, padded item lists.

    The fixed-width deadline/epoch/trace fields are stamped and
    stripped on the message, before it is encoded
    (:mod:`repro.rest.header`).
    """

    name = "abstract"
    #: When true the UA seals one envelope per shuffle-batch flush
    #: instead of forwarding per-request (requires self-describing
    #: frames, i.e. the verb is carried in-band).
    batch_envelopes = False

    # -- blob representation ------------------------------------------

    def wire_value(self, blob: bytes) -> Any:
        """Field representation of a binary blob (ciphertext etc.)."""
        raise NotImplementedError

    def blob_value(self, value: Any) -> bytes:
        """Invert :meth:`wire_value`; the one copy at the crypto boundary."""
        raise NotImplementedError

    # -- encrypted-payload packings -----------------------------------

    def pack_envelope(self, fields: Dict[str, Any], response_key: bytes) -> bytes:
        """Plaintext of a hardened client->UA envelope."""
        raise NotImplementedError

    def unpack_envelope(self, data: Any) -> Tuple[Dict[str, Any], bytes]:
        """Invert :meth:`pack_envelope`."""
        raise NotImplementedError

    def pack_response_fields(self, fields: Dict[str, Any]) -> bytes:
        """Plaintext of a sealed (hardened) response body."""
        raise NotImplementedError

    def unpack_response_fields(self, data: Any) -> Dict[str, Any]:
        """Invert :meth:`pack_response_fields`."""
        raise NotImplementedError

    def pack_items(self, blobs: Sequence[Any]) -> bytes:
        """Plaintext of a padded recommendation list."""
        raise NotImplementedError

    def unpack_items(self, data: Any) -> List[Any]:
        """Invert :meth:`pack_items`."""
        raise NotImplementedError

    # -- message framing ----------------------------------------------

    def encode_request(self, request: Request) -> bytes:
        """Serialize *request* to its wire bytes."""
        raise NotImplementedError

    def decode_request(self, data: Any, *, verb: Optional[str] = None,
                       request_id: int = 0, client_address: str = "") -> Request:
        """Parse wire bytes back into a :class:`Request`.

        *verb*, *request_id* and *client_address* are the simulator's
        out-of-band metadata (the seed never serializes them); a
        self-describing codec may ignore *verb*.
        """
        raise NotImplementedError

    def encode_response(self, response: Response) -> bytes:
        """Serialize *response* to its wire bytes."""
        raise NotImplementedError

    def decode_response(self, data: Any, *, status: int = 200,
                        request_id: int = 0) -> Response:
        """Parse wire bytes back into a :class:`Response`."""
        raise NotImplementedError

    def request_wire_size(self, body: bytes) -> int:
        """Transport size of an encoded request body."""
        raise NotImplementedError

    def response_wire_size(self, body: bytes) -> int:
        """Transport size of an encoded response body."""
        raise NotImplementedError

    def request_size_bytes(self, request: Request) -> int:
        """Wire size of *request* under this codec."""
        return self.request_wire_size(self.encode_request(request))

    def response_size_bytes(self, response: Response) -> int:
        """Wire size of *response* under this codec."""
        return self.response_wire_size(self.encode_response(response))


class JsonCodec(WireCodec):
    """The seed wire format, pinned byte-for-byte.

    Every method reproduces the exact ``json.dumps`` call shape of the
    code it replaced — bodies are compact and sorted, sealed payloads
    keep the seed's default separators and insertion order — and the
    golden vectors in ``tests/test_wire_golden.py`` hold it to those
    bytes.
    """

    name = "json"

    def wire_value(self, blob: bytes) -> str:
        return EnvelopeCodec.wire_text(blob)

    def blob_value(self, value: Any) -> bytes:
        return EnvelopeCodec.wire_blob(value)

    def pack_envelope(self, fields: Dict[str, Any], response_key: bytes) -> bytes:
        payload = {"fields": fields, "resp_key": EnvelopeCodec.wire_text(response_key)}
        return json.dumps(payload).encode("utf-8")

    def unpack_envelope(self, data: Any) -> Tuple[Dict[str, Any], bytes]:
        payload = _parse_json(_as_text(data))
        if not isinstance(payload, dict) or "fields" not in payload:
            raise CodecError("sealed envelope payload is not an envelope dict")
        return payload["fields"], EnvelopeCodec.wire_blob(payload["resp_key"])

    def pack_response_fields(self, fields: Dict[str, Any]) -> bytes:
        return json.dumps(fields, sort_keys=True).encode("utf-8")

    def unpack_response_fields(self, data: Any) -> Dict[str, Any]:
        fields = _parse_json(_as_text(data))
        if not isinstance(fields, dict):
            raise CodecError("sealed response payload is not a field dict")
        return fields

    def pack_items(self, blobs: Sequence[Any]) -> bytes:
        wire_items = [EnvelopeCodec.wire_text(bytes(blob)) for blob in blobs]
        return json.dumps(wire_items).encode("utf-8")

    def unpack_items(self, data: Any) -> List[bytes]:
        entries = _parse_json(_as_text(data))
        if not isinstance(entries, list):
            raise CodecError("item payload is not a list")
        return [EnvelopeCodec.wire_blob(entry) for entry in entries]

    def encode_request(self, request: Request) -> bytes:
        return request.body_json().encode("utf-8")

    def decode_request(self, data: Any, *, verb: Optional[str] = None,
                       request_id: int = 0, client_address: str = "") -> Request:
        fields = _parse_json(_as_text(data))
        if not isinstance(fields, dict):
            raise CodecError("request body is not a JSON object")
        if verb is None:
            raise CodecError("JSON frames are not self-describing: verb required")
        return Request(verb=verb, fields=fields, request_id=request_id,
                       client_address=client_address)

    def encode_response(self, response: Response) -> bytes:
        return response.body_json().encode("utf-8")

    def decode_response(self, data: Any, *, status: int = 200,
                        request_id: int = 0) -> Response:
        fields = _parse_json(_as_text(data))
        if not isinstance(fields, dict):
            raise CodecError("response body is not a JSON object")
        return Response(status=status, fields=fields, request_id=request_id)

    def request_wire_size(self, body: bytes) -> int:
        return 32 + len(body)

    def response_wire_size(self, body: bytes) -> int:
        return 20 + len(body)


def _encode_entry(name: str, value: Any) -> bytes:
    """One binary field entry: tag [name] type length value."""
    kind = type(value)
    if kind is bytes:
        type_code, payload = _TYPE_BYTES, value
    elif kind is str:
        type_code, payload = _TYPE_STR, value.encode("utf-8")
    elif kind is bytearray or kind is memoryview:
        type_code, payload = _TYPE_BYTES, bytes(value)
    else:
        type_code = _TYPE_JSON
        payload = encode_compact_json(value).encode("utf-8")
    tag = _FIELD_TAGS.get(name)
    if tag is not None:
        return (_ENTRY_HEADS[tag, type_code]
                + len(payload).to_bytes(4, "big") + payload)
    raw_name = name.encode("utf-8")
    if len(raw_name) > 255:
        raise CodecError(f"field name too long: {name!r}")
    return (b"\x00" + _ONE_BYTE[len(raw_name)] + raw_name
            + _ONE_BYTE[type_code]
            + len(payload).to_bytes(4, "big") + payload)


def _encode_entries(fields: Dict[str, Any],
                    skip: Collection[str] = ()) -> Tuple[bytes, int]:
    """Encode *fields* (minus *skip*) into entries; returns (bytes, count)."""
    if skip:
        parts = [_encode_entry(name, value)
                 for name, value in fields.items() if name not in skip]
    else:
        parts = [_encode_entry(name, value) for name, value in fields.items()]
    if len(parts) > 255:
        raise CodecError("more than 255 fields in one frame")
    return b"".join(parts), len(parts)


def _decode_entries(view: memoryview, offset: int, count: int,
                    reserved: Collection[str] = ()) -> Tuple[Dict[str, Any], int]:
    """Decode *count* field entries; bytes values stay memoryviews.

    One dict has one encoding, and only that one decodes: a name may
    appear once (never last-wins), a well-known name rides under its
    tag (never spelled out under tag 0), and the names in *reserved* —
    the fixed header region of a request — never ride as entries at
    all.  A hop that forwards the bytes it received would otherwise
    pass any of those on unnormalised.

    Malformed text or JSON in a value must surface as
    :class:`CodecError` like every other framing fault — wire garbage
    is a protocol error, not a crash (the ``try`` is free on the
    success path).
    """
    fields: Dict[str, Any] = {}
    size = len(view)
    names = _TAG_NAME_TABLE
    tagged_head = _TAGGED_HEAD
    try:
        for _ in range(count):
            # The shortest entry is a tagged one with an empty value.
            if offset + 6 > size:
                raise CodecError("truncated field entry")
            tag, type_code, length = tagged_head(view, offset)
            if tag:
                name = names[tag]
                if name is None:
                    raise CodecError(f"unknown field tag {tag}")
                offset += 6
            else:
                head = offset + 2 + view[offset + 1]
                if head + 5 > size:
                    raise CodecError("truncated field name")
                name = str(view[offset + 2:head], "utf-8")
                if name in _FIELD_TAGS:
                    raise CodecError(f"well-known field {name!r} spelled out under tag 0")
                if name in reserved:
                    raise CodecError(f"header field {name!r} sent as a field entry")
                type_code, length = _INLINE_HEAD(view, head)
                offset = head + 5
            end = offset + length
            if end > size:
                raise CodecError("field value runs past the frame")
            raw = view[offset:end]
            if type_code == _TYPE_BYTES:
                value: Any = raw  # zero-copy slice; bytes() only at the crypto boundary
            elif type_code == _TYPE_STR:
                value = str(raw, "utf-8")
            elif type_code == _TYPE_JSON:
                value = _parse_json(str(raw, "utf-8"))
            else:
                raise CodecError(f"unknown field type {type_code}")
            fields[name] = value
            offset = end
    except CodecError:
        raise
    except (UnicodeDecodeError, ValueError) as exc:
        raise CodecError(f"malformed field payload: {exc}") from exc
    if len(fields) != count:
        raise CodecError("duplicate field entry")
    return fields, offset


def _check_frame(data: Any, word: int) -> memoryview:
    """Validate the length prefix + common header; return the frame view.

    *word* is the magic + version + kind the caller expects
    (``_REQ_WORD`` / ``_RESP_WORD``).
    """
    if type(data) is memoryview:
        view = data
    elif isinstance(data, bytearray):
        view = memoryview(bytes(data))
    else:
        view = memoryview(data)
    total = len(view)
    if total < 8:
        if total < 4:
            raise CodecError("frame shorter than its length prefix")
        raise CodecError("bad frame magic")
    length, found = _FRAME_HEAD(view)
    if length == total - 4 and found == word:
        return view[4:]
    # The head is wrong; the rest of this function only says how.
    if length != total - 4:
        raise CodecError(
            f"frame length mismatch: prefix says {length}, got {total - 4}"
        )
    if view[4] != _MAGIC0 or view[5] != _MAGIC1:
        raise CodecError("bad frame magic")
    if view[6] != _VERSION:
        raise CodecError(f"unsupported frame version {view[6]}")
    raise CodecError(f"unexpected frame kind {view[7]}")


class BinaryCodec(WireCodec):
    """Length-prefixed binary frames, decoded by memoryview slicing.

    Ciphertext fields travel as raw bytes (4/3 smaller than base64),
    the fixed-width deadline/epoch/trace fields live at fixed header
    offsets, and decoding slices the frame without building an
    intermediate dict-of-text: bytes-typed values come back as
    ``memoryview`` windows into the received buffer and are only
    materialized by :meth:`blob_value` at the crypto boundary.
    """

    name = "binary"
    # Binary frames are self-describing (verb in-band), so they can
    # ride inside one sealed envelope per shuffle flush.
    batch_envelopes = True

    def wire_value(self, blob: bytes) -> bytes:
        return bytes(blob)

    def blob_value(self, value: Any) -> bytes:
        return EnvelopeCodec.wire_blob(value)

    def pack_envelope(self, fields: Dict[str, Any], response_key: bytes) -> bytes:
        entries, count = _encode_entries(fields)
        key = bytes(response_key)
        if len(key) > 255:
            raise CodecError("response key too long")
        return b"EV" + bytes([len(key)]) + key + bytes([count]) + entries

    def unpack_envelope(self, data: Any) -> Tuple[Dict[str, Any], bytes]:
        view = data if isinstance(data, memoryview) else memoryview(data)
        if len(view) < 4 or bytes(view[:2]) != b"EV":
            raise CodecError("not a binary envelope payload")
        key_length = view[2]
        key = bytes(view[3:3 + key_length])
        if len(key) != key_length:
            raise CodecError("truncated envelope response key")
        count = view[3 + key_length]
        fields, end = _decode_entries(view, 4 + key_length, count)
        if end != len(view):
            raise CodecError("trailing bytes after envelope fields")
        return fields, key

    def pack_response_fields(self, fields: Dict[str, Any]) -> bytes:
        entries, count = _encode_entries(fields)
        return b"RF" + bytes([count]) + entries

    def unpack_response_fields(self, data: Any) -> Dict[str, Any]:
        view = data if isinstance(data, memoryview) else memoryview(data)
        if len(view) < 3 or bytes(view[:2]) != b"RF":
            raise CodecError("not a binary response payload")
        fields, end = _decode_entries(view, 3, view[2])
        if end != len(view):
            raise CodecError("trailing bytes after response fields")
        return fields

    def pack_items(self, blobs: Sequence[Any]) -> bytes:
        parts = [blob if type(blob) is bytes else bytes(blob) for blob in blobs]
        for raw in parts:
            if len(raw) != FIXED_ID_BYTES:
                raise CodecError(
                    f"item blob must be {FIXED_ID_BYTES} bytes, got {len(raw)}"
                )
        return b"".join(parts)

    def unpack_items(self, data: Any) -> List[memoryview]:
        view = data if type(data) is memoryview else memoryview(data)
        size = len(view)
        width = FIXED_ID_BYTES
        if size % width:
            raise CodecError("item payload is not a whole number of identifiers")
        return [view[i:i + width] for i in range(0, size, width)]

    def encode_request(self, request: Request) -> bytes:
        fields = request.fields
        verb_code = _VERB_CODES.get(request.verb)
        if verb_code is None:
            raise CodecError(f"unknown verb {request.verb!r}")
        if _HEADER_NAMES.isdisjoint(fields):
            entries, count = _encode_entries(fields)
            flags, header = 0, _NO_HEADER
        else:
            entries, count = _encode_entries(fields, skip=_HEADER_NAMES)
            flags, regions = 0, []
            for name, width, flag, _ in HEADER_FIELDS:
                value = fields.get(name)
                if value is None:
                    regions.append(bytes(width))
                elif isinstance(value, str) and len(value) == width:
                    flags |= flag
                    regions.append(value.encode("ascii"))
                else:
                    raise CodecError(f"{name} field is not {width} ASCII chars: {value!r}")
            header = b"".join(regions)
        return b"".join((
            (_REQ_HEADER_SIZE + len(entries)).to_bytes(4, "big"),
            _REQ_PREFIX,
            _VERB_FLAG_BYTES[verb_code, flags],
            header,
            _ONE_BYTE[count],
            entries,
        ))

    def decode_request(self, data: Any, *, verb: Optional[str] = None,
                       request_id: int = 0, client_address: str = "") -> Request:
        frame = _check_frame(data, _REQ_WORD)
        if len(frame) < _REQ_HEADER_SIZE:
            raise CodecError("request frame shorter than its header")
        wire_verb = _VERB_NAMES.get(frame[_REQ_VERB_OFFSET])
        if wire_verb is None:
            raise CodecError(f"unknown verb code {frame[_REQ_VERB_OFFSET]}")
        flags = frame[_REQ_FLAGS_OFFSET]
        fields, end = _decode_entries(frame, _REQ_HEADER_SIZE,
                                      frame[_REQ_COUNT_OFFSET], _HEADER_NAMES)
        if end != len(frame):
            raise CodecError("trailing bytes after request fields")
        if flags:
            try:
                for name, width, flag, offset in HEADER_FIELDS:
                    if flags & flag:
                        fields[name] = str(frame[offset:offset + width], "ascii")
            except UnicodeDecodeError as exc:
                raise CodecError(f"non-ASCII bytes in fixed header field: {exc}") from exc
        return Request(verb=wire_verb, fields=fields, request_id=request_id,
                       client_address=client_address)

    def encode_response(self, response: Response) -> bytes:
        entries, count = _encode_entries(response.fields)
        status = response.status
        if not 0 <= status <= 0xFFFF:
            raise CodecError(f"status out of range: {status}")
        return b"".join((
            (_RESP_HEADER_SIZE + len(entries)).to_bytes(4, "big"),
            _RESP_PREFIX,
            status.to_bytes(2, "big"),
            _ONE_BYTE[count],
            entries,
        ))

    def decode_response(self, data: Any, *, status: int = 200,
                        request_id: int = 0) -> Response:
        frame = _check_frame(data, _RESP_WORD)
        if len(frame) < _RESP_HEADER_SIZE:
            raise CodecError("response frame shorter than its header")
        wire_status = int.from_bytes(
            frame[_RESP_STATUS_OFFSET:_RESP_STATUS_OFFSET + 2], "big")
        fields, end = _decode_entries(frame, _RESP_HEADER_SIZE,
                                      frame[_RESP_COUNT_OFFSET])
        if end != len(frame):
            raise CodecError("trailing bytes after response fields")
        return Response(status=wire_status, fields=fields, request_id=request_id)

    def request_wire_size(self, body: bytes) -> int:
        return len(body)

    def response_wire_size(self, body: bytes) -> int:
        return len(body)


#: Module singletons — resolve_codec returns these for the string names.
JSON_WIRE_CODEC = JsonCodec()
BINARY_WIRE_CODEC = BinaryCodec()


def resolve_codec(codec: Union[str, WireCodec]) -> WireCodec:
    """Normalize a codec argument: a name or an instance, nothing else."""
    if isinstance(codec, str):
        if codec == "json":
            return JSON_WIRE_CODEC
        if codec == "binary":
            return BINARY_WIRE_CODEC
        raise ValueError(f"unknown codec name {codec!r} (expected 'json' or 'binary')")
    if isinstance(codec, WireCodec):
        return codec
    raise TypeError(f"codec must be a name or a WireCodec, got {type(codec)!r}")


class WireFrame:
    """One encoded message in flight on a protected hop.

    Wiretap auditors observe this object, so it mirrors the message
    surface they duck-type against (``fields``, ``status``, ``ok``) by
    decoding lazily — the adversary reads bodies, and what it reads is
    what was actually framed.  ``request_id`` stays out-of-band
    simulator bookkeeping exactly as on :class:`Request`.
    """

    __slots__ = ("codec", "data", "kind", "verb", "status",
                 "request_id", "client_address", "_decoded")

    def __init__(self, codec: WireCodec, data: bytes, kind: str,
                 verb: Optional[str], status: Optional[int],
                 request_id: int, client_address: str) -> None:
        self.codec = codec
        self.data = data
        self.kind = kind
        self.verb = verb
        self.status = status
        self.request_id = request_id
        self.client_address = client_address
        self._decoded: Any = None

    @classmethod
    def for_message(cls, codec: WireCodec,
                    message: Union[Request, Response]) -> "WireFrame":
        """Frame *message* under *codec*: forward its bytes, or encode.

        A message that still carries ``arrived_as`` is the message that
        was parsed from those bytes (every rewrite drops the field, see
        :mod:`repro.rest.messages`); if they were framed by this very
        codec they *are* its encoding, and the hop sends them on as
        they came.  Anything else — built here, rewritten on the way,
        or received under another codec — is encoded.
        """
        arrived = message.arrived_as
        forward = arrived is not None and arrived[0] is codec
        if isinstance(message, Request):
            return cls(codec, arrived[1] if forward else codec.encode_request(message),
                       "request", message.verb, None, message.request_id,
                       message.client_address)
        return cls(codec, arrived[1] if forward else codec.encode_response(message),
                   "response", None, message.status, message.request_id, "")

    def decode(self) -> Union[Request, Response]:
        """Parse the frame back into a message (once per frame).

        The message remembers the bytes it came from (``arrived_as``),
        which is what lets the next hop forward them if it leaves the
        message alone.  Only this method attaches that field: a frame
        is always parsed and validated by whoever receives it, however
        it was produced.
        """
        message = self._decoded
        if message is None:
            if self.kind == "request":
                message = self.codec.decode_request(
                    self.data, verb=self.verb, request_id=self.request_id,
                    client_address=self.client_address)
            else:
                message = self.codec.decode_response(
                    self.data, status=self.status or 0,
                    request_id=self.request_id)
            object.__setattr__(message, "arrived_as", (self.codec, self.data))
            self._decoded = message
        return message

    @property
    def fields(self) -> Dict[str, Any]:
        """The decoded field dict (what a body-reading adversary sees)."""
        return self.decode().fields

    @property
    def ok(self) -> bool:
        """Response success flag; requests are trivially ok."""
        if self.status is None:
            return True
        return 200 <= self.status < 300

    def size_bytes(self) -> int:
        """Transport size under this frame's codec."""
        if self.kind == "request":
            return self.codec.request_wire_size(self.data)
        return self.codec.response_wire_size(self.data)


class BatchEnvelope:
    """One sealed shuffle batch on the UA->IA hop (batch-envelope mode).

    The adversary sees a single hybrid ciphertext for ``count``
    requests; request ids and verbs ride out-of-band exactly like
    ``Request.request_id`` (the wire carries only the blob).  It has
    neither ``fields`` nor ``status``, so wiretap auditors — which
    duck-type on those — correctly treat it as opaque ciphertext.
    """

    __slots__ = ("blob", "request_ids", "verbs", "source")

    def __init__(self, blob: bytes, request_ids: Sequence[int],
                 verbs: Sequence[str], source: str) -> None:
        self.blob = blob
        self.request_ids = tuple(request_ids)
        self.verbs = tuple(verbs)
        self.source = source

    @property
    def count(self) -> int:
        """Number of sealed requests."""
        return len(self.request_ids)

    def size_bytes(self) -> int:
        """Transport size: framing word + the sealed blob."""
        return 8 + len(self.blob)


def ship(network: Any, codec: WireCodec, source: str,
         destination: str, message: Union[Request, Response],
         on_deliver: Callable[[Any], None]) -> None:
    """Send *message* over a protected hop.

    The sender frames *message* — the bytes it arrived in when this
    hop left it untouched, a fresh encoding otherwise
    (:meth:`WireFrame.for_message`) — the wire carries a
    :class:`WireFrame` (observed as such by wiretaps, sized by its
    bytes), and the receiver parses it, always, before *on_deliver*
    sees a message.
    """
    frame = WireFrame.for_message(codec, message)
    network.send(source, destination, frame, frame.size_bytes(),
                 lambda delivered: on_deliver(delivered.decode()))
