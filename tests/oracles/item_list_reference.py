"""The recommendation-list path as it stood before it became one buffer.

A reference tests compare the product against, not product code.  The
IA decoded every de-pseudonymized identifier to a ``str``, padded the
string list with :func:`repro.crypto.envelope.pad_item_list` and
fixed-size encoded all twenty strings again; the JSON wire base64-coded
the list one entry at a time and the client decoded it one entry at a
time.  ``b64decode(validate=True)`` was the one base64 decoder, and
:func:`seed_decode_identifier` checked the zero tail one byte at a
time.  Slow and obviously right.  ``benchmarks/run_wire_bench.py``
times :func:`seed_json_pack_items` / :func:`seed_json_unpack_items` as
the denominator of its item-payload floors.
"""

from __future__ import annotations

import base64
import json
from typing import Any, Callable, List, Optional, Sequence

from repro.crypto.envelope import (
    FIXED_ID_BYTES,
    MAX_RECOMMENDATIONS,
    PaddingError,
    encode_identifier,
    pad_item_list,
)
from repro.proxy.protocol import IaRequestContext
from repro.rest.codec import JSON_WIRE_CODEC, CodecError, WireCodec, _as_text, _parse_json
from repro.rest.messages import Response, Verb

__all__ = [
    "seed_unb64",
    "seed_wire_blob",
    "seed_decode_identifier",
    "seed_decode_identifiers",
    "seed_json_pack_items",
    "seed_json_unpack_items",
    "seed_binary_pack_items",
    "seed_ia_transform_response",
]


def seed_unb64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"), validate=True)


def _seed_wire_text(blob: bytes) -> str:
    return base64.b64encode(bytes(blob)).decode("ascii")


def seed_wire_blob(text: Any) -> bytes:
    if isinstance(text, (bytes, bytearray, memoryview)):
        return bytes(text)
    return seed_unb64(text)


def seed_decode_identifier(blob: bytes) -> str:
    if len(blob) != FIXED_ID_BYTES:
        raise PaddingError(
            f"encoded identifier must be {FIXED_ID_BYTES} bytes, got {len(blob)}"
        )
    length = int.from_bytes(blob[:2], "big")
    if length > FIXED_ID_BYTES - 2:
        raise PaddingError("corrupt identifier length prefix")
    if any(blob[2 + length:]):
        raise PaddingError("nonzero bytes in identifier padding")
    return blob[2:2 + length].decode("utf-8")


def seed_decode_identifiers(blobs: Sequence[Any]) -> List[str]:
    return [
        seed_decode_identifier(blob if isinstance(blob, bytes) else bytes(blob))
        for blob in blobs
    ]


def _seed_encode_identifiers(identifiers: Sequence[str]) -> List[bytes]:
    return [encode_identifier(identifier) for identifier in identifiers]


def seed_json_pack_items(blobs: Sequence[Any]) -> bytes:
    wire_items = [_seed_wire_text(bytes(blob)) for blob in blobs]
    return json.dumps(wire_items).encode("utf-8")


def seed_json_unpack_items(data: Any) -> List[bytes]:
    entries = _parse_json(_as_text(data))
    if not isinstance(entries, list):
        raise CodecError("item payload is not a list")
    return [seed_wire_blob(entry) for entry in entries]


def seed_binary_pack_items(blobs: Sequence[Any]) -> bytes:
    parts = [blob if type(blob) is bytes else bytes(blob) for blob in blobs]
    for raw in parts:
        if len(raw) != FIXED_ID_BYTES:
            raise CodecError(
                f"item blob must be {FIXED_ID_BYTES} bytes, got {len(raw)}"
            )
    return b"".join(parts)


def seed_ia_transform_response(
    provider: Any,
    keys: Any,
    config: Any,
    context: IaRequestContext,
    response: Response,
    *,
    previous: Optional[Any] = None,
    on_previous_use: Optional[Callable[[], None]] = None,
    codec: WireCodec = JSON_WIRE_CODEC,
) -> Response:
    """``ia_transform_response``: decode, pad, encode again, pack."""
    pack_items = seed_json_pack_items if codec.name == "json" else seed_binary_pack_items
    if context.verb == Verb.POST and response.ok:
        return Response(status=response.status, fields={}, request_id=response.request_id)
    if not config.encryption or context.verb == Verb.POST or not response.ok:
        return response
    raw_items = response.fields.get("items", [])
    if config.item_pseudonymization and previous is not None:
        cleartext = []
        fell_back = False
        for item in raw_items:
            pseudonym = seed_wire_blob(item)
            try:
                cleartext.append(
                    seed_decode_identifier(
                        provider.depseudonymize(keys.symmetric_key, pseudonym)
                    )
                )
            except Exception:
                cleartext.append(
                    seed_decode_identifier(
                        provider.depseudonymize(previous.symmetric_key, pseudonym)
                    )
                )
                fell_back = True
        if fell_back and on_previous_use is not None:
            on_previous_use()
    elif config.item_pseudonymization:
        pseudonyms = [seed_wire_blob(item) for item in raw_items]
        cleartext = [
            seed_decode_identifier(identifier)
            for identifier in provider.depseudonymize_many(keys.symmetric_key, pseudonyms)
        ]
    else:
        cleartext = list(raw_items)
    padded = pad_item_list(cleartext[:MAX_RECOMMENDATIONS])
    blob = provider.sym_encrypt(
        context.temporary_key,
        pack_items(_seed_encode_identifiers(padded)),
    )
    return Response(
        status=response.status,
        fields={"blob": _seed_wire_text(blob) if codec.name == "json" else blob},
        request_id=response.request_id,
    )
