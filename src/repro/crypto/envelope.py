"""Wire encodings: fixed-size identifiers and padded payloads.

Section 4.3 of the paper requires that "the size of all encrypted
messages is constant, by using fixed-size user and item identifiers,
and padding when necessary", and that recommendation lists have a
maximal size (20 in the paper's implementation) with pseudo-item
padding entries that the user-side library discards.  This module
implements both encodings, plus the base64 helpers the JSON wire
format needs (paper §5: "the encrypted content is handled and stored
in the base64 format") — the repository's one base64 implementation.
"""

from __future__ import annotations

import base64
import binascii
import functools
import struct
from typing import Any, List, Sequence

__all__ = [
    "FIXED_ID_BYTES",
    "MAX_RECOMMENDATIONS",
    "EnvelopeCodec",
    "PaddingError",
    "encode_identifier",
    "decode_identifier",
    "is_padding_item",
    "pad_encoded_items",
    "pad_item_list",
    "strip_padding_items",
]

# Fixed on-the-wire size of an encoded user or item identifier.  Large
# enough for realistic catalog identifiers, small enough for a 1024-bit
# key's OAEP (62 bytes) to carry one directly, with no hybrid envelope.
FIXED_ID_BYTES = 48

# Maximal size of a recommendation list; shorter lists are padded with
# pseudo-items (paper §4.3 uses the same constant).
MAX_RECOMMENDATIONS = 20

# Marker prefix for padding pseudo-items.  Real identifiers are padded
# with a length prefix, so no real identifier can collide with this.
_PAD_SENTINEL = "\x00pprox-pad:"


class PaddingError(ValueError):
    """Raised when an identifier does not fit the fixed-size encoding."""


def encode_identifier(identifier: str) -> bytes:
    """Encode *identifier* into exactly :data:`FIXED_ID_BYTES` bytes.

    Layout: 2-byte big-endian length, UTF-8 bytes, zero padding.
    """
    raw = identifier.encode("utf-8")
    if len(raw) > FIXED_ID_BYTES - 2:
        raise PaddingError(
            f"identifier too long for fixed-size encoding:"
            f" {len(raw)} > {FIXED_ID_BYTES - 2} bytes"
        )
    return len(raw).to_bytes(2, "big") + raw + bytes(FIXED_ID_BYTES - 2 - len(raw))


_ZERO_TAIL = bytes(FIXED_ID_BYTES - 2)


def decode_identifier(blob: bytes) -> str:
    """Invert :func:`encode_identifier`.

    ``encode_identifier(decode_identifier(blob)) == blob`` for every
    *blob* this accepts, so a caller that only needs the check may keep
    the bytes it already holds.
    """
    if len(blob) != FIXED_ID_BYTES:
        raise PaddingError(
            f"encoded identifier must be {FIXED_ID_BYTES} bytes, got {len(blob)}"
        )
    length = (blob[0] << 8) | blob[1]
    if length > FIXED_ID_BYTES - 2:
        raise PaddingError("corrupt identifier length prefix")
    if blob[2 + length:] != _ZERO_TAIL[length:]:
        raise PaddingError("nonzero bytes in identifier padding")
    return blob[2:2 + length].decode("utf-8")


def pad_item_list(items: Sequence[str], size: int = MAX_RECOMMENDATIONS) -> List[str]:
    """Pad *items* with pseudo-items up to *size* entries.

    The padding entries are deterministic in position only; their
    content is a sentinel the user-side library recognises and drops.
    """
    if len(items) > size:
        raise PaddingError(f"item list longer than padded size: {len(items)} > {size}")
    padded = list(items)
    for index in range(size - len(items)):
        padded.append(f"{_PAD_SENTINEL}{index}")
    return padded


#: The pseudo-items of :func:`pad_item_list`, fixed-size encoded once.
_PADDING_BLOBS = tuple(encode_identifier(item) for item in pad_item_list([]))


def pad_encoded_items(blobs: Sequence[bytes]) -> List[bytes]:
    """:func:`pad_item_list` for identifiers already fixed-size encoded.

    ``pad_encoded_items(encode_identifiers(items))`` equals
    ``encode_identifiers(pad_item_list(items))``: the padding entries
    were encoded once, at import.
    """
    if len(blobs) > MAX_RECOMMENDATIONS:
        raise PaddingError(
            f"item list longer than padded size: {len(blobs)} > {MAX_RECOMMENDATIONS}"
        )
    return [*blobs, *_PADDING_BLOBS[:MAX_RECOMMENDATIONS - len(blobs)]]


def strip_padding_items(items: Sequence[str]) -> List[str]:
    """Remove pseudo-items inserted by :func:`pad_item_list`."""
    return [item for item in items if not item.startswith(_PAD_SENTINEL)]


def is_padding_item(item: str) -> bool:
    """True when *item* is a padding pseudo-item."""
    return item.startswith(_PAD_SENTINEL)


#: Base64 of a bytes-like value as ASCII bytes, no newline: the one
#: encoder.
_b64_bytes = functools.partial(binascii.b2a_base64, newline=False)

#: Characters of the base64 text of one fixed-size identifier: 16 whole
#: groups, no ``=``.
_ENTRY_CHARS = FIXED_ID_BYTES // 3 * 4
_ENTRY_LENGTH = frozenset({_ENTRY_CHARS})
_TEXT = frozenset({str})


def _cut(data: bytes, width: int) -> List[bytes]:
    """*data*, whose length is a multiple of *width*, as consecutive
    *width*-byte pieces, cut in one C call."""
    return list(struct.unpack(f"{width}s" * (len(data) // width), data))


def _b64(data: bytes) -> str:
    """Base64-encode *data* for embedding in a JSON payload."""
    return _b64_bytes(data).decode("ascii")


def _unb64(text: str) -> bytes:
    """Invert :func:`_b64`: the one decoder.

    ``base64.b64decode(validate=True)``, given the text itself: which
    malformed texts it refuses (``ValueError``) depends on the Python
    version — 3.10 matches a regex and then decodes leniently, 3.11+
    decodes in strict mode — so the decoder stays that call and its
    verdicts stay the seed's on every version.
    """
    return base64.b64decode(text, validate=True)


class EnvelopeCodec:
    """Batch-first envelope crypto over a :class:`CryptoProvider`.

    The seed sealed one hybrid RSA-OAEP envelope *per request*; at a
    shuffle batch of ``S`` requests that is ``S`` asymmetric
    operations per flush.  :meth:`seal_batch` concatenates the batch
    into one length-prefixed buffer and seals it once — one OAEP
    operation plus a single OpenSSL AES-CTR pass over the whole buffer.
    :meth:`open_batch` inverts it with one asymmetric decryption and
    returns zero-copy ``memoryview`` slices of the plaintext.

    :meth:`seal_each` / :meth:`open_each` are the per-request
    reference used by the wire bench to measure the amortization.
    """

    name = "envelope"

    def __init__(self, provider: Any) -> None:
        self.provider = provider

    # -- wire text representation --------------------------------------

    @staticmethod
    def wire_text(blob: bytes) -> str:
        """Canonical text form of a binary blob (base64, paper §5)."""
        return _b64(blob)

    @staticmethod
    def wire_blob(text: Any) -> bytes:
        """Invert :meth:`wire_text`; bytes-like values pass through."""
        if isinstance(text, (bytes, bytearray, memoryview)):
            return bytes(text)
        return _unb64(text)

    @staticmethod
    def wire_text_entries(blobs: Sequence[Any]) -> List[bytes]:
        """:meth:`wire_text` of every fixed-size identifier of a list, as
        ASCII bytes, in one base64 pass.

        An identifier is 48 bytes, 16 whole base64 groups, so the text
        of the joined list is the entries' texts back to back, 64
        characters each.
        """
        return _cut(_b64_bytes(b"".join(blobs)), _ENTRY_CHARS)

    @staticmethod
    def wire_blob_entries(values: Sequence[Any]) -> List[bytes]:
        """:meth:`wire_blob` of every value of a list.

        A list of 64-character texts without ``=`` — the text of 48-byte
        blobs, as every item list a layer writes — is decoded in one
        :func:`_unb64` pass and cut into 48-byte pieces: each entry is 16
        whole base64 groups, so the joined text decodes to the entries'
        bytes back to back, and is refused exactly when one entry would
        be.  Any other list goes entry by entry, so each verdict is
        :meth:`wire_blob`'s own (``=`` after a complete group is one case
        where that verdict depends on the Python version).
        """
        if set(map(type, values)) <= _TEXT and set(map(len, values)) <= _ENTRY_LENGTH:
            text = "".join(values)
            if "=" not in text:
                return _cut(_unb64(text), FIXED_ID_BYTES)
        return [EnvelopeCodec.wire_blob(value) for value in values]

    # -- batched identifier encoding ----------------------------------

    @staticmethod
    def encode_identifiers(identifiers: Sequence[str]) -> List[bytes]:
        """Fixed-size encode a whole item list in one call."""
        return [encode_identifier(identifier) for identifier in identifiers]

    @staticmethod
    def decode_identifiers(blobs: Sequence[Any]) -> List[str]:
        """Invert :meth:`encode_identifiers` (accepts memoryviews)."""
        return [
            decode_identifier(blob if isinstance(blob, bytes) else bytes(blob))
            for blob in blobs
        ]

    # -- batch framing -------------------------------------------------

    @staticmethod
    def pack_frames(frames: Sequence[Any]) -> bytes:
        """Concatenate *frames* into one length-prefixed buffer."""
        parts = [len(frames).to_bytes(4, "big")]
        for frame in frames:
            raw = bytes(frame)
            parts.append(len(raw).to_bytes(4, "big"))
            parts.append(raw)
        return b"".join(parts)

    @staticmethod
    def unpack_frames(data: Any) -> List[memoryview]:
        """Split a packed buffer into zero-copy frame views."""
        view = memoryview(data) if not isinstance(data, memoryview) else data
        if len(view) < 4:
            raise PaddingError("batch buffer shorter than its count prefix")
        count = int.from_bytes(view[:4], "big")
        frames: List[memoryview] = []
        offset = 4
        for _ in range(count):
            if offset + 4 > len(view):
                raise PaddingError("truncated batch frame length")
            length = int.from_bytes(view[offset:offset + 4], "big")
            offset += 4
            if offset + length > len(view):
                raise PaddingError("truncated batch frame body")
            frames.append(view[offset:offset + length])
            offset += length
        if offset != len(view):
            raise PaddingError("trailing bytes after final batch frame")
        return frames

    # -- batch envelopes -----------------------------------------------

    def seal_batch(self, public: Any, frames: Sequence[Any]) -> bytes:
        """One hybrid envelope for a whole shuffle batch."""
        return self.provider.asym_encrypt(public, self.pack_frames(frames))

    def open_batch(self, keys: Any, blob: Any) -> List[memoryview]:
        """Invert :meth:`seal_batch`; one asymmetric op per batch."""
        return self.unpack_frames(self.provider.asym_decrypt(keys, bytes(blob)))

    # -- per-request reference (what the batch API amortizes) ----------

    def seal_each(self, public: Any, frames: Sequence[Any]) -> List[bytes]:
        """Seed behaviour: one envelope per request."""
        return [self.provider.asym_encrypt(public, bytes(frame)) for frame in frames]

    def open_each(self, keys: Any, blobs: Sequence[Any]) -> List[bytes]:
        """Invert :meth:`seal_each`."""
        return [self.provider.asym_decrypt(keys, bytes(blob)) for blob in blobs]
