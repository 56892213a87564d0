"""The fixed-width request header: the one statement of its layout.

Three top-level, never-sealed request fields ride outside the
encrypted body because a hop must read them before it pays for an
enclave transition.  Each is a fixed-width ASCII string, so a request
that carries one is the same size whatever the value (§4.3).  What a
*value* looks like belongs to the field's owner — the ``deadline``
budget to :mod:`repro.overload.deadline`, the ``kepoch`` tag to
:mod:`repro.proxy.epochs`, the ``trace`` id to
:mod:`repro.obs.tracewire`; where it sits on the wire is
:data:`HEADER_FIELDS`, read by :class:`repro.rest.codec.BinaryCodec`
(on the JSON wire the same names are ordinary body keys).
:func:`stamp` and :func:`strip` are the only code that puts a header
field on a request or takes one off, so "the UA severs ``kepoch`` and
``trace`` before the shuffle" is a statement about ``frame[18:38]``.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from repro.rest.messages import Request

__all__ = ["HeaderField", "HEADER_FIELDS", "HEADER_END", "DEADLINE", "EPOCH", "TRACE",
           "stamp", "strip"]


class HeaderField(NamedTuple):
    """One region of a binary request frame (offsets are relative to
    the frame, after its 4-byte length prefix)."""

    name: str
    #: ASCII characters, exactly; an absent field is *width* zero bytes.
    width: int
    #: Bit of the flags byte (``frame[5]``) that says the region is filled.
    flag: int
    offset: int

    @property
    def end(self) -> int:
        """One past the region's last byte."""
        return self.offset + self.width


DEADLINE = HeaderField("deadline", width=12, flag=1, offset=6)
EPOCH = HeaderField("kepoch", width=4, flag=2, offset=18)
TRACE = HeaderField("trace", width=16, flag=4, offset=22)
HEADER_FIELDS = (DEADLINE, EPOCH, TRACE)
#: One past the last region: where the field count sits.
HEADER_END = TRACE.end


def stamp(request: Request, spec: HeaderField, value: str) -> Request:
    """Copy of *request* carrying *value* (its owner's encoding, which
    must fill the region exactly, on either wire) under *spec*."""
    if len(value) != spec.width:
        raise ValueError(f"{spec.name} is not {spec.width} characters: {value!r}")
    return request.with_fields(**{spec.name: value})


def strip(request: Request, *fields: HeaderField) -> Tuple[Request, Dict[str, str]]:
    """Sever *fields* from *request* in one copy.

    Returns ``(bare request, {name: value it carried})``.  A request
    carrying none of them comes back as the same object, so a hop that
    severed nothing still forwards the bytes it received.
    """
    carried = request.fields
    severed = {spec.name: carried[spec.name] for spec in fields if spec.name in carried}
    if not severed:
        return request, severed
    return request.with_fields(**dict.fromkeys(severed)), severed
