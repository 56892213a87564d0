"""Fixed-width causal-trace wire field, severed at the shuffle boundary.

The trace id travels exactly one hop — client -> UA — as a top-level
(never sealed) field, mirroring the deadline budget
(:mod:`repro.overload.deadline`) and the key-epoch tag
(:mod:`repro.proxy.epochs`).  The UA strips it at the front door,
*before* admission control and shuffling, and it is never re-stamped:
a trace id that survived the shuffler would let the §2.3 adversary
link a specific client request to a specific post-shuffle batch entry,
collapsing the 1/(S*I) anonymity set to 1.  Severing is the design,
not a limitation; post-shuffle attribution happens at batch
granularity (:class:`repro.obs.causal.CausalTracer`).

Wire format: every id is exactly :data:`TRACE_WIDTH` characters —
``tw:`` followed by 13 lower-case hex digits of a tracer-local serial.
The value is identity-free and constant width, so the §4.3
constant-size property is preserved on the one hop that carries it.
The distinctive ``tw:`` prefix is what the redaction boundary and the
wire auditor key on (:func:`repro.privacy.wire.trace_field_exposures`).
"""

from __future__ import annotations

import re
from typing import Any, Optional, Union

from repro.rest.header import TRACE, stamp
from repro.rest.messages import Request

__all__ = [
    "TRACE_FIELD",
    "TRACE_PREFIX",
    "TRACE_WIDTH",
    "encode_trace_id",
    "looks_like_trace_id",
    "decode_trace",
    "stamp_trace",
]

#: Field name the trace id travels under (top level, never sealed).
TRACE_FIELD = TRACE.name

#: Marker prefix of every trace id; redaction/audit detection keys on it.
TRACE_PREFIX = "tw:"

#: Every encoded trace id is exactly this many characters.
TRACE_WIDTH = TRACE.width

_SERIAL_DIGITS = TRACE_WIDTH - len(TRACE_PREFIX)
_SERIAL_SPACE = 16 ** _SERIAL_DIGITS
# ASCII lower-case hex only: a literal class, not ``\d`` or ``str.isdigit``.
_WELL_FORMED = re.compile(re.escape(TRACE_PREFIX) + "[0-9a-f]{%d}" % _SERIAL_DIGITS)


def encode_trace_id(serial: int) -> str:
    """Fixed-width encoding of a tracer-local serial number."""
    if serial < 0:
        raise ValueError(f"trace serial must be non-negative, got {serial}")
    return TRACE_PREFIX + format(serial % _SERIAL_SPACE, f"0{_SERIAL_DIGITS}x")


def looks_like_trace_id(value: Any) -> bool:
    """True when *value* is a well-formed encoded trace id."""
    return isinstance(value, str) and _WELL_FORMED.fullmatch(value) is not None


def decode_trace(message: Union[Request, dict]) -> Optional[str]:
    """Trace id carried by *message*, or None when absent/malformed."""
    fields = message if isinstance(message, dict) else message.fields
    encoded = fields.get(TRACE_FIELD)
    if encoded is None or not looks_like_trace_id(encoded):
        return None
    return encoded


def stamp_trace(request: Request, trace_id: str) -> Request:
    """Copy of *request* carrying *trace_id* on the wire."""
    if not looks_like_trace_id(trace_id):
        raise ValueError(f"malformed trace id: {trace_id!r}")
    return stamp(request, TRACE, trace_id)
