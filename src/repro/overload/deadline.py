"""Per-request deadline budgets, hop by hop (client -> UA -> IA -> LRS).

The client stamps each attempt with its *remaining* budget; every hop
charges the time the request spent under its roof (queueing + service)
before re-stamping the forwarded message.  A hop that reads a spent
budget sheds the request *before* paying enclave entry-cost for it —
the client has already timed out, so the work would be pure waste heat.

Wire format: the budget travels as a fixed-width 12-character decimal
field (``000001.234567``) *outside* the sealed envelope.  It must be
outside: the UA has to read it before the enclave transition it exists
to avoid, and in hardened-hop mode the sealed inner fields are opened
only inside the enclave.  The value is identity-free and constant
width, so the §4.3 constant-size property is preserved — every request
from a deadline-enabled client carries exactly 12 budget characters.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.rest.header import DEADLINE, stamp
from repro.rest.messages import Request

__all__ = [
    "DEADLINE_FIELD",
    "DEADLINE_WIDTH",
    "MAX_DEADLINE",
    "encode_deadline",
    "decode_deadline",
    "stamp_deadline",
    "charge",
]

#: Field name the budget travels under (top level, never sealed).
DEADLINE_FIELD = DEADLINE.name

#: Every encoded budget is exactly this many characters.
DEADLINE_WIDTH = DEADLINE.width

#: Largest encodable budget (seconds); larger values are clamped.
MAX_DEADLINE = 99999.999999


def encode_deadline(remaining: float) -> str:
    """Fixed-width encoding of a remaining budget in seconds."""
    clamped = min(max(remaining, 0.0), MAX_DEADLINE)
    return format(clamped, f"0{DEADLINE_WIDTH}.6f")


def decode_deadline(message: Union[Request, dict]) -> Optional[float]:
    """Remaining budget carried by *message*, or None when absent."""
    fields = message if isinstance(message, dict) else message.fields
    encoded = fields.get(DEADLINE_FIELD)
    if encoded is None:
        return None
    try:
        return float(encoded)
    except (TypeError, ValueError):
        return None


def stamp_deadline(request: Request, remaining: Optional[float]) -> Request:
    """Copy of *request* carrying *remaining* (or unchanged for None)."""
    if remaining is None:
        return request
    return stamp(request, DEADLINE, encode_deadline(remaining))


def charge(remaining: Optional[float], elapsed: float) -> Optional[float]:
    """Decrement a budget by *elapsed* seconds spent at this hop."""
    if remaining is None:
        return None
    return remaining - max(0.0, elapsed)
