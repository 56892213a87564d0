"""Privacy-preserving load shedding: the uniform padded reject.

Shedding decisions must themselves be privacy-safe (§4.3 extended):
a rejection observable by one proxy layer — or by the adversary on
the client<->UA or UA<->IA wire — must not reveal *why* the request
died, because cause strings correlate with system state the other
layer is not supposed to learn (a UA observing "deadline expired at
IA" learns the IA's queueing state for a request whose user it
knows).  Every reject emitted by the proxy layers is therefore the
*same* constant-size message: fixed status, fixed error token, fixed
padding, no cause, no identifiers.  The cause is recorded only in the
shedding instance's local counters (``pprox_shed_total{stage,reason}``)
behind the role-aware redaction boundary.
"""

from __future__ import annotations

from repro.rest.messages import Response

__all__ = [
    "RETRYABLE_STATUS",
    "REJECT_CODE",
    "REJECT_BODY_BYTES",
    "uniform_reject",
    "is_uniform_reject",
    "is_retryable",
    "STAGE_ADMISSION",
    "STAGE_QUEUE",
    "STAGE_DEADLINE",
    "STAGE_UPSTREAM",
    "STAGE_TRANSFORM",
    "STAGE_LRS_GUARD",
    "SHED_STAGES",
]

#: The one status of a retryable failure: the uniform reject's (every
#: shed, transform error and no-upstream case) and a brownout LRS's.
#: Clients treat it like a timeout: back off, retry under a fresh id.
RETRYABLE_STATUS = 503

#: The only error token that ever crosses a protected hop.
REJECT_CODE = "unavailable"

#: Serialized body size every reject is padded to.
REJECT_BODY_BYTES = 128

#: Shed-stage labels for ``pprox_shed_total{stage,reason}``.
STAGE_ADMISSION = "admission"
STAGE_QUEUE = "queue"
STAGE_DEADLINE = "deadline"
STAGE_UPSTREAM = "upstream"
STAGE_TRANSFORM = "transform"
STAGE_LRS_GUARD = "lrs_guard"
SHED_STAGES = (
    STAGE_ADMISSION,
    STAGE_QUEUE,
    STAGE_DEADLINE,
    STAGE_UPSTREAM,
    STAGE_TRANSFORM,
    STAGE_LRS_GUARD,
)


def _padded_fields() -> dict:
    """The canonical reject body, padded to :data:`REJECT_BODY_BYTES`."""
    base = {"retryable": True, "error": REJECT_CODE, "pad": ""}
    unpadded = Response(status=RETRYABLE_STATUS, fields=base).body_json()
    pad_length = max(0, REJECT_BODY_BYTES - len(unpadded.encode("utf-8")))
    return {"retryable": True, "error": REJECT_CODE, "pad": "x" * pad_length}


_REJECT_FIELDS = _padded_fields()


def uniform_reject(request_id: int) -> Response:
    """The one reject message: identical bytes for every cause."""
    return Response(
        status=RETRYABLE_STATUS, fields=dict(_REJECT_FIELDS), request_id=request_id
    )


def is_uniform_reject(response: Response) -> bool:
    """True when *response* is byte-for-byte the canonical reject."""
    return response.status == RETRYABLE_STATUS and response.fields == _REJECT_FIELDS


def is_retryable(response: Response) -> bool:
    """True when *response* is a failure worth retrying: the retryable
    status, or an error body flagged ``retryable``."""
    return not response.ok and (
        response.status == RETRYABLE_STATUS or bool(response.fields.get("retryable"))
    )


