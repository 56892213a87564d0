"""Overload protection: bounded queues, admission control, deadlines.

PProx's headline claim is SLA-grade latency under heavy load; this
package is the graceful-degradation machinery that keeps the claim
honest past saturation.  Four cooperating mechanisms:

* bounded ingress queues with pluggable shed policies
  (:mod:`repro.simnet.queueing`);
* per-request deadline budgets decremented at each hop, with expired
  requests shed before enclave entry-cost is paid
  (:mod:`repro.overload.deadline`);
* a circuit breaker + AIMD concurrency limiter guarding the IA->LRS
  edge (:mod:`repro.overload.breaker`, :mod:`repro.overload.guard`);
* admission control at the proxy front door driven by
  :class:`~repro.overload.admission.OverloadSignal`
  (:mod:`repro.overload.admission`).

The privacy invariant threading through all of it: sheds happen
*pre-shuffle only* (a batch is never flushed below ``S`` and nothing
is selectively dropped post-shuffle, so the ``1/(S*I)`` anonymity
bound holds through an overload episode) and every reject is the
uniform padded message of :mod:`repro.overload.shedding`, so shedding
is unobservable to the other layer and to the wire adversary.
"""

from repro.overload.admission import AdmissionController, OverloadSignal
from repro.overload.breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    AimdLimiter,
    CircuitBreaker,
)
from repro.overload.deadline import (
    DEADLINE_FIELD,
    DEADLINE_WIDTH,
    MAX_DEADLINE,
    charge,
    decode_deadline,
    encode_deadline,
    stamp_deadline,
)
from repro.overload.guard import GuardedLrs
from repro.overload.policy import OverloadPolicy
from repro.overload.shedding import (
    REJECT_BODY_BYTES,
    REJECT_CODE,
    RETRYABLE_STATUS,
    SHED_STAGES,
    STAGE_ADMISSION,
    STAGE_DEADLINE,
    STAGE_LRS_GUARD,
    STAGE_QUEUE,
    STAGE_TRANSFORM,
    STAGE_UPSTREAM,
    is_retryable,
    is_uniform_reject,
    uniform_reject,
)

__all__ = [
    "OverloadPolicy",
    "OverloadSignal",
    "AdmissionController",
    "CircuitBreaker",
    "AimdLimiter",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "GuardedLrs",
    "DEADLINE_FIELD",
    "DEADLINE_WIDTH",
    "MAX_DEADLINE",
    "encode_deadline",
    "decode_deadline",
    "stamp_deadline",
    "charge",
    "RETRYABLE_STATUS",
    "REJECT_CODE",
    "REJECT_BODY_BYTES",
    "uniform_reject",
    "is_uniform_reject",
    "is_retryable",
    "SHED_STAGES",
    "STAGE_ADMISSION",
    "STAGE_QUEUE",
    "STAGE_DEADLINE",
    "STAGE_UPSTREAM",
    "STAGE_TRANSFORM",
    "STAGE_LRS_GUARD",
]
