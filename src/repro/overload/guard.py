"""The guarded LRS edge: breaker + limiter + deadline, composable.

:class:`GuardedLrs` wraps any LRS handle the same way PR 3's
:class:`~repro.faults.brownout.BrownoutLrs` does (unknown attributes
delegate to the wrapped service), so the two compose::

    GuardedLrs(inner=BrownoutLrs(inner=StubLrs(...), ...), ...)

With that stack, brownout 503s are *observed* by the guard: the
failure streak trips the breaker, the AIMD limiter halves its window,
and while the breaker is open the IA's requests are rejected locally —
no wire trip, no LRS load — until a half-open probe succeeds.

Every rejection is the canonical uniform reject of
:mod:`repro.overload.shedding`: travelling back through the IA it is
indistinguishable from any other error, so the UA (and the wire
adversary) cannot learn the LRS's health from reject shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.overload.breaker import AimdLimiter, CircuitBreaker
from repro.overload.deadline import decode_deadline
from repro.overload.shedding import STAGE_LRS_GUARD, is_retryable, uniform_reject
from repro.rest.messages import Request, Response

__all__ = ["GuardedLrs"]


@dataclass
class GuardedLrs:
    """Breaker/limiter/deadline guard in front of an LRS handle."""

    inner: Any
    breaker: CircuitBreaker
    limiter: AimdLimiter
    #: Optional telemetry hub for sparse shed events (role ``lrs``).
    telemetry: Optional[Any] = None
    #: Requests rejected while the breaker was open.
    breaker_rejections: int = 0
    #: Requests rejected by the concurrency limiter.
    limiter_rejections: int = 0
    #: Requests shed because their deadline budget was already spent.
    expired_rejections: int = 0
    #: Requests passed through to the wrapped service.
    passed: int = 0
    #: Retryable failures observed on passed requests.
    failures_observed: int = 0
    _announced: Dict[str, bool] = field(default_factory=dict)

    def handle(self, request: Request, reply: Callable[[Response], None]) -> None:
        """Guard one request on its way to the wrapped LRS."""
        remaining = decode_deadline(request)
        if remaining is not None and remaining <= 0.0:
            self.expired_rejections += 1
            self._shed_event("expired")
            reply(uniform_reject(request.request_id))
            return
        if not self.breaker.allow():
            self.breaker_rejections += 1
            self._shed_event("breaker_open")
            reply(uniform_reject(request.request_id))
            return
        if not self.limiter.try_acquire():
            self.limiter_rejections += 1
            self._shed_event("concurrency_limit")
            reply(uniform_reject(request.request_id))
            return
        self.passed += 1

        def observed_reply(response: Response) -> None:
            retryable_failure = is_retryable(response)
            self.limiter.release(not retryable_failure)
            if retryable_failure:
                self.failures_observed += 1
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
            reply(response)

        self.inner.handle(request, observed_reply)

    def _shed_event(self, reason: str) -> None:
        """Emit one structured shed event per reason (sparse; counters
        carry the volume).  Payload is identity-free by construction."""
        if self.telemetry is None or self._announced.get(reason):
            return
        self._announced[reason] = True
        self.telemetry.event_log.emit(
            "shed",
            "lrs",
            {"event": "request_shed", "stage": STAGE_LRS_GUARD, "reason": reason},
        )

    def __getattr__(self, name: str) -> Any:
        if name == "inner":  # guard against recursion before init
            raise AttributeError(name)
        return getattr(self.inner, name)
