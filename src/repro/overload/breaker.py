"""Circuit breaker + AIMD concurrency limiter for the IA -> LRS edge.

The IA layer is the last hop before the backing recommender; when the
LRS browns out (PR 3's :class:`~repro.faults.brownout.BrownoutLrs`
answers retryable 503s), continuing to pump requests into it wastes
enclave transitions on work that will fail anyway and amplifies the
brownout with retry traffic.  The breaker converts a failure streak
into fast local rejects and probes recovery half-open; the AIMD
limiter bounds concurrent in-flight work against the LRS the same way
TCP bounds a congestion window — additive increase on success,
multiplicative decrease on retryable failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "CircuitBreaker",
    "AimdLimiter",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

#: Breaker states, numeric for the ``pprox_breaker_state`` gauge.
BREAKER_CLOSED = 0
BREAKER_OPEN = 1
BREAKER_HALF_OPEN = 2

#: Requests a half-open breaker lets through as recovery probes.
HALF_OPEN_PROBES = 1
#: AIMD steps: the limit grows by ``AIMD_INCREASE / limit`` per success
#: and is multiplied by ``AIMD_BACKOFF`` per retryable failure.
AIMD_INCREASE = 1.0
AIMD_BACKOFF = 0.5


@dataclass
class CircuitBreaker:
    """Trip after a failure streak; probe recovery half-open.

    Closed: everything passes, a streak of ``failure_threshold``
    retryable failures trips the breaker.  Open: everything is
    rejected for ``reset_timeout`` seconds.  Half-open: up to
    :data:`HALF_OPEN_PROBES` requests pass as recovery probes — one
    success re-closes the breaker, one failure re-opens it.
    """

    clock: Callable[[], float] = lambda: 0.0
    failure_threshold: int = 5
    reset_timeout: float = 1.0
    state: int = BREAKER_CLOSED
    failures: int = 0
    trips: int = 0
    opened_at: float = 0.0
    _probes: int = field(default=0, init=False)

    def allow(self) -> bool:
        """May the next request pass this breaker right now?"""
        if (
            self.state == BREAKER_OPEN
            and self.clock() - self.opened_at >= self.reset_timeout
        ):
            self.state = BREAKER_HALF_OPEN
            self._probes = 0
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_HALF_OPEN and self._probes < HALF_OPEN_PROBES:
            self._probes += 1
            return True
        return False

    def record_success(self) -> None:
        """A passed request completed OK."""
        if self.state == BREAKER_HALF_OPEN:
            self.state = BREAKER_CLOSED
        self.failures = 0

    def record_failure(self) -> None:
        """A passed request failed retryably."""
        self.failures += 1
        if self.state == BREAKER_HALF_OPEN or (
            self.state == BREAKER_CLOSED and self.failures >= self.failure_threshold
        ):
            self.state = BREAKER_OPEN
            self.opened_at = self.clock()
            self.trips += 1
            self.failures = 0


@dataclass
class AimdLimiter:
    """Adaptive concurrency limit (additive increase, multiplicative
    decrease), seeded at ``initial`` and clamped to
    ``[min_limit, max_limit]``.

    The increase is ``AIMD_INCREASE / limit`` per success — one full unit
    per "window" of successes, mirroring TCP congestion avoidance —
    so the limit converges instead of oscillating wildly.
    """

    initial: float = 8.0
    min_limit: float = 1.0
    max_limit: float = 64.0
    limit: float = field(default=0.0, init=False)
    in_flight: int = 0
    acquired_total: int = 0
    rejected_total: int = 0
    backoffs: int = 0

    def __post_init__(self) -> None:
        self.limit = min(max(self.initial, self.min_limit), self.max_limit)

    def try_acquire(self) -> bool:
        """Claim an in-flight slot; False when the limit is reached."""
        if self.in_flight >= int(self.limit):
            self.rejected_total += 1
            return False
        self.in_flight += 1
        self.acquired_total += 1
        return True

    def release(self, ok: bool) -> None:
        """Return a slot, adapting the limit to the outcome."""
        self.in_flight = max(0, self.in_flight - 1)
        if ok:
            self.limit = min(
                self.max_limit, self.limit + AIMD_INCREASE / max(self.limit, 1.0)
            )
        else:
            self.limit = max(self.min_limit, self.limit * AIMD_BACKOFF)
            self.backoffs += 1
