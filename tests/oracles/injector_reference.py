"""The injector as it stood before arrivals were made as they came due.

A reference tests compare :meth:`repro.workload.injector.Injector.inject`
against, not product code: every arrival of a phase is posted into the
event queue before the first one fires, one queue entry (and one
boxed instant) per offered call, so the queue holds the whole phase.
Completion handling is inherited unchanged; the upfront loop is moved
here verbatim — including its ``int(rate * duration)`` count, which
float rounding can leave one short (``int(100 * 9.2) == 919``), so
compare it only where that product is not one ulp below an integer.
Do not optimize it.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.client.library import CompletedCall
from repro.workload.injector import Injector

__all__ = ["UpfrontInjector"]


class UpfrontInjector(Injector):
    """:class:`Injector` with the upfront arrival loop."""

    def inject(
        self,
        rate_per_second: float,
        duration: float,
        issue_call: Callable[[Callable[[CompletedCall], None]], None],
        start_at: Optional[float] = None,
    ) -> Tuple[float, float]:
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        start = start_at if start_at is not None else self.loop.now
        count = int(rate_per_second * duration)
        interval = 1.0 / rate_per_second
        fire = self._arrival(issue_call)
        post_at = self.loop.post_at
        uniform = self.rng.uniform
        jitter = self.jitter_seconds
        for index in range(count):
            post_at(start + index * interval + uniform(0, jitter), fire)
        return start, start + duration

    def _arrival(  # type: ignore[override]
        self, issue_call: Callable[[Callable[[CompletedCall], None]], None]
    ) -> Callable[[], None]:
        def fire() -> None:
            self.report.issued += 1
            issue_call(self._on_complete)

        return fire
