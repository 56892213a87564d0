"""Open-loop workload injector (the paper's node.js ``loadtest``).

"We built an HTTP load injector based on the high-performance
loadtest library for node.js.  The injector issues REST API calls and
times their execution" (§7.1).  The injector is open-loop: arrivals
are scheduled at the target rate regardless of completions, which is
what exposes saturation as unbounded latency growth.

Each arrival is made as it comes due: only the next one is ever in the
event queue, so a phase costs the loop one pending event and eight
bytes per arrival instant, not one queue entry per offered call.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator, Optional, Tuple

from repro.client.library import CompletedCall
from repro.simnet.clock import EventLoop
from repro.simnet.metrics import LatencyRecorder

__all__ = ["Injector", "InjectionReport"]

#: A product ``rate × duration`` this close (relatively) to an integer
#: is that integer: ``100 * 9.2`` is 919.999…, and 920 calls are meant.
_COUNT_TOLERANCE = 1e-9


def _arrival_count(rate_per_second: float, duration: float) -> int:
    """Calls in a phase: ``rate × duration``, floored, but never one
    short of an integer the product misses by float rounding."""
    product = rate_per_second * duration
    nearest = round(product)
    if abs(product - nearest) <= _COUNT_TOLERANCE * nearest:
        return nearest
    return int(product)


@dataclass
class InjectionReport:
    """Counters for one injection phase."""

    issued: int = 0
    completed: int = 0
    failed: int = 0

    @property
    def completion_ratio(self) -> float:
        """Fraction of issued calls that completed."""
        return self.completed / self.issued if self.issued else 1.0


@dataclass
class Injector:
    """Schedules API calls at a fixed rate and records latencies.

    :meth:`inject`'s *issue_call* is invoked with a completion callback
    at each arrival instant.  The per-arrival jitter models the
    injector's own scheduling noise.
    """

    loop: EventLoop
    rng: random.Random
    recorder: LatencyRecorder = field(default_factory=LatencyRecorder)
    report: InjectionReport = field(default_factory=InjectionReport)
    jitter_seconds: float = 0.001
    #: Optional telemetry hook: called with each successful call's
    #: latency (wired to a histogram by ``instrument_injector``).
    latency_observer: Optional[Callable[[float], None]] = None

    def inject(
        self,
        rate_per_second: float,
        duration: float,
        issue_call: Callable[[Callable[[CompletedCall], None]], None],
        start_at: Optional[float] = None,
    ) -> Tuple[float, float]:
        """Schedule arrivals at *rate_per_second* for *duration* seconds.

        Returns the (start, end) times of the phase.  Must be called
        before running the loop across that window.

        Arrival ``i`` is due at ``start + i / rate + jitter_i``.  Every
        jitter is drawn here, in index order, from ``self.rng`` — so two
        injectors sharing one stream see the draws in the order their
        phases were injected — and the instants are kept unboxed.
        Arrivals fire ordered by instant, then by index: when the jitter
        exceeds the interval (above 1,000/s at the default 1 ms) the
        instants are sorted first.  Only the first arrival is
        posted now; each one posts its successor before it issues its
        call.
        """
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        start = start_at if start_at is not None else self.loop.now
        interval = 1.0 / rate_per_second
        uniform = self.rng.uniform
        jitter = self.jitter_seconds
        instants = array(
            "d",
            (start + index * interval + uniform(0, jitter)
             for index in range(_arrival_count(rate_per_second, duration))),
        )
        if any(later < earlier for earlier, later in zip(instants, islice(instants, 1, None))):
            instants = array("d", sorted(instants))
        arrivals = iter(instants)
        first = next(arrivals, None)
        if first is not None:
            self.loop.post_at(first, self._arrival(arrivals, issue_call))
        return start, start + duration

    def _arrival(
        self,
        arrivals: Iterator[float],
        issue_call: Callable[[Callable[[CompletedCall], None]], None],
    ) -> Callable[[], None]:
        post_at = self.loop.post_at

        def fire() -> None:
            following = next(arrivals, None)
            if following is not None:
                post_at(following, fire)
            self.report.issued += 1
            issue_call(self._on_complete)

        return fire

    def _on_complete(self, call: CompletedCall) -> None:
        if call.ok:
            self.report.completed += 1
            self.recorder.record(call.completed_at, call.latency)
            if self.latency_observer is not None:
                self.latency_observer(call.latency)
        else:
            self.report.failed += 1
