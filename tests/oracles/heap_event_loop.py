"""The seed's binary-heap event loop, kept as the calendar queue's oracle.

A reference tests (and ``benchmarks/ledger.py simnet``) compare
:class:`repro.simnet.clock.EventLoop` against, not product code: one
``heapq``, one ``__dict__``-backed handle per event, no fast paths.
Property tests drive both loops through random schedule/cancel/run
interleavings and assert identical event order, identical clocks and
identical counters; ``tests/test_scale_scenario.py`` asserts
``scale.json`` is byte-identical on either.  Moved here verbatim from
``simnet/clock.py``; do not optimize it.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.simnet.clock import SimulationError

__all__ = ["HeapEventLoop", "HeapEventHandle"]

#: A queue entry ``(time, sequence, handle)``; sequences are unique so
#: the handle is never compared.
_Entry = Tuple[float, int, object]


class HeapEventHandle:
    """The seed's per-event handle: a plain ``__dict__``-backed object.

    Preserved alongside :class:`HeapEventLoop` so the anchor keeps
    the seed's allocation profile (one dict-carrying object per event)
    as well as its algorithm.  The only addition is the loop backref
    that lets :meth:`cancel` keep the live-event count accurate — the
    introspection fix both engines share.
    """

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Optional[Callable[[], None]],
        _loop: Optional[object] = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self._loop = _loop

    def cancel(self) -> None:
        """Cancel the event; a cancelled event is skipped by the loop."""
        if self.callback is None:
            return
        self.callback = None
        loop = self._loop
        if loop is not None:
            loop._live -= 1
            loop._cancelled += 1
            loop._cancels_total += 1

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called (or the event fired)."""
        return self.callback is None


class HeapEventLoop:
    """The seed engine: one binary heap, one handle per event.

    Kept as the behavioural anchor for the calendar queue, the same
    way :mod:`tests.oracles.aes_reference` anchors the optimized AES stack:
    property tests assert both engines fire identical event sequences,
    and the experiment suite asserts byte-identical same-seed
    artifacts.  Do not optimize this class.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_seq",
        "_live",
        "_cancelled",
        "_cancels_total",
        "_events_processed",
        "_peak_pending",
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[_Entry] = []
        self._seq = 0
        self._live = 0
        self._cancelled = 0
        self._cancels_total = 0
        self._events_processed = 0
        self._peak_pending = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._live

    def queue_stats(self) -> Dict[str, object]:
        """Same introspection surface as :meth:`EventLoop.queue_stats`."""
        return {
            "live": self._live,
            "cancelled": self._cancelled,
            "queued": len(self._queue),
            "cancels_total": self._cancels_total,
            "compactions": 0,
            "peak_pending": self._peak_pending,
            "slots": 0,
            "slot_width": 0.0,
            "events_processed": self._events_processed,
        }

    def schedule(self, delay: float, callback: Callable[[], None]) -> HeapEventHandle:
        """Run *callback* after *delay* seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> HeapEventHandle:
        """Run *callback* at absolute virtual *time*."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, current time is {self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = HeapEventHandle(time, seq, callback, self)
        heapq.heappush(self._queue, (time, seq, handle))
        self._live += 1
        if self._live > self._peak_pending:
            self._peak_pending = self._live
        return handle

    def post(self, delay: float, callback: Callable[[], None]) -> None:
        """API parity with :meth:`EventLoop.post` (no fast path here)."""
        self.schedule(delay, callback)

    def post_at(self, time: float, callback: Callable[[], None]) -> None:
        """API parity with :meth:`EventLoop.post_at` (no fast path here)."""
        self.schedule_at(time, callback)

    def step(self) -> bool:
        """Execute the next event; returns False when none remain."""
        while self._queue:
            time, _, handle = heapq.heappop(self._queue)
            if handle.callback is None:
                self._cancelled -= 1
                continue
            self._now = time
            callback, handle.callback = handle.callback, None
            self._live -= 1
            callback()
            self._events_processed += 1
            return True
        return False

    def run_until(self, time: float) -> None:
        """Run events with timestamps <= *time*, then advance to *time*.

        Cancelled heads are purged before the boundary test: the seed
        implementation decided "one more step" by looking at the head's
        timestamp even when that head was already cancelled, which let
        ``step()`` overshoot *time* by running the next live event.
        Both engines now honour the documented contract exactly.
        """
        queue = self._queue
        while queue:
            next_time, _, head = queue[0]
            if head.callback is None:
                heapq.heappop(queue)
                self._cancelled -= 1
                continue
            if next_time > time:
                break
            if not self.step():
                break
        if time > self._now:
            self._now = time

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the queue drains (or *max_events* fire)."""
        executed = 0
        while self.step():
            executed += 1
            if max_events is not None and executed >= max_events:
                raise SimulationError(
                    f"event budget exhausted after {max_events} events"
                    f" ({self._events_processed} events processed in total)"
                    " — likely a runaway feedback loop"
                )
