"""Deterministic discrete-event loop with a virtual clock.

All performance experiments in the reproduction run on this engine:
time is virtual (seconds as floats), events fire in timestamp order
with FIFO tie-breaking, and nothing depends on wall-clock time, so a
given seed always reproduces the same latency distributions.

One engine, :class:`EventLoop`: a calendar queue (hash-bucketed time
slots with lazily sorted buckets) giving O(1) amortized insert and
batched, same-slot dispatch.  Cancelled handles are skipped lazily and
bulk-compacted once they outnumber live events, so timer churn
(hedges, deadlines, CoDel sojourn checks, health probes) cannot bloat
the queue.  ``post()``/``post_at()`` are handle-free fast paths for
the fire-and-forget events that dominate the hot path (message
deliveries, service completions).

The determinism contract: events fire ordered by ``(time, sequence)``
where ``sequence`` is a global monotonically increasing schedule
counter — earlier ``schedule``/``post`` calls win ties.  Callbacks may
schedule new events (never into the past) and cancel pending handles;
neither perturbs the order of other events.  The seed's binary-heap
loop is the test oracle for that contract
(``tests/oracles/heap_event_loop.py``): property tests drive both
through random schedule/cancel/run interleavings and assert identical
event order, clocks and counters.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "EventLoop",
    "EventHandle",
    "Periodic",
    "SimulationError",
    "DEFAULT_SLOT_WIDTH",
]


class SimulationError(RuntimeError):
    """Raised on inconsistent use of the event loop."""


#: Calendar slot width in virtual seconds.  Chosen so that intra-DC
#: hops (~0.3-0.5 ms) land one or two slots ahead while a saturated
#: slot still holds enough events to amortize its single sort.
DEFAULT_SLOT_WIDTH = 0.0005

#: Retired slot buckets kept for reuse (list object pool).
_BUCKET_POOL_MAX = 64

#: Lazy-cancel compaction: sweep once at least this many cancelled
#: entries are resident *and* they outnumber live events — the
#: classic lazy-deletion bound (resident <= 2x live), which keeps the
#: sweep amortized O(1) per cancellation: each C-speed sweep touches
#: at most two entries per entry it removes.
_COMPACT_MIN_CANCELLED = 256

_new_handle = object.__new__


class EventHandle:
    """Handle returned by ``schedule``/``schedule_at``; allows cancelling.

    Slotted: a million pending timers is a normal working set for the
    scale experiments, so per-handle ``__dict__`` overhead matters.
    Only the loop builds one, and it has no ``__init__``: the loop sets
    the four slots itself.
    """

    __slots__ = ("time", "sequence", "callback", "_loop")

    def cancel(self) -> None:
        """Cancel the event; a cancelled event is skipped by the loop."""
        if self.callback is None:
            return
        self.callback = None
        loop = self._loop
        if loop is None:
            return
        # Inlined loop._note_cancel(): cancellation is hot (every
        # completed request cancels its hedge + deadline timers).
        loop._live -= 1
        cancelled = loop._cancelled + 1
        loop._cancelled = cancelled
        loop._cancels_total += 1
        if cancelled >= _COMPACT_MIN_CANCELLED and cancelled > loop._live:
            loop._compact()

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called (or the event fired)."""
        return self.callback is None

#: A queue entry: ``(time, sequence, payload)`` where payload is either
#: an :class:`EventHandle` (cancellable) or a bare callable (the
#: ``post`` fast path).  Tuples compare by (time, sequence); sequences
#: are unique so the payload is never compared.
_Entry = Tuple[float, int, object]


class EventLoop:
    """Calendar-queue discrete-event scheduler.

    Events are hashed into fixed-width time slots (a dict keyed by
    ``int(time / slot_width)``); a small heap orders the non-empty
    slots.  Inserting is an O(1) dict lookup + list append; the next
    slot's bucket is sorted once when the clock reaches it and then
    drained as a batch without re-entering the scheduler.  An event
    scheduled into the window already being drained is placed into the
    sorted remainder by binary insertion, preserving exact
    ``(time, sequence)`` order.
    """

    __slots__ = (
        "slot_width",
        "_inv_width",
        "_now",
        "_seq",
        "_wheel",
        "_slot_heap",
        "_active",
        "_active_pos",
        "_active_slot",
        "_live",
        "_cancelled",
        "_cancels_total",
        "_events_processed",
        "_compactions",
        "_peak_pending",
        "_bucket_pool",
    )

    def __init__(self, slot_width: float = DEFAULT_SLOT_WIDTH) -> None:
        if slot_width <= 0:
            raise SimulationError(f"slot width must be positive, got {slot_width}")
        self.slot_width = slot_width
        self._inv_width = 1.0 / slot_width
        self._now = 0.0
        self._seq = 0
        #: slot index -> unsorted bucket of entries due in that slot.
        self._wheel: Dict[int, List[_Entry]] = {}
        #: heap of slot indices with a (possibly stale) bucket.
        self._slot_heap: List[int] = []
        #: the sorted bucket currently being drained, and the cursor
        #: into it; ``None`` between slots.
        self._active: Optional[List[_Entry]] = None
        self._active_pos = 0
        self._active_slot = -1
        self._live = 0
        self._cancelled = 0
        self._cancels_total = 0
        self._events_processed = 0
        self._compactions = 0
        self._peak_pending = 0
        self._bucket_pool: List[List[_Entry]] = []

    # -- clock & introspection ---------------------------------------

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
        """Number of *live* (non-cancelled) events still queued.

        Cancelled handles awaiting lazy removal are excluded; see
        :meth:`queue_stats` for the resident total.
        """
        return self._live

    def queue_stats(self) -> Dict[str, object]:
        """Scheduler introspection (``cache_stats()``-style snapshot).

        ``live`` is the number of events that will still fire,
        ``cancelled`` the lazily-cancelled entries not yet compacted
        away, ``queued`` their sum (resident queue footprint), and
        ``peak_pending`` the high-water mark of live events.
        """
        return {
            "live": self._live,
            "cancelled": self._cancelled,
            "queued": self._live + self._cancelled,
            "cancels_total": self._cancels_total,
            "compactions": self._compactions,
            "peak_pending": self._peak_pending,
            "slots": len(self._wheel) + (1 if self._active is not None else 0),
            "slot_width": self.slot_width,
            "events_processed": self._events_processed,
        }

    # -- scheduling ---------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run *callback* after *delay* seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Run *callback* at absolute virtual *time* (cancellable)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, current time is {self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        # object.__new__ + attribute stores: no constructor frame on a
        # path taken once per timer.
        handle = _new_handle(EventHandle)
        handle.time = time
        handle.sequence = seq
        handle.callback = callback
        handle._loop = self
        # Inlined _insert: one call per timer (hedges, deadlines,
        # retransmits) makes the extra frame measurable.
        slot = int(time * self._inv_width)
        active = self._active
        if active is not None and slot <= self._active_slot:
            insort(active, (time, seq, handle), self._active_pos)
        else:
            bucket = self._wheel.get(slot)
            if bucket is None:
                pool = self._bucket_pool
                bucket = pool.pop() if pool else []
                bucket.append((time, seq, handle))
                self._wheel[slot] = bucket
                heapq.heappush(self._slot_heap, slot)
            else:
                bucket.append((time, seq, handle))
        live = self._live + 1
        self._live = live
        if live > self._peak_pending:
            self._peak_pending = live
        return handle

    def post(self, delay: float, callback: Callable[[], None]) -> None:
        """Handle-free :meth:`schedule` for fire-and-forget events.

        Skips the :class:`EventHandle` allocation entirely — the hot
        path for message deliveries and service completions, which are
        never cancelled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        # post_at's body, not a call to it: every wire latency and
        # service time of a request is scheduled through here.
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        slot = int(time * self._inv_width)
        active = self._active
        if active is not None and slot <= self._active_slot:
            insort(active, (time, seq, callback), self._active_pos)
        else:
            bucket = self._wheel.get(slot)
            if bucket is None:
                pool = self._bucket_pool
                bucket = pool.pop() if pool else []
                bucket.append((time, seq, callback))
                self._wheel[slot] = bucket
                heapq.heappush(self._slot_heap, slot)
            else:
                bucket.append((time, seq, callback))
        live = self._live + 1
        self._live = live
        if live > self._peak_pending:
            self._peak_pending = live

    def post_at(self, time: float, callback: Callable[[], None]) -> None:
        """Handle-free :meth:`schedule_at` (event cannot be cancelled)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time:.6f}, current time is {self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        # Inlined _insert (this is the hottest line in the simulator:
        # one call per message delivery / service completion).
        slot = int(time * self._inv_width)
        active = self._active
        if active is not None and slot <= self._active_slot:
            insort(active, (time, seq, callback), self._active_pos)
        else:
            bucket = self._wheel.get(slot)
            if bucket is None:
                pool = self._bucket_pool
                bucket = pool.pop() if pool else []
                bucket.append((time, seq, callback))
                self._wheel[slot] = bucket
                heapq.heappush(self._slot_heap, slot)
            else:
                bucket.append((time, seq, callback))
        live = self._live + 1
        self._live = live
        if live > self._peak_pending:
            self._peak_pending = live

    # -- cancellation & compaction -----------------------------------

    def _compact(self) -> None:
        """Bulk-remove lazily-cancelled entries from every bucket."""
        handle_type = EventHandle
        wheel = self._wheel
        for slot in list(wheel):
            bucket = wheel[slot]
            kept = [
                entry
                for entry in bucket
                if entry[2].__class__ is not handle_type or entry[2].callback is not None
            ]
            if kept:
                wheel[slot] = kept
            else:
                # The slot index may linger in the heap; _advance skips
                # stale indices whose bucket is gone.
                del wheel[slot]
        active = self._active
        if active is not None:
            pos = self._active_pos
            self._active = [
                entry
                for entry in active[pos:]
                if entry[2].__class__ is not handle_type or entry[2].callback is not None
            ]
            self._active_pos = 0
        self._cancelled = 0
        self._compactions += 1

    # -- dispatch -----------------------------------------------------

    def _advance(self) -> bool:
        """Load the next non-empty slot as the active batch."""
        heap = self._slot_heap
        wheel = self._wheel
        while heap:
            slot = heapq.heappop(heap)
            bucket = wheel.pop(slot, None)
            if not bucket:
                continue  # stale index (compacted away) or re-pushed twin
            bucket.sort()
            self._active = bucket
            self._active_pos = 0
            self._active_slot = slot
            return True
        return False

    def _retire_active(self) -> None:
        bucket = self._active
        self._active = None
        if bucket is not None and len(self._bucket_pool) < _BUCKET_POOL_MAX:
            bucket.clear()
            self._bucket_pool.append(bucket)

    def run_until(self, time: float) -> None:
        """Run events with timestamps <= *time*, then advance to *time*."""
        handle_type = EventHandle
        while True:
            active = self._active
            if active is None:
                if not self._advance():
                    break
                active = self._active
            pos = self._active_pos
            if pos >= len(active):
                self._retire_active()
                continue
            entry = active[pos]
            event_time = entry[0]
            if event_time > time:
                break
            self._active_pos = pos + 1
            payload = entry[2]
            if payload.__class__ is handle_type:
                callback = payload.callback
                if callback is None:
                    self._cancelled -= 1
                    continue
                payload.callback = None
            else:
                callback = payload
            self._now = event_time
            self._live -= 1
            callback()
            self._events_processed += 1
        if time > self._now:
            self._now = time

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the queue drains (or *max_events* fire).

        The drain is batched: the active slot's sorted bucket is
        consumed in a tight loop with no per-event scheduler re-entry.
        """
        handle_type = EventHandle
        executed = 0
        budget = max_events
        while True:
            active = self._active
            if active is None:
                if not self._advance():
                    return
                active = self._active
            pos = self._active_pos
            length = len(active)
            while pos < length:
                entry = active[pos]
                pos += 1
                payload = entry[2]
                if payload.__class__ is handle_type:
                    callback = payload.callback
                    if callback is None:
                        self._cancelled -= 1
                        continue
                    payload.callback = None
                else:
                    callback = payload
                self._now = entry[0]
                self._live -= 1
                self._active_pos = pos
                callback()
                self._events_processed += 1
                if budget is not None:
                    executed += 1
                    if executed >= budget:
                        raise SimulationError(
                            f"event budget exhausted after {max_events} events"
                            f" ({self._events_processed} events processed in total)"
                            " — likely a runaway feedback loop"
                        )
                # The callback may have scheduled into this slot
                # (insort), cancelled entries (compaction swaps the
                # list), or drained further — reload the cursor.
                active = self._active
                if active is None:
                    break
                pos = self._active_pos
                length = len(active)
            if active is not None and pos >= length:
                self._active_pos = pos
                self._retire_active()


class Periodic:
    """The tick loop of a controller on the virtual clock (health
    probing, shard supervision, a rotation drill, elastic scaling).

    A subclass has a ``loop``, says how often it acts (:meth:`_period`)
    and what one tick does (:meth:`_step`).  :meth:`start` schedules the
    first tick one period out; calling it again does nothing.
    :meth:`stop` is final and cancels nothing: the pending tick still
    fires, inert, and a drain runs through it.  A tick re-arms
    after its step while the controller runs, so a step that calls
    :meth:`stop` is the last one.
    """

    #: None before :meth:`start`, True while ticking, False once stopped.
    _running: Optional[bool] = None

    def _period(self) -> float:
        raise NotImplementedError

    def _step(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        if self._running is None:
            self._running = True
            self.loop.schedule(self._period(), self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if self._running:
            self._step()
            if self._running:
                self.loop.schedule(self._period(), self._tick)
