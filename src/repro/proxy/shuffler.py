"""Request/response shuffling buffer (paper §4.3, Figure 5).

"Incoming requests are buffered until S requests are received, or
until a timer expires, and then sent in random order to the next
stage."  The UA layer shuffles requests on the way to the IA layer;
the IA layer shuffles responses on the way back.  Each proxy instance
owns its own buffers, which is why over-provisioned deployments see
shuffle latency grow (§8.1.2): per-instance traffic drops and buffers
fill more slowly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.simnet.clock import EventHandle, EventLoop

__all__ = ["ShuffleBuffer"]


@dataclass
class ShuffleBuffer:
    """Buffers entries and releases them in randomized batches.

    Telemetry hooks: ``on_flush(size, timer_fired)`` fires once per
    flush (install with :meth:`chain_on_flush`, which keeps whatever is
    already there); ``last_flush_size`` is the effective ``S`` of the most
    recent batch (the live privacy-health signal); ``last_wait`` holds
    the buffered entry's wait time during each ``release`` callback so
    the release path can attribute shuffle wait vs. processing time.
    """

    loop: EventLoop
    rng: random.Random
    size: int
    timeout: float
    release: Callable[[Any], None]
    name: str = "shuffle"
    _pending: List[Any] = field(default_factory=list)
    _enqueued_at: List[float] = field(default_factory=list)
    _timer: Optional[EventHandle] = None
    flushes: int = 0
    timer_flushes: int = 0
    entries_buffered: int = 0
    drains: int = 0
    entries_drained: int = 0
    last_flush_size: Optional[int] = None
    #: Smallest batch ever *released to the wire* by this buffer (the
    #: worst effective ``S`` over its lifetime).  Crash drains are
    #: excluded — a drained batch is discarded, never released, so it
    #: cannot thin what an adversary observes.
    min_flush_size: Optional[int] = None
    #: Wait time of the entry currently being released (valid only
    #: inside the ``release`` callback).
    last_wait: float = 0.0
    #: Optional telemetry hook: called as ``on_flush(size, timer_fired)``.
    on_flush: Optional[Callable[[int, bool], None]] = None
    #: Batch-envelope mode: when set, a flush hands the whole shuffled
    #: batch — a list of ``(entry, enqueued_at)`` pairs — to this hook
    #: instead of releasing entries one at a time, so the owner can
    #: amortize work (one sealed envelope per flush) across the batch.
    release_batch: Optional[Callable[[List[Any]], None]] = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("shuffle size must be >= 1; use size 1 for pass-through")
        if self.timeout <= 0:
            raise ValueError("shuffle timeout must be positive")

    def chain_on_flush(self, hook: Callable[[int, bool], None]) -> None:
        """Install *hook* behind whatever ``on_flush`` already holds.

        Hooks fire in installation order.  ``on_flush`` itself stays a
        single late-bound attribute, so a caller may still read and
        replace it wholesale.
        """
        previous = self.on_flush
        if previous is None:
            self.on_flush = hook
            return

        def chained(size: int, timer_fired: bool) -> None:
            previous(size, timer_fired)
            hook(size, timer_fired)

        self.on_flush = chained

    def add(self, entry: Any) -> None:
        """Buffer *entry*; flush if the batch is full."""
        self._pending.append(entry)
        self._enqueued_at.append(self.loop.now)
        self.entries_buffered += 1
        if len(self._pending) >= self.size:
            self._flush(timer_fired=False)
            return
        if self._timer is None:
            self._timer = self.loop.schedule(self.timeout, self._on_timer)

    @property
    def pending(self) -> int:
        """Entries currently buffered."""
        return len(self._pending)

    def time_to_flush(self, now: float) -> Optional[float]:
        """Seconds until the pending batch is timer-flushed, if armed."""
        if self._timer is None or self._timer.cancelled:
            return None
        return max(0.0, self._timer.time - now)

    def drain(self) -> int:
        """Discard the in-flight batch without releasing it.

        Called when the owning instance dies: buffered requests are
        lost (clients recover via timeout + retry), the armed timer is
        cancelled so no flush fires on a dead instance, and
        ``last_flush_size`` drops to 0 so the anonymity-set gauge
        reflects the drained batch.  Returns the number of entries
        discarded.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        dropped = len(self._pending)
        self._pending, self._enqueued_at = [], []
        self.drains += 1
        self.entries_drained += dropped
        self.last_flush_size = 0
        return dropped

    def _on_timer(self) -> None:
        self._timer = None
        if self._pending:
            self._flush(timer_fired=True)

    def _flush(self, timer_fired: bool) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        batch = list(zip(self._pending, self._enqueued_at))
        self._pending, self._enqueued_at = [], []
        self.rng.shuffle(batch)
        self.flushes += 1
        if timer_fired:
            self.timer_flushes += 1
        self.last_flush_size = len(batch)
        if self.min_flush_size is None or len(batch) < self.min_flush_size:
            self.min_flush_size = len(batch)
        if self.on_flush is not None:
            self.on_flush(len(batch), timer_fired)
        if self.release_batch is not None:
            self.release_batch(batch)
            return
        now = self.loop.now
        for entry, enqueued_at in batch:
            self.last_wait = now - enqueued_at
            self.release(entry)
        self.last_wait = 0.0
