"""Queueing primitives mirroring the proxy server implementation (§5).

The paper's proxy server is an event-driven single thread pushing
incoming connections' file descriptors into "a lock-free, scalable
concurrent queue" (Desrochers' moodycamel queue), drained by a pool of
data-processing threads running inside the SGX enclave.  We model the
queue as a bounded FIFO that the proxy's ingress pump drains with
:meth:`ConcurrentQueue.pop`, which is behaviourally equivalent under
the simulator's sequential execution.

Overload protection: a full queue refuses the newcomer (tail-drop),
and a pluggable :class:`ShedPolicy` may also drop entries at dequeue
time — the CoDel-style sojourn controller does once queueing delay
stays above target for a full interval.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Optional, Tuple

__all__ = [
    "ConcurrentQueue",
    "ShedPolicy",
    "TailDropPolicy",
    "CoDelPolicy",
    "SHED_TAIL",
    "SHED_SOJOURN",
]

#: Shed-reason labels (the ``reason`` label of ``pprox_shed_total``).
SHED_TAIL = "tail_drop"
SHED_SOJOURN = "sojourn"


class ShedPolicy:
    """Strategy interface: which entries a bounded queue drops at
    dequeue time (overflow at push always refuses the newcomer)."""

    name = "abstract"

    def on_dequeue(self, sojourn: float, now: float) -> Optional[str]:
        """Shed reason for the entry being dequeued, or ``None`` to
        deliver it.  Default: always deliver."""
        return None


@dataclass
class TailDropPolicy(ShedPolicy):
    """Refuse the incoming item when the queue is full (classic FIFO)."""

    name: str = field(default="tail-drop", init=False)


@dataclass
class CoDelPolicy(ShedPolicy):
    """Sojourn-time controller in the style of CoDel (Nichols & Jacobson).

    Tracks how long queueing delay has continuously exceeded *target*;
    once that streak reaches *interval*, entries are dropped at dequeue
    time until sojourn falls back under target.  Capacity overflow
    (a burst arriving faster than the controller can react) is
    tail-dropped.
    """

    #: Acceptable standing queueing delay.
    target: float = 0.05
    #: How long sojourn must stay above target before dropping starts.
    interval: float = 0.1
    name: str = field(default="codel", init=False)
    _first_above: Optional[float] = field(default=None, init=False)

    def on_dequeue(self, sojourn: float, now: float) -> Optional[str]:
        if sojourn < self.target:
            self._first_above = None
            return None
        if self._first_above is None:
            self._first_above = now
            return None
        if now - self._first_above >= self.interval:
            return SHED_SOJOURN
        return None


@dataclass
class ConcurrentQueue:
    """Bounded FIFO work queue, drained by :meth:`pop`.

    Past ``capacity`` a push is refused (tail-drop); ``shed_policy``
    may drop entries at dequeue time.  Every shed invokes
    ``on_shed(item, reason)``.
    """

    #: Maximum queued entries.
    capacity: int
    name: str = "queue"
    shed_policy: ShedPolicy = field(default_factory=TailDropPolicy)
    #: Virtual-clock source for sojourn accounting; the zero default
    #: keeps clock-less (unit-test) queues working with zero sojourns.
    clock: Callable[[], float] = lambda: 0.0
    #: Hook invoked once per shed entry with ``(item, reason)``.
    on_shed: Optional[Callable[[Any, str], None]] = None
    #: Hook invoked once per delivered entry with its sojourn seconds.
    on_pop: Optional[Callable[[float], None]] = None
    _items: Deque[Tuple[Any, float]] = field(default_factory=deque)

    def push(self, item: Any) -> bool:
        """Queue *item*; False when the queue is full and it was shed."""
        if len(self._items) >= self.capacity:
            self._shed(item, SHED_TAIL)
            return False
        self._items.append((item, self.clock()))
        return True

    def pop(self) -> Optional[Any]:
        """Take the next deliverable item, or ``None`` when empty.

        Entries the shed policy drops at dequeue time are shed on the
        way (the proxy's pump calls this, so such sheds stay
        pre-shuffle).
        """
        items = self._items
        while items:
            item, enqueued_at = items.popleft()
            now = self.clock()
            sojourn = max(0.0, now - enqueued_at)
            reason = self.shed_policy.on_dequeue(sojourn, now)
            if reason is None:
                if self.on_pop is not None:
                    self.on_pop(sojourn)
                return item
            self._shed(item, reason)
        return None

    def _shed(self, item: Any, reason: str) -> None:
        if self.on_shed is not None:
            self.on_shed(item, reason)

    @property
    def depth(self) -> int:
        """Items currently waiting."""
        return len(self._items)

    def oldest_sojourn(self) -> float:
        """Queueing delay of the head entry (0 when empty) — the
        overload signal's sojourn input."""
        if not self._items:
            return 0.0
        _, enqueued_at = self._items[0]
        return max(0.0, self.clock() - enqueued_at)
