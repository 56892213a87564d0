"""Simulated compute nodes: a multi-core FIFO service station.

Each cluster node in the paper's testbed is an Intel NUC with a 2-core
3.50 GHz i7.  We model a node as ``cores`` parallel servers draining a
FIFO queue of jobs with caller-supplied service times.  This M/G/c
structure is what produces the latency knee at saturation that all of
the paper's figures exhibit.

Below the knee nearly every job finds a core free and nothing ahead of
it, so :meth:`SimNode.submit` starts such a job directly and only a job
that has to wait goes through the queue; a completion looks at the
queue only when something is in it.  Both ways leave every
:class:`NodeStats` field with the same value, and the completion stays
a plain closure of this module holding its continuation as
``on_complete`` (``benchmarks/e2e/tracing.py`` finds the callback's
owner through that name, ``obs/profile.folded`` labels it by its
``__qualname__``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Optional, Tuple

from repro.simnet.clock import EventLoop

__all__ = ["SimNode", "NodeStats"]


@dataclass
class NodeStats:
    """Utilization counters maintained by :class:`SimNode`."""

    jobs_completed: int = 0
    busy_time: float = 0.0
    total_queue_wait: float = 0.0
    max_queue_length: int = 0

@dataclass
class SimNode:
    """A named node with *cores* parallel execution units.

    Jobs are submitted with an explicit service time (computed by the
    caller's cost model) and a completion callback.  Jobs start in FIFO
    order as cores free up.
    """

    name: str
    loop: EventLoop
    cores: int = 2
    stats: NodeStats = field(default_factory=NodeStats)
    _busy: int = 0
    _queue: Deque[Tuple[float, float, Callable[[], None]]] = field(default_factory=deque)

    def submit(self, service_time: float, on_complete: Callable[[], None]) -> None:
        """Enqueue a job taking *service_time* seconds of one core."""
        if service_time < 0:
            raise ValueError(f"negative service time: {service_time}")
        if self._busy < self.cores and not self._queue:
            # Starts at once: for that instant the job is the whole
            # queue (length 1), and it waits 0.0 seconds.
            if not self.stats.max_queue_length:
                self.stats.max_queue_length = 1
            self._busy += 1
            self.loop.post(service_time, self._completer(service_time, on_complete))
            return
        self._queue.append((self.loop.now, service_time, on_complete))
        if len(self._queue) > self.stats.max_queue_length:
            self.stats.max_queue_length = len(self._queue)
        self._dispatch()

    @property
    def queue_length(self) -> int:
        """Jobs waiting for a core (not counting running jobs)."""
        return len(self._queue)

    @property
    def pending(self) -> int:
        """Jobs waiting plus jobs currently running."""
        return len(self._queue) + self._busy

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of core-time spent busy up to now (or *horizon*)."""
        elapsed = horizon if horizon is not None else self.loop.now
        if elapsed <= 0:
            return 0.0
        return self.stats.busy_time / (elapsed * self.cores)

    def _dispatch(self) -> None:
        """Start queued jobs while cores are free."""
        while self._queue and self._busy < self.cores:
            enqueued_at, service_time, on_complete = self._queue.popleft()
            self._busy += 1
            self.stats.total_queue_wait += self.loop.now - enqueued_at
            # Handle-free fast path: completions are never cancelled.
            self.loop.post(service_time, self._completer(service_time, on_complete))

    def _completer(self, service_time: float, on_complete: Callable[[], None]) -> Callable[[], None]:
        def finish() -> None:
            self._busy -= 1
            self.stats.jobs_completed += 1
            self.stats.busy_time += service_time
            # Free the core before running the callback so that work the
            # callback submits can start immediately.
            if self._queue:
                self._dispatch()
            on_complete()

        return finish
