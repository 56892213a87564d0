"""LRS brownout: the backing recommender degrades without dying.

:class:`BrownoutLrs` wraps any LRS handle (the nginx stub, a Harness
frontend picker target, ...) and, while a brownout window is open,
answers a seeded fraction of requests with *retryable* errors and
serves the rest with inflated latency.  Outside a window it is a
transparent pass-through, so wrapping is free for fault-less runs.

The error reply carries only ``{"retryable": True, "error":
"BrownoutError"}`` — like every error on the wire, no request content
is ever echoed back (redaction safety).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.overload.shedding import RETRYABLE_STATUS
from repro.rest.messages import Request, Response
from repro.simnet.clock import EventLoop

__all__ = ["BrownoutLrs"]


@dataclass
class BrownoutLrs:
    """Degrading wrapper around an LRS handle.

    Unknown attributes (``address``, ``pending``, ``requests_served``,
    ``items``, ...) delegate to the wrapped service, so the wrapper
    drops into any ``lrs_picker`` unchanged.
    """

    inner: Any
    loop: EventLoop
    rng: random.Random
    #: Latency added to requests served during a window.
    extra_delay: float = 0.05
    #: Share of requests rejected during a window (set per window).
    error_rate: float = 0.5
    #: Open-window nesting count.
    active: int = 0
    #: Requests rejected with a retryable error during brownouts.
    rejected: int = 0
    #: Requests served with inflated latency during brownouts.
    slowed: int = 0

    def begin(self, error_rate: float) -> None:
        """Open a brownout window with the given rejection rate."""
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError(f"error rate must be in [0, 1], got {error_rate}")
        self.active += 1
        self.error_rate = error_rate

    def end(self) -> None:
        """Close one brownout window."""
        if self.active <= 0:
            raise RuntimeError("no brownout window is open")
        self.active -= 1

    def handle(self, request: Request, reply: Callable[[Response], None]) -> None:
        """Serve, slow-serve or reject *request* depending on the window."""
        if self.active <= 0:
            self.inner.handle(request, reply)
            return
        if self.rng.random() < self.error_rate:
            self.rejected += 1
            reply(Response(
                status=RETRYABLE_STATUS,
                fields={"retryable": True, "error": "BrownoutError"},
                request_id=request.request_id,
            ))
            return
        self.slowed += 1
        self.loop.schedule(self.extra_delay, lambda: self.inner.handle(request, reply))

    def __getattr__(self, name: str) -> Any:
        if name == "inner":  # guard against recursion before init
            raise AttributeError(name)
        return getattr(self.inner, name)
