"""The overload-protection policy bundle.

One frozen configuration object carries every knob of the overload
subsystem; :func:`repro.proxy.service.assemble` threads it into
the :class:`~repro.proxy.layers.ProxyRuntime` and each proxy instance
builds its own bounded ingress queue, admission controller and pump
window from it.  ``None`` (the default everywhere) means *no overload
protection*: the data plane behaves byte-for-byte as before this
subsystem existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.overload.admission import AdmissionController
from repro.overload.breaker import AimdLimiter, CircuitBreaker
from repro.simnet.queueing import ConcurrentQueue, ShedPolicy, make_shed_policy

__all__ = ["OverloadPolicy"]


@dataclass(frozen=True)
class OverloadPolicy:
    """Knobs of the overload-protection subsystem (all layers)."""

    #: Bound of each proxy instance's ingress queue.
    ingress_capacity: int = 64
    #: Shed policy name: ``tail-drop``, ``front-drop`` or ``codel``.
    shed_policy: str = "tail-drop"
    #: CoDel target sojourn / control interval (codel policy only).
    codel_target: float = 0.05
    codel_interval: float = 0.1
    #: Jobs an instance keeps in flight at its node before the ingress
    #: pump pauses (raised to cover the shuffle batch, so bounding
    #: concurrency can never starve a batch below ``S``).
    max_inflight: int = 16
    #: Admission thresholds at the UA front door.
    admission_max_sojourn: float = 0.25
    admission_max_pressure: float = 1.0
    #: Shed requests whose deadline budget is spent (pre-enclave).
    enforce_deadlines: bool = True
    #: IA->LRS guard: breaker and AIMD limiter parameters.
    breaker_failure_threshold: int = 5
    breaker_reset_timeout: float = 1.0
    breaker_half_open_probes: int = 1
    limiter_initial: float = 8.0
    limiter_max: float = 64.0

    def make_ingress_queue(
        self, name: str, clock: Callable[[], float]
    ) -> ConcurrentQueue:
        """A bounded ingress queue configured for one proxy instance."""
        return ConcurrentQueue(
            name=name,
            capacity=self.ingress_capacity,
            shed_policy=self.make_shed_policy(),
            clock=clock,
        )

    def make_shed_policy(self) -> ShedPolicy:
        """A fresh shed-policy instance (CoDel keeps per-queue state)."""
        if self.shed_policy == "codel":
            return make_shed_policy(
                "codel", target=self.codel_target, interval=self.codel_interval
            )
        return make_shed_policy(self.shed_policy)

    def make_admission(self) -> AdmissionController:
        """A fresh admission controller for one front-door instance."""
        return AdmissionController(
            max_sojourn=self.admission_max_sojourn,
            max_pressure=self.admission_max_pressure,
        )

    def make_breaker(self, clock: Callable[[], float]) -> CircuitBreaker:
        """A circuit breaker for the IA->LRS edge."""
        return CircuitBreaker(
            clock=clock,
            failure_threshold=self.breaker_failure_threshold,
            reset_timeout=self.breaker_reset_timeout,
            half_open_probes=self.breaker_half_open_probes,
        )

    def make_limiter(self) -> AimdLimiter:
        """An AIMD concurrency limiter for the IA->LRS edge."""
        return AimdLimiter(initial=self.limiter_initial, max_limit=self.limiter_max)
