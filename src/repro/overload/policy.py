"""The overload-protection policy bundle.

One frozen configuration object carries the proxy layers' overload
knobs; :func:`repro.proxy.service.assemble` threads it into
the :class:`~repro.proxy.layers.ProxyRuntime` and each proxy instance
builds its own bounded ingress queue, admission controller and pump
window from it.  ``None`` (the default everywhere) means *no overload
protection*: the data plane behaves byte-for-byte as before this
subsystem existed.  The IA->LRS edge's breaker and limiter are not
knobs here: whoever wraps an LRS in
:class:`~repro.overload.guard.GuardedLrs` constructs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.overload.admission import AdmissionController
from repro.simnet.queueing import CoDelPolicy, ConcurrentQueue, TailDropPolicy

__all__ = ["OverloadPolicy"]

#: Shed policies by name; each ingress queue gets a fresh instance
#: (CoDel keeps per-queue state).
_SHED_POLICIES = {"tail-drop": TailDropPolicy, "codel": CoDelPolicy}


@dataclass(frozen=True)
class OverloadPolicy:
    """Knobs of the overload-protection subsystem (all layers)."""

    #: Bound of each proxy instance's ingress queue.
    ingress_capacity: int = 64
    #: Shed policy name: ``tail-drop`` or ``codel`` (CoDel at its
    #: default target and interval).
    shed_policy: str = "tail-drop"
    #: Jobs an instance keeps in flight at its node before the ingress
    #: pump pauses (raised to cover the shuffle batch, so bounding
    #: concurrency can never starve a batch below ``S``).
    max_inflight: int = 16
    #: Admission thresholds at the UA front door.
    admission_max_sojourn: float = 0.25
    admission_max_pressure: float = 1.0

    def make_ingress_queue(
        self, name: str, clock: Callable[[], float]
    ) -> ConcurrentQueue:
        """A bounded ingress queue configured for one proxy instance."""
        if self.shed_policy not in _SHED_POLICIES:
            raise ValueError(f"unknown shed policy {self.shed_policy!r}")
        return ConcurrentQueue(
            name=name,
            capacity=self.ingress_capacity,
            shed_policy=_SHED_POLICIES[self.shed_policy](),
            clock=clock,
        )

    def make_admission(self) -> AdmissionController:
        """A fresh admission controller for one front-door instance."""
        return AdmissionController(
            max_sojourn=self.admission_max_sojourn,
            max_pressure=self.admission_max_pressure,
        )
