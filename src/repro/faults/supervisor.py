"""Fault supervisor: arms a plan against a live deployment.

The supervisor is the policy half of the subsystem: it walks a
:class:`~repro.faults.plan.FaultPlan`, schedules every event on the
virtual clock, and drives the mechanisms — ``instance.fail()`` plus
:meth:`repro.proxy.service.PProxService.restart_instance` for crashes,
the :class:`~repro.faults.netfaults.NetworkFaultController` for wire
faults, and :class:`~repro.faults.brownout.BrownoutLrs` for LRS
degradation.  Every injection and recovery is recorded as a structured
``chaos`` fault event (window boundaries, not per-message, so the
event log stays small and byte-deterministic).

Recovery of in-flight work is *not* the supervisor's job: the health
monitor ejects/readmits balancer backends, the shuffle buffers drain on
crash, and clients retry with backoff — the supervisor only breaks
things on schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.faults.brownout import BrownoutLrs
from repro.faults.netfaults import NetworkFaultController
from repro.faults.plan import FaultEvent, FaultPlan
from repro.proxy.service import PProxService
from repro.simnet.clock import EventLoop
from repro.telemetry.types import TelemetryLike

__all__ = ["FaultSupervisor"]


@dataclass
class FaultSupervisor:
    """Schedules a fault plan and injects it into a deployment."""

    loop: EventLoop
    service: PProxService
    netfaults: NetworkFaultController
    #: Brownout wrapper around the LRS, if the deployment has one.
    lrs: Optional[BrownoutLrs] = None
    telemetry: Optional[TelemetryLike] = None
    #: Injection bookkeeping.
    crashes_injected: int = 0
    restarts_completed: int = 0
    windows_opened: int = 0
    skipped: int = 0
    armed_events: List[FaultEvent] = field(default_factory=list)

    def arm(self, plan: FaultPlan) -> None:
        """Schedule every event of *plan* on the virtual clock."""
        self.netfaults.install()
        for event in plan:
            self.armed_events.append(event)
            self.loop.schedule_at(
                max(self.loop.now, event.at),
                lambda ev=event: self._inject(ev),
            )

    # -- dispatch -------------------------------------------------------

    def _inject(self, event: FaultEvent) -> None:
        handler = getattr(self, f"_inject_{event.kind}")
        handler(event)

    def _inject_crash(self, event: FaultEvent) -> None:
        instance = self._find_instance(event.target)
        if instance is None or not instance.alive:
            # Already dead (overlapping crash events) or unknown name.
            self.skipped += 1
            self._emit({"event": "fault_skipped", **event.to_dict()})
            return
        drained = instance.fail()
        self.crashes_injected += 1
        self._emit({
            "event": "instance_crashed",
            "instance": instance.name,
            "generation": instance.generation,
            "drained": drained,
            **event.to_dict(),
        })
        if event.duration > 0:
            self.loop.schedule(
                event.duration, lambda: self._restart(instance)
            )

    def _restart(self, instance: Any) -> None:
        if instance.alive:
            return
        # restart_instance re-creates the enclave and completes
        # attestation + key re-provisioning *before* flipping alive, so
        # the health monitor can never readmit an unprovisioned backend.
        self.service.restart_instance(instance)
        self.restarts_completed += 1
        self._emit({
            "event": "instance_restarted",
            "instance": instance.name,
            "generation": instance.generation,
            "attested": instance.enclave.attested,
            # Key generation the fresh enclave was provisioned at: lets
            # a rotation post-mortem confirm that a mid-drill restart
            # came back on the current epoch, not a stale one.
            "key_generation": self.service.provisioner.key_generation,
        })

    def _inject_partition(self, event: FaultEvent) -> None:
        role_a, _, role_b = event.target.partition("|")
        if not role_a or not role_b:
            raise ValueError(
                f"partition target must be 'roleA|roleB', got {event.target!r}"
            )
        self.netfaults.begin_partition(role_a, role_b)
        self._open_window(event)
        self.loop.schedule(event.duration, lambda: self._heal_partition(event, role_a, role_b))

    def _heal_partition(self, event: FaultEvent, role_a: str, role_b: str) -> None:
        self.netfaults.end_partition(role_a, role_b)
        self._close_window(event)

    def _inject_drop(self, event: FaultEvent) -> None:
        self.netfaults.begin_drop(event.magnitude)
        self._open_window(event)

        def heal() -> None:
            self.netfaults.end_drop(event.magnitude)
            self._close_window(event)

        self.loop.schedule(event.duration, heal)

    def _inject_delay(self, event: FaultEvent) -> None:
        self.netfaults.begin_delay(event.magnitude)
        self._open_window(event)

        def heal() -> None:
            self.netfaults.end_delay(event.magnitude)
            self._close_window(event)

        self.loop.schedule(event.duration, heal)

    def _inject_brownout(self, event: FaultEvent) -> None:
        if self.lrs is None:
            self.skipped += 1
            self._emit({"event": "fault_skipped", **event.to_dict()})
            return
        self.lrs.begin(event.magnitude)
        self._open_window(event)

        def heal() -> None:
            self.lrs.end()
            self._close_window(event)

        self.loop.schedule(event.duration, heal)

    # -- helpers --------------------------------------------------------

    def _find_instance(self, name: str) -> Optional[Any]:
        for instance in self.service.ua_instances + self.service.ia_instances:
            if instance.name == name:
                return instance
        return None

    def _open_window(self, event: FaultEvent) -> None:
        self.windows_opened += 1
        self._emit({"event": "fault_window_open", **event.to_dict()})

    def _close_window(self, event: FaultEvent) -> None:
        self._emit({"event": "fault_window_closed", **event.to_dict()})

    def _emit(self, payload: Dict[str, Any]) -> None:
        if self.telemetry is not None:
            self.telemetry.emit_fault("chaos", payload)
