"""Fault supervisor: arms a plan against a live deployment.

The supervisor is the policy half of the subsystem and the one
scheduler of a drill's operator timeline: it walks a
:class:`~repro.faults.plan.FaultPlan`, schedules every entry on the
virtual clock, and drives the mechanisms — ``instance.fail()`` plus
:meth:`repro.proxy.service.PProxService.restart_instance` for crashes,
the :class:`~repro.faults.netfaults.NetworkFaultController` for wire
faults, :class:`~repro.faults.brownout.BrownoutLrs` for LRS
degradation, and the executors of the operator verbs (a
:class:`~repro.proxy.epochs.RotationCoordinator` for ``rotate``, a
:class:`~repro.fleet.supervisor.FleetSupervisor` for ``split``).
Every fault injection and recovery is recorded as a structured
``chaos`` fault event (window boundaries, not per-message, so the event
log stays small and byte-deterministic); a verb's executor books its
own events.

Recovery of in-flight work is *not* the supervisor's job: the health
monitor ejects/readmits balancer backends, the shuffle buffers drain on
crash, and clients retry with backoff — the supervisor only breaks
things on schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from repro.faults.brownout import BrownoutLrs
from repro.faults.netfaults import NetworkFaultController
from repro.faults.plan import FaultEvent, FaultPlan
from repro.proxy.service import PProxService
from repro.simnet.clock import EventLoop
from repro.telemetry.hub import Telemetry

__all__ = ["FaultSupervisor"]


@dataclass
class FaultSupervisor:
    """Schedules a fault plan and injects it into a deployment."""

    loop: EventLoop
    service: PProxService
    netfaults: NetworkFaultController
    #: Brownout wrapper around the LRS, if the deployment has one.
    lrs: Optional[BrownoutLrs] = None
    #: Executor of ``rotate`` (a RotationCoordinator), if any.
    rotation: Any = None
    #: Executor of ``split`` (a FleetSupervisor), if any.
    fleet: Any = None
    telemetry: Optional[Telemetry] = None
    #: Injection bookkeeping.
    crashes_injected: int = 0
    restarts_completed: int = 0
    windows_opened: int = 0
    skipped: int = 0

    def check(self, plan: FaultPlan) -> None:
        """Refuse a plan holding a verb no executor here can apply."""
        for event in plan:
            if event.kind == "rotate" and (
                self.rotation is None or self.rotation.layer != event.target
            ):
                raise ValueError(f"no rotation coordinator for layer {event.target!r}")
            if event.kind == "split" and self.fleet is None:
                raise ValueError(f"{event.kind} needs a fleet supervisor")

    def arm(self, plan: FaultPlan) -> None:
        """Schedule every entry of *plan*, its ``at`` counted from now.

        Each entry is stamped with its absolute instant, which is what
        its fault events carry.  An empty plan installs no wire filter.
        """
        self.check(plan)
        if plan:
            self.netfaults.install()
        start = self.loop.now
        for event in plan:
            stamped = replace(event, at=start + event.at)
            self.loop.schedule_at(stamped.at, lambda ev=stamped: self._inject(ev))

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

    def _inject_rotate(self, event: FaultEvent) -> None:
        self.rotation.announce()

    def _inject_split(self, event: FaultEvent) -> None:
        self.fleet.split(event.target)

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
