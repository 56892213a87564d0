"""Health checking of proxy instances (kube-proxy endpoint pruning).

Kubernetes removes failed pods from a Service's endpoint set once
probes fail, and adds them back when their readiness probe passes;
:class:`HealthMonitor` models both halves.  It probes every instance's
``alive`` flag on an interval, ejects dead ones from their load
balancer so new traffic stops being routed into the void, and readmits
instances that came back (an instance only flips alive again after
:meth:`repro.proxy.service.PProxService.restart_instance` completed
re-attestation and re-provisioning, so a readmitted backend always
holds valid layer keys).  Requests already lost inside a dead instance
are recovered by the client library's timeout + retry (see
:class:`repro.client.library.PProxClient`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.proxy.service import PProxService, layer_pool
from repro.sgx.provisioning import KeyProvisioner
from repro.simnet.clock import EventLoop
from repro.simnet.loadbalancer import LoadBalancer
from repro.telemetry.types import TelemetryLike

__all__ = ["HealthMonitor", "liveness_pass"]


def liveness_pass(
    instances: Iterable[Any],
    balancers: Sequence[LoadBalancer],
    layer: str,
    provisioner: Optional[KeyProvisioner],
) -> Iterator[Tuple[str, Any]]:
    """One probe of *layer*'s *instances*, pooled in every one of
    *balancers* (the first is authoritative): eject the dead, readmit
    the recovered.  Yields ``(transition, instance)`` — ``"ejected"``,
    ``"reprovisioned"``, ``"readmitted"`` — as each happens, in
    instance order, so the caller books it under its own names.
    """
    for instance in instances:
        if not instance.alive:
            if balancers[0].eject(instance):
                for balancer in balancers[1:]:
                    balancer.eject(instance)
                yield "ejected", instance
        elif not balancers[0].contains(instance):
            # Readiness passed: the instance restarted with a freshly
            # attested, re-provisioned enclave.  Before readmitting,
            # re-verify its key generation — an enclave that missed an
            # epoch announcement (or was restarted from a stale image)
            # must never rejoin a balancer mid-rotation with old keys.
            # A multi-tenant service has no provisioner (each tenant
            # provisions its own keys), hence no generation to verify.
            if provisioner is not None and not provisioner.verify_generation(
                instance.enclave
            ):
                provisioner.reprovision(layer, instance.enclave)
                yield "reprovisioned", instance
            for balancer in balancers:
                balancer.readmit(instance)
            yield "readmitted", instance


@dataclass
class HealthMonitor:
    """Periodically ejects dead instances and readmits recovered ones."""

    loop: EventLoop
    service: PProxService
    interval: float = 2.0
    ejected: List[str] = field(default_factory=list)
    readmitted: List[str] = field(default_factory=list)
    #: Optional telemetry hub; ejections/readmissions are recorded as
    #: structured ``fault`` events and the eject->readmit span feeds
    #: the ``pprox_recovery_seconds`` histogram.
    telemetry: Optional[TelemetryLike] = None
    #: Flag an instance as overloaded (operator event) when its ingress
    #: sojourn exceeds this; cleared when it drops back under.  ``None``
    #: disables overload probing.
    overload_sojourn_threshold: Optional[float] = None
    #: Readmissions that first required re-provisioning because the
    #: instance's enclave held a stale key generation (it restarted or
    #: was partitioned across an epoch announcement).
    stale_generation_blocks: int = 0
    _running: bool = False
    _ejected_at: Dict[str, float] = field(default_factory=dict)
    _overloaded_now: set = field(default_factory=set)

    def start(self) -> None:
        """Begin probing."""
        if self._running:
            return
        self._running = True
        self.loop.schedule(self.interval, self._probe)

    def stop(self) -> None:
        """Stop probing (the next tick becomes a no-op)."""
        self._running = False

    @property
    def failovers(self) -> int:
        """Backends ejected over this monitor's lifetime."""
        return len(self.ejected)

    def _probe(self) -> None:
        if not self._running:
            return
        for layer in ("UA", "IA"):
            instances, balancer = layer_pool(self.service, layer)
            for transition, instance in liveness_pass(
                instances, (balancer,), layer, self.service.provisioner
            ):
                if transition == "ejected":
                    self.ejected.append(instance.name)
                    self._ejected_at[instance.name] = self.loop.now
                    self._fault(
                        {
                            "event": "instance_ejected",
                            "instance": instance.name,
                            "balancer": balancer.name,
                        }
                    )
                elif transition == "reprovisioned":
                    self.stale_generation_blocks += 1
                    self._fault(
                        {
                            "event": "stale_generation_reprovisioned",
                            "instance": instance.name,
                            "layer": layer,
                        }
                    )
                else:
                    self.readmitted.append(instance.name)
                    self._record_recovery(instance, balancer.name)
            for instance in instances:
                self._probe_overload(instance)
        self.loop.schedule(self.interval, self._probe)

    def _fault(self, payload: Dict[str, Any]) -> None:
        if self.telemetry is not None:
            self.telemetry.emit_fault("operator", payload)

    def _probe_overload(self, instance) -> None:
        """Edge-triggered operator events from the overload signal."""
        if self.overload_sojourn_threshold is None:
            return
        overloaded = (
            instance.alive
            and instance.overload_signal().queue_sojourn > self.overload_sojourn_threshold
        )
        was = instance.name in self._overloaded_now
        if overloaded == was:
            return
        if overloaded:
            self._overloaded_now.add(instance.name)
        else:
            self._overloaded_now.discard(instance.name)
        self._fault(
            {
                "event": "instance_overloaded" if overloaded else "instance_overload_cleared",
                "instance": instance.name,
            }
        )

    def _record_recovery(self, instance, balancer_name: str) -> None:
        ejected_at = self._ejected_at.pop(instance.name, None)
        if self.telemetry is None:
            return
        payload = {
            "event": "instance_readmitted",
            "instance": instance.name,
            "balancer": balancer_name,
            "generation": instance.generation,
            "attested": instance.enclave.attested,
        }
        if ejected_at is not None:
            recovery_seconds = self.loop.now - ejected_at
            payload["recovery_seconds"] = recovery_seconds
            self.telemetry.registry.histogram(
                "pprox_recovery_seconds",
                "Time from balancer ejection to readmission of an instance.",
                buckets=(0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0),
            ).observe(recovery_seconds)
        self.telemetry.emit_fault("operator", payload)
