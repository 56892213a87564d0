"""Elastic scaling of the proxy layers.

The paper observes that shuffling latency explodes when a deployment
is over-provisioned (per-instance traffic too low to fill buffers)
and that throughput collapses when under-provisioned, so "the two
proxy layers need to elastically scale up and down based on observed
request load, dynamically implementing a compromise between
throughput and latency" (§5).  :class:`ElasticScaler` implements that
policy: it keeps the observed per-instance request rate inside a
target band by adding instances (attested + provisioned through the
normal flow) or retiring them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.proxy.service import PProxService, layer_pool
from repro.simnet.clock import EventLoop, Periodic

__all__ = ["ElasticScaler", "ScalingDecision"]


@dataclass(frozen=True)
class ScalingDecision:
    """One autoscaler action, for the audit log."""

    time: float
    layer: str
    action: str
    instances_after: int
    observed_rps_per_instance: float


@dataclass
class ElasticScaler(Periodic):
    """Keeps per-instance load inside ``[low_rps, high_rps]``.

    The paper's single-instance capacity is ~250 RPS; the default
    band scales up at 220 RPS per instance (before saturation) and
    down below 60 RPS (where S=10 shuffle delay becomes SLO-hostile).
    """

    loop: EventLoop
    service: PProxService
    low_rps: float = 60.0
    high_rps: float = 220.0
    interval: float = 10.0
    min_instances: int = 1
    max_instances: int = 8
    #: Scale a layer up when any live instance's ingress sojourn (its
    #: :meth:`overload_signal`) exceeds this, even if the rate band
    #: looks fine — standing queues mean the rate signal is lying
    #: (shed requests never count as processed).  ``None`` disables
    #: the overload trigger.
    overload_sojourn_threshold: Optional[float] = None
    #: When set (e.g. to :meth:`repro.proxy.epochs.RotationCoordinator.
    #: guard`), scale-downs of a layer are deferred while the guard
    #: returns True for it: a retired instance's enclave may hold the
    #: only previous-epoch secrets still needed by in-flight traffic.
    rotation_guard: Optional[Callable[[str], bool]] = None
    overload_scale_ups: int = 0
    deferred_scale_downs: int = 0
    decisions: List[ScalingDecision] = field(default_factory=list)
    _last_counts: dict = field(default_factory=dict)

    def start(self) -> None:
        """Begin periodic evaluation; rates count from the totals now."""
        if self._running is None:
            self._snapshot()
        super().start()

    def _period(self) -> float:
        return self.interval

    def _processed(self) -> dict:
        return {
            layer: sum(i.requests_processed for i in self.service.layer_instances(layer))
            for layer in ("UA", "IA")
        }

    def _snapshot(self) -> None:
        self._last_counts = self._processed()

    def _step(self) -> None:
        current = self._processed()
        for layer in ("UA", "IA"):
            # Capacity decisions count only live instances — a failed
            # one still shows in the inventory but serves nothing.
            live = [i for i in self.service.layer_instances(layer) if i.alive]
            processed = current[layer] - self._last_counts.get(layer, 0)
            rate = processed / self.interval / max(len(live), 1)
            self._evaluate(layer, rate, len(live), live)
        self._snapshot()

    def _overloaded(self, live: List) -> bool:
        if self.overload_sojourn_threshold is None:
            return False
        return any(
            instance.overload_signal().queue_sojourn > self.overload_sojourn_threshold
            for instance in live
        )

    def _evaluate(
        self, layer: str, rate: float, count: int, live: Optional[List] = None
    ) -> None:
        # ``None`` (not a shared tuple masquerading as a List) is the
        # no-liveness-info sentinel; normalize once so every branch
        # sees a real list.
        live = list(live) if live is not None else []
        if self._overloaded(live) and count < self.max_instances:
            self.service.scale(layer)
            self.overload_scale_ups += 1
            self.decisions.append(
                ScalingDecision(self.loop.now, layer, "scale-up-overload", count + 1, rate)
            )
            return
        if rate > self.high_rps and count < self.max_instances:
            self.service.scale(layer)
            self.decisions.append(
                ScalingDecision(self.loop.now, layer, "scale-up", count + 1, rate)
            )
        elif rate < self.low_rps and count > self.min_instances:
            if self.rotation_guard is not None and self.rotation_guard(layer):
                self.deferred_scale_downs += 1
                self.decisions.append(
                    ScalingDecision(self.loop.now, layer, "scale-down-deferred", count, rate)
                )
                return
            # Scale down: remove the most recently added instance from
            # the balancer (it finishes in-flight work and is retired).
            instances, balancer = layer_pool(self.service, layer)
            instance = instances.pop()
            # A dead instance may already have been ejected by the
            # health monitor.
            if instance in balancer.backends:
                balancer.remove(instance)
            self.decisions.append(
                ScalingDecision(self.loop.now, layer, "scale-down", count - 1, rate)
            )
