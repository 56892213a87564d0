"""Shard lifecycle supervision: split/merge that never thins a batch.

:class:`FleetSupervisor` owns the shard state machine
(``provision -> live -> splitting/merging -> draining -> retired``)
under the pause-never-abort discipline of
:func:`repro.proxy.epochs.hold_reason`: a periodic tick advances at
most one phase, and any condition that could thin the anonymity set —
an instance of an involved shard down, a released flush below the
floor, an overload signal — holds the operation where it stands until
the condition clears.  Nothing is ever rolled back and no request is
aborted on behalf of a reconfiguration.

Handoff barriers:

* **split** — the new shard is fully provisioned (enclaves created,
  attested, keyed — and at the *current* epoch generation when epochs
  are live) before the ring flips; after the flip the source keeps
  serving and every batch it buffered pre-flip is released within one
  shuffle timeout, so the operation completes only after
  ``max(shuffle_timeout, drain_grace)`` of quiet.
* **merge** — the ring flips the source out first (its key ranges fall
  to ring successors), then the source drains in place: it leaves
  service only once its buffers are empty *and* the quiet period has
  passed, so in-flight batches flush on the old shard at full size.

The supervisor also runs the fleet's per-shard health probing — the
same :func:`repro.cluster.health.liveness_pass` as
:class:`~repro.cluster.health.HealthMonitor`, which only watches the
global balancers — over the shard balancer and the global one together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cluster.autoscaler import ElasticScaler, ScalingDecision
from repro.cluster.health import liveness_pass
from repro.fleet.ring import Shard
from repro.fleet.service import ShardedPProxService
from repro.proxy.epochs import HoldTheLine, hold_reason
from repro.proxy.service import layer_pool
from repro.simnet.clock import EventLoop

__all__ = [
    "FleetSupervisor",
    "ShardOperation",
    "ShardAutoscaler",
]


@dataclass
class ShardOperation:
    """One in-flight split or merge, with its phase timeline."""

    kind: str  # "split" | "merge"
    source: Shard
    target: Shard
    started_at: float
    #: "prepare" -> "handoff" (split) / "drain" (merge) -> done.
    phase: str = "prepare"
    flipped_at: Optional[float] = None
    completed_at: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    def shards(self) -> List[Shard]:
        return [self.source, self.target]


@dataclass
class FleetSupervisor(HoldTheLine):
    """Owns shard lifecycle, probing, and split/merge handoffs."""

    loop: EventLoop
    fleet: ShardedPProxService
    telemetry: Any = None
    tick_interval: float = 0.1
    #: Post-flip quiet period; the effective barrier is
    #: ``max(shuffle_timeout, drain_grace)``.
    drain_grace: float = 0.5
    ticks: int = 0
    splits_started: int = 0
    splits_completed: int = 0
    merges_started: int = 0
    merges_completed: int = 0
    ejections: int = 0
    readmissions: int = 0
    reprovisions: int = 0
    operations: List[ShardOperation] = field(default_factory=list)
    _running: bool = False

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Begin the probe/advance tick loop."""
        if self._running:
            return
        self._running = True
        self.loop.schedule(self.tick_interval, self._tick)

    def stop(self) -> None:
        """Halt ticking where it stands (operations stay parked)."""
        self._running = False

    def guard(self, layer: str) -> bool:
        """Autoscaler guard: True while any shard is mid-operation.

        A splitting source holds batches that must drain at full size
        and a merging source's enclaves still serve in-flight traffic,
        so instance retirement must wait — same contract as
        :meth:`RotationCoordinator.guard`, covering both layers.
        """
        return any(not op.done for op in self.operations)

    @property
    def active_operations(self) -> List[ShardOperation]:
        return [op for op in self.operations if not op.done]

    # -- operations -----------------------------------------------------

    def split(self, source_id: str) -> Shard:
        """Start splitting *source_id*: provision a sibling shard now,
        flip the ring only once the sibling passes the key barrier."""
        source = self.fleet.directory.shards[source_id]
        if source.state != "live":
            raise ValueError(
                f"shard {source_id} is {source.state}, not live; cannot split"
            )
        source.set_state("splitting")
        target = self.fleet.add_shard(activate=False)
        op = ShardOperation(
            kind="split", source=source, target=target, started_at=self.loop.now
        )
        self.operations.append(op)
        self.splits_started += 1
        self._emit(
            {
                "event": "shard_split_started",
                "source": source.shard_id,
                "target": target.shard_id,
            }
        )
        return target

    def merge(self, source_id: str, into_id: str) -> None:
        """Start merging *source_id* away; its ranges fall to ring
        successors (*into_id* among them) at the flip."""
        source = self.fleet.directory.shards[source_id]
        target = self.fleet.directory.shards[into_id]
        if source.state != "live":
            raise ValueError(
                f"shard {source_id} is {source.state}, not live; cannot merge"
            )
        if target.state != "live" or source_id == into_id:
            raise ValueError(f"shard {into_id} cannot absorb {source_id}")
        source.set_state("merging")
        op = ShardOperation(
            kind="merge", source=source, target=target, started_at=self.loop.now
        )
        self.operations.append(op)
        self.merges_started += 1
        self._emit(
            {
                "event": "shard_merge_started",
                "source": source.shard_id,
                "into": target.shard_id,
            }
        )

    # -- tick loop ------------------------------------------------------

    def _tick(self) -> None:
        if not self._running:
            return
        self.ticks += 1
        self._probe()
        active = self.active_operations
        if active:
            # Hold-the-line check, scoped to shards touched by operations.
            involved = {
                shard.shard_id: shard for op in active for shard in op.shards()
            }
            reason = hold_reason(
                (inst for shard in involved.values() for inst in shard.instances()),
                self.fleet.config.shuffle_size,
            )
            if self._hold(
                reason, {"event": "fleet_paused", "reason": reason}, {"event": "fleet_resumed"}
            ):
                for op in active:
                    self._advance(op)
        self.loop.schedule(self.tick_interval, self._tick)

    def _probe(self) -> None:
        """Per-shard health pass: eject dead, readmit verified-alive."""
        for shard in self.fleet.directory.shards.values():
            if shard.state == "retired":
                continue
            for layer in ("UA", "IA"):
                instances, balancer = layer_pool(shard, layer)
                for transition, instance in liveness_pass(
                    instances,
                    (balancer, layer_pool(self.fleet, layer)[1]),
                    layer,
                    self.fleet.provisioner,
                ):
                    if transition == "reprovisioned":
                        self.reprovisions += 1
                        continue
                    if transition == "ejected":
                        self.ejections += 1
                        event = "shard_instance_ejected"
                    else:
                        self.readmissions += 1
                        event = "shard_instance_readmitted"
                    self._emit(
                        {
                            "event": event,
                            "shard": shard.shard_id,
                            "layer": layer,
                            "instance": instance.name,
                        }
                    )

    def _barrier_met(self, shard: Shard) -> bool:
        """Key/attestation barrier: every enclave of *shard* is alive,
        attested, and provisioned at the active generation."""
        provisioner = self.fleet.provisioner
        for instance in shard.instances():
            if not instance.alive or not instance.enclave.attested:
                return False
            if provisioner.epochs_enabled and not provisioner.verify_generation(
                instance.enclave
            ):
                provisioner.reprovision(
                    "UA" if instance in shard.ua_instances else "IA",
                    instance.enclave,
                )
                self.reprovisions += 1
        return True

    def _quiet_period(self) -> float:
        return max(self.fleet.config.shuffle_timeout, self.drain_grace)

    def _advance(self, op: ShardOperation) -> None:
        directory = self.fleet.directory
        if op.kind == "split":
            if op.phase == "prepare":
                if not self._barrier_met(op.target):
                    return
                op.target.set_state("live")
                directory.activate(op.target.shard_id)
                op.flipped_at = self.loop.now
                op.phase = "handoff"
                self._emit(
                    {
                        "event": "shard_ring_flipped",
                        "change": "split",
                        "source": op.source.shard_id,
                        "target": op.target.shard_id,
                    }
                )
                return
            if op.phase == "handoff":
                # Every batch the source buffered before the flip has
                # been released (size- or timer-flushed) once a full
                # shuffle timeout has passed; hold the extra grace so
                # the flush-floor pause check above sees them land.
                if self.loop.now - op.flipped_at < self._quiet_period():
                    return
                op.source.set_state("live")
                op.completed_at = self.loop.now
                op.phase = "done"
                self.splits_completed += 1
                self._emit(
                    {
                        "event": "shard_split_completed",
                        "source": op.source.shard_id,
                        "target": op.target.shard_id,
                        "seconds": op.completed_at - op.started_at,
                    }
                )
            return
        # merge
        if op.phase == "prepare":
            directory.deactivate(op.source.shard_id)
            op.source.set_state("draining")
            op.flipped_at = self.loop.now
            op.phase = "drain"
            self._emit(
                {
                    "event": "shard_ring_flipped",
                    "change": "merge",
                    "source": op.source.shard_id,
                    "target": op.target.shard_id,
                }
            )
            return
        if op.phase == "drain":
            if self.loop.now - op.flipped_at < self._quiet_period():
                return
            if any(inst.pending for inst in op.source.instances()):
                return
            self.fleet.remove_shard(op.source)
            op.completed_at = self.loop.now
            op.phase = "done"
            self.merges_completed += 1
            self._emit(
                {
                    "event": "shard_merge_completed",
                    "source": op.source.shard_id,
                    "into": op.target.shard_id,
                    "seconds": op.completed_at - op.started_at,
                }
            )

    def _emit(self, payload: Dict[str, Any]) -> None:
        if self.telemetry is not None:
            self.telemetry.event_log.emit("fleet", "operator", payload)


@dataclass
class ShardAutoscaler(ElasticScaler):
    """Shard-granular elastic scaling on the per-instance rate band.

    Reuses :class:`ElasticScaler`'s band fields and decision log but
    acts through the supervisor: a hot shard (per-live-instance rate
    above ``high_rps``) is split, a cold one (below ``low_rps``)
    merged into a sibling — each deferred, never forced, while another
    operation is in flight.
    """

    supervisor: Optional[FleetSupervisor] = None
    max_shards: int = 8
    _last_shard_counts: Dict[str, int] = field(default_factory=dict)

    def _shard_processed(self) -> Dict[str, int]:
        fleet: ShardedPProxService = self.service
        return {
            shard.shard_id: sum(i.requests_processed for i in shard.ua_instances)
            for shard in fleet.directory.shards.values()
            if shard.state not in ("retired",)
        }

    def _snapshot(self) -> None:
        self._last_shard_counts = self._shard_processed()

    def _tick(self) -> None:
        if not self._running:
            return
        supervisor = self.supervisor
        fleet: ShardedPProxService = self.service
        current = self._shard_processed()
        rates: Dict[str, float] = {}
        for shard_id, processed in current.items():
            shard = fleet.directory.shards.get(shard_id)
            if shard is None or shard.state != "live":
                continue
            live = sum(1 for i in shard.ua_instances if i.alive)
            delta = processed - self._last_shard_counts.get(shard_id, 0)
            rates[shard_id] = delta / self.interval / max(live, 1)
        if rates and supervisor is not None:
            live_shards = [
                sid
                for sid in rates
                if fleet.directory.shards[sid].state == "live"
            ]
            hottest = max(rates, key=lambda sid: rates[sid])
            coldest = min(rates, key=lambda sid: rates[sid])
            if rates[hottest] > self.high_rps and len(live_shards) < self.max_shards:
                if supervisor.guard("UA"):
                    self.deferred_scale_downs += 1
                    self.decisions.append(
                        ScalingDecision(
                            self.loop.now, f"shard:{hottest}", "split-deferred",
                            len(live_shards), rates[hottest],
                        )
                    )
                else:
                    supervisor.split(hottest)
                    self.decisions.append(
                        ScalingDecision(
                            self.loop.now, f"shard:{hottest}", "split",
                            len(live_shards) + 1, rates[hottest],
                        )
                    )
            elif rates[coldest] < self.low_rps and len(live_shards) > 1:
                if supervisor.guard("UA"):
                    self.deferred_scale_downs += 1
                    self.decisions.append(
                        ScalingDecision(
                            self.loop.now, f"shard:{coldest}", "merge-deferred",
                            len(live_shards), rates[coldest],
                        )
                    )
                else:
                    into = next(
                        sid for sid in live_shards if sid != coldest
                    )
                    supervisor.merge(coldest, into)
                    self.decisions.append(
                        ScalingDecision(
                            self.loop.now, f"shard:{coldest}", "merge",
                            len(live_shards) - 1, rates[coldest],
                        )
                    )
        self._snapshot()
        self.loop.schedule(self.interval, self._tick)
