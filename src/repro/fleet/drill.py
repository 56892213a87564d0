"""Fleet scenario: whole-failure-domain loss mid-split (drill).

The fleet's operational promise is that *membership churn never costs
a request and never thins a batch*.  This drill arms the worst
correlated failure the placement model allows — an entire failure
domain (one full UA+IA shard) crashing at once — at the most awkward
instant: while another shard is mid-split, with overload protection
armed.  It asserts:

* **zero aborted calls** — the dead shard's key ranges fail over to
  ring siblings (and every retry/hedge re-rolls its nonce, hence its
  shard), so clients ride over the outage on the normal retry path;
* **the anonymity floor holds** — every shuffle batch *released*
  while traffic flows has size >= S, and the effective anonymity
  gauge (flush size x the flushing shard's live IA count) never drops
  below S*I; crash drains discard, they never release;
* **the split never aborts** — the supervisor's handoff barrier
  (keys/epochs provisioned before the ring flips, pre-flip batches
  drained on the source) completes normally despite the chaos;
* **nothing leaks** — epoch/trace/shard-tag/reject/redaction audits
  all come back clean, and the directory's routing keys are provably
  request nonces.

Determinism: virtual clock + named RNG streams + blake2b ring points,
so a fixed seed reproduces the identical drill and (in a fresh
process) byte-identical telemetry artifacts — the CI job diffs two
separate invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.context import Deployment, SimContext
from repro.faults import FaultSupervisor, NetworkFaultController
from repro.fleet.placement import domain_kill_plan, placement_violations
from repro.fleet.service import build_fleet
from repro.fleet.supervisor import FleetSupervisor
from repro.lrs.service import HarnessService
from repro.obs.slo import Objective, SloEngine, histogram_quantile
from repro.overload import OverloadPolicy
from repro.privacy.adversary import Adversary
from repro.privacy.wire import (
    RejectAuditor,
    epoch_tag_exposures,
    shard_routing_violations,
    trace_field_exposures,
)
from repro.proxy.config import PProxConfig
from repro.simnet.metrics import LatencyRecorder
from repro.telemetry import Telemetry, instrument_stack
from repro.workload.injector import Injector

__all__ = [
    "FleetDrillResult",
    "run_fleet_drill",
    "fleet_slo_objectives",
    "default_fleet_config",
    "default_fleet_overload",
]


def default_fleet_config() -> PProxConfig:
    """Per-shard sizing: I=2 per layer, S=4, a shuffle timeout the
    post-split per-instance rate still comfortably beats (so released
    flushes stay full-size while traffic flows)."""
    return PProxConfig(
        ua_instances=2,
        ia_instances=2,
        shuffle_size=4,
        shuffle_timeout=0.35,
        balancing="round-robin",
    )


def default_fleet_overload() -> OverloadPolicy:
    """Overload protection armed wide: bounds are generous enough that
    the drill's load shouldn't shed, but every queue, admission check
    and breaker is live (a shed would still be pre-shuffle only)."""
    return OverloadPolicy(
        ingress_capacity=256,
        max_inflight=64,
        admission_max_sojourn=0.5,
        admission_max_pressure=4.0,
    )


@dataclass
class FleetDrillResult:
    """Outcome of one shard-loss-mid-split drill."""

    seed: int
    rps: float
    duration: float
    split_at: float
    kill_at: float
    outage: float
    #: Workload outcome.
    issued: int = 0
    completed: int = 0
    failed: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)
    retries_performed: int = 0
    hedges_launched: int = 0
    retryable_errors: int = 0
    timeouts: int = 0
    #: Injected damage and recovery.
    crashes_injected: int = 0
    restarts_completed: int = 0
    ejections: int = 0
    readmissions: int = 0
    reprovisions: int = 0
    #: Directory routing evidence.
    routed: int = 0
    failovers: int = 0
    #: Split progress.
    shards_initial: int = 0
    shards_final: int = 0
    splits_started: int = 0
    splits_completed: int = 0
    split_started_at: Optional[float] = None
    split_flipped_at: Optional[float] = None
    split_completed_at: Optional[float] = None
    kill_time: Optional[float] = None
    pauses: int = 0
    pause_reasons: Dict[str, int] = field(default_factory=dict)
    ticks: int = 0
    #: Anonymity evidence (window = while traffic flows).
    shuffle_size: int = 0
    instances_per_shard: int = 0
    window_flushes: int = 0
    min_window_flush: Optional[int] = None
    min_effective_anonymity: Optional[int] = None
    shed_total: int = 0
    #: Audits.
    tag_exposures: List[str] = field(default_factory=list)
    trace_exposures: List[str] = field(default_factory=list)
    shard_violations: List[str] = field(default_factory=list)
    reject_violations: List[str] = field(default_factory=list)
    placement_problems: List[str] = field(default_factory=list)
    audit_violations: int = 0
    #: Structured ``fleet`` events in emission order.
    fleet_events: List[Dict[str, Any]] = field(default_factory=list)
    slo_report: Optional[Any] = None

    @property
    def required_anonymity(self) -> int:
        """The S*I bound (I = live IA instances per shard)."""
        return self.shuffle_size * max(1, self.instances_per_shard)

    @property
    def goodput(self) -> float:
        return self.completed / self.issued if self.issued else 0.0

    def problems(self) -> List[str]:
        """Acceptance-check failures (empty when the drill passed)."""
        found: List[str] = []
        if self.failed:
            found.append(f"{self.failed} client call(s) aborted during the drill")
        if self.goodput < 0.9:
            found.append(
                f"post-failover goodput {self.goodput:.3f} < 0.9"
                f" ({self.completed}/{self.issued})"
            )
        expected_crashes = 2 * self.instances_per_shard
        if self.crashes_injected != expected_crashes:
            found.append(
                f"{self.crashes_injected} crashes injected; a whole-domain kill"
                f" is {expected_crashes}"
            )
        if self.restarts_completed != self.crashes_injected:
            found.append(
                f"{self.crashes_injected} crashes but only"
                f" {self.restarts_completed} restarts completed"
            )
        if self.ejections < self.crashes_injected:
            found.append(
                f"only {self.ejections} ejections for {self.crashes_injected} crashes"
            )
        if self.readmissions < self.ejections:
            found.append(
                f"{self.ejections} ejections but only {self.readmissions} readmissions"
            )
        if self.splits_completed < 1:
            found.append("the split never completed")
        if (
            self.kill_time is not None
            and self.split_started_at is not None
            and self.split_completed_at is not None
            and not (self.split_started_at <= self.kill_time <= self.split_completed_at)
        ):
            found.append(
                f"domain kill at {self.kill_time:.2f} missed the split window"
                f" [{self.split_started_at:.2f}, {self.split_completed_at:.2f}]"
            )
        if self.failovers == 0:
            found.append("the directory never failed a nonce over to a sibling shard")
        if self.window_flushes == 0:
            found.append("no shuffle batch was released while traffic flowed")
        elif self.min_window_flush is not None and self.min_window_flush < self.shuffle_size:
            found.append(
                f"anonymity floor violated: a batch of {self.min_window_flush}"
                f" (< S={self.shuffle_size}) was released mid-drill"
            )
        if (
            self.min_effective_anonymity is not None
            and self.min_effective_anonymity < self.required_anonymity
        ):
            found.append(
                f"effective anonymity gauge dipped to {self.min_effective_anonymity}"
                f" < S*I={self.required_anonymity}"
            )
        if self.tag_exposures:
            found.append(f"epoch tag exposed: {self.tag_exposures[0]}")
        if self.trace_exposures:
            found.append(f"trace id exposed: {self.trace_exposures[0]}")
        if self.shard_violations:
            found.append(f"shard routing audit: {self.shard_violations[0]}")
        if self.reject_violations:
            found.append(f"reject uniformity audit: {self.reject_violations[0]}")
        if self.placement_problems:
            found.append(f"placement audit: {self.placement_problems[0]}")
        if self.audit_violations:
            found.append(f"redaction audit found {self.audit_violations} leak(s)")
        return found

    @property
    def ok(self) -> bool:
        return not self.problems()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (fleet_events excluded; see artifact)."""
        return {
            "seed": self.seed,
            "rps": self.rps,
            "duration": self.duration,
            "split_at": self.split_at,
            "kill_at": self.kill_at,
            "outage": self.outage,
            "issued": self.issued,
            "completed": self.completed,
            "failed": self.failed,
            "goodput": round(self.goodput, 6),
            "outcomes": dict(self.outcomes),
            "retries_performed": self.retries_performed,
            "hedges_launched": self.hedges_launched,
            "retryable_errors": self.retryable_errors,
            "timeouts": self.timeouts,
            "crashes_injected": self.crashes_injected,
            "restarts_completed": self.restarts_completed,
            "ejections": self.ejections,
            "readmissions": self.readmissions,
            "reprovisions": self.reprovisions,
            "routed": self.routed,
            "failovers": self.failovers,
            "shards_initial": self.shards_initial,
            "shards_final": self.shards_final,
            "splits_started": self.splits_started,
            "splits_completed": self.splits_completed,
            "split_started_at": self.split_started_at,
            "split_flipped_at": self.split_flipped_at,
            "split_completed_at": self.split_completed_at,
            "kill_time": self.kill_time,
            "pauses": self.pauses,
            "pause_reasons": dict(self.pause_reasons),
            "ticks": self.ticks,
            "shuffle_size": self.shuffle_size,
            "instances_per_shard": self.instances_per_shard,
            "window_flushes": self.window_flushes,
            "min_window_flush": self.min_window_flush,
            "min_effective_anonymity": self.min_effective_anonymity,
            "required_anonymity": self.required_anonymity,
            "shed_total": self.shed_total,
            "tag_exposure_count": len(self.tag_exposures),
            "trace_exposure_count": len(self.trace_exposures),
            "shard_violation_count": len(self.shard_violations),
            "reject_violation_count": len(self.reject_violations),
            "placement_problem_count": len(self.placement_problems),
            "audit_violations": self.audit_violations,
            "fleet_event_count": len(self.fleet_events),
        }


def fleet_slo_objectives(
    required_anonymity: float,
    goodput_floor: float = 0.9,
    p99_ceiling: float = 2.5,
) -> List[Objective]:
    """The fleet drill's objectives: failover goodput, the hard S*I
    floor, and a bounded client-observed tail."""
    return [
        Objective(
            name="goodput",
            kind="ratio",
            target=goodput_floor,
            good="completed",
            total="issued",
            description="Fraction of issued calls completed despite the domain kill.",
        ),
        Objective(
            name="anonymity_floor",
            kind="floor",
            target=required_anonymity,
            value="anonymity_floor",
            description="min released flush x live IA of the flushing shard.",
        ),
        Objective(
            name="p99_latency_seconds",
            kind="ceiling",
            target=p99_ceiling,
            value="p99_latency_seconds",
            description="p99 of client-observed end-to-end latency.",
        ),
    ]


def run_fleet_drill(
    seed: int = 23,
    rps: float = 360.0,
    duration: float = 10.0,
    *,
    split_at: float = 2.0,
    kill_at: float = 2.25,
    outage: float = 1.2,
    shards: int = 2,
    kill_shard: str = "s1",
    split_shard: str = "s0",
    preload_events: int = 160,
    config: Optional[PProxConfig] = None,
    overload: Optional[OverloadPolicy] = None,
    telemetry: Optional[Telemetry] = None,
    slo: Optional[SloEngine] = None,
    grace: float = 6.0,
) -> FleetDrillResult:
    """Run the shard-loss-mid-split drill once.

    Timeline (relative to traffic start): the supervisor begins
    splitting *split_shard* at *split_at*; at *kill_at* — inside the
    split's handoff window — every instance of *kill_shard*'s failure
    domain crashes for *outage* seconds.
    """
    telemetry = telemetry if telemetry is not None else Telemetry(scrape_interval=1.0)
    ctx = SimContext.fresh(seed, telemetry=telemetry)
    telemetry.bind(ctx.loop, run_label=f"fleet/seed{seed}")

    harness = HarnessService(
        loop=ctx.loop, rng=ctx.rng.stream("lrs"), frontend_count=3
    )
    harness.engine.trainer.llr_threshold = 0.0
    fleet_config = config if config is not None else default_fleet_config()
    policy = overload if overload is not None else default_fleet_overload()
    fleet = build_fleet(
        ctx,
        fleet_config,
        harness.pick_frontend,
        shards=shards,
        overload=policy,
        vnodes=128,
    )
    deployment = Deployment(ctx=ctx, service=fleet, config=fleet_config)

    adversary = Adversary()
    adversary.attach(ctx.network)
    adversary.observe_lrs(harness.engine.store)
    reject_auditor = RejectAuditor()
    ctx.network.add_wiretap(reject_auditor.observe)

    client = deployment.client(
        request_timeout=0.9,
        max_retries=5,
        backoff_base=0.05,
        backoff_jitter=0.02,
        hedge_delay=0.4,
    )

    netfaults = NetworkFaultController(
        network=ctx.network, rng=ctx.rng.stream("netfaults")
    )
    fault_supervisor = FaultSupervisor(
        loop=ctx.loop, service=fleet, netfaults=netfaults, telemetry=telemetry
    )
    supervisor = FleetSupervisor(
        loop=ctx.loop, fleet=fleet, telemetry=telemetry,
        tick_interval=0.1, drain_grace=0.5,
    )

    injector = Injector(
        loop=ctx.loop, rng=ctx.rng.stream("injector"),
        recorder=LatencyRecorder("fleet"),
    )
    instrument_stack(
        telemetry,
        service=fleet,
        provider=ctx.resolved_provider(),
        lrs=harness,
        injector=injector,
        network=ctx.network,
        client=client,
        supervisor=fault_supervisor,
    )

    # Released-flush evidence: (time, size, live IA of the flushing
    # shard at release).  Shards born mid-run (the split target) are
    # hooked through on_shard_added.
    flush_samples: List[Tuple[float, int, int]] = []

    def hook_shard(shard) -> None:
        for instance in shard.instances():
            buffer = instance.shuffle_buffer
            if buffer is None:
                continue
            buffer.chain_on_flush(
                lambda size, timer_fired, _shard=shard: flush_samples.append(
                    (ctx.loop.now, size, _shard.live_ia_count)
                )
            )

    for shard in fleet.directory.shards.values():
        hook_shard(shard)
    fleet.on_shard_added = hook_shard

    # Store + train before the drill (bare loop.run() terminates: no
    # periodic machinery has started yet).
    users = [f"user-{index}" for index in range(40)]
    items = [f"item-{index}" for index in range(12)]
    seed_rng = ctx.rng.stream("preload")
    for index in range(preload_events):
        client.post(users[index % len(users)], seed_rng.choice(items))
    ctx.loop.run()
    harness.train()

    user_rng = ctx.rng.stream("users")

    def issue(on_complete) -> None:
        if user_rng.random() < 0.2:
            client.post(
                user_rng.choice(users), user_rng.choice(items),
                on_complete=on_complete,
            )
        else:
            client.get(user_rng.choice(users), on_complete=on_complete)

    start, end = injector.inject(rps, duration, issue)

    if slo is not None:
        if slo.telemetry is None:
            slo.telemetry = telemetry
        latency_hist = telemetry.registry.histogram(
            "pprox_request_latency_seconds",
            "End-to-end client-observed request latency.",
        )

        def anonymity_floor_source() -> Optional[float]:
            gauges = [
                size * ia_count
                for at, size, ia_count in flush_samples
                if start <= at <= end
            ]
            if not gauges:
                return None
            return float(min(gauges))

        slo.track("issued", lambda: injector.report.issued)
        slo.track("completed", lambda: injector.report.completed)
        slo.track("anonymity_floor", anonymity_floor_source)
        slo.track(
            "p99_latency_seconds", lambda: histogram_quantile(latency_hist, 0.99)
        )
        slo.attach(ctx.loop, until=end + grace)

    kill_domain = fleet.directory.shards[kill_shard].domain
    plan = domain_kill_plan(fleet, kill_domain, at=kill_at, outage=outage)
    fault_supervisor.arm(plan.shifted(start))
    supervisor.start()
    ctx.loop.schedule(
        max(0.0, start + split_at - ctx.loop.now),
        lambda: supervisor.split(split_shard),
    )
    ctx.loop.run_until(end + grace)
    supervisor.stop()
    ctx.loop.run()

    window_samples = [
        (at, size, ia_count)
        for at, size, ia_count in flush_samples
        if start <= at <= end
    ]
    split_ops = [op for op in supervisor.operations if op.kind == "split"]
    split_op = split_ops[0] if split_ops else None
    shed_total = sum(
        getattr(instance, "requests_shed", 0)
        for instance in fleet.ua_instances + fleet.ia_instances
    )
    result = FleetDrillResult(
        seed=seed, rps=rps, duration=duration,
        split_at=split_at, kill_at=kill_at, outage=outage,
        issued=injector.report.issued,
        completed=injector.report.completed,
        failed=injector.report.failed,
        outcomes=dict(client.outcomes),
        retries_performed=client.retries_performed,
        hedges_launched=client.hedges_launched,
        retryable_errors=client.retryable_errors,
        timeouts=client.timeouts,
        crashes_injected=fault_supervisor.crashes_injected,
        restarts_completed=fault_supervisor.restarts_completed,
        ejections=supervisor.ejections,
        readmissions=supervisor.readmissions,
        reprovisions=supervisor.reprovisions,
        routed=fleet.directory.routed,
        failovers=fleet.directory.failovers,
        shards_initial=shards,
        shards_final=sum(
            1 for s in fleet.directory.shards.values() if s.state == "live"
        ),
        splits_started=supervisor.splits_started,
        splits_completed=supervisor.splits_completed,
        split_started_at=split_op.started_at if split_op else None,
        split_flipped_at=split_op.flipped_at if split_op else None,
        split_completed_at=split_op.completed_at if split_op else None,
        kill_time=start + kill_at,
        pauses=supervisor.pauses,
        pause_reasons=dict(supervisor.pause_reasons),
        ticks=supervisor.ticks,
        shuffle_size=fleet_config.shuffle_size,
        instances_per_shard=fleet.instances_per_shard,
        window_flushes=len(window_samples),
        min_window_flush=(
            min(size for _, size, _ in window_samples) if window_samples else None
        ),
        min_effective_anonymity=(
            min(size * ia for _, size, ia in window_samples)
            if window_samples
            else None
        ),
        shed_total=shed_total,
        tag_exposures=epoch_tag_exposures(adversary.observations),
        trace_exposures=trace_field_exposures(adversary.observations),
        shard_violations=shard_routing_violations(
            fleet.directory, adversary.observations
        ),
        reject_violations=reject_auditor.violations(),
        placement_problems=placement_violations(fleet),
        audit_violations=len(telemetry.audit()),
        fleet_events=[
            event.to_dict()
            for event in telemetry.event_log.events
            if event.kind == "fleet"
        ],
    )
    if slo is not None:
        result.slo_report = slo.evaluate(
            fleet_slo_objectives(float(result.required_anonymity)),
            experiment="fleet",
        )
    telemetry.finalize_run(
        extra={"scenario": "fleet", "seed": seed, **result.to_dict()}
    )
    return result
