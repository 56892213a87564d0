"""Chaos scenario: availability under injected faults (recovery drill).

The paper's deployment assumes Kubernetes supervision: "failed pods
are restarted" and kube-proxy stops routing to failed endpoints.  This
scenario measures that story end to end in the simulator: a seeded
:class:`~repro.faults.plan.FaultPlan` crashes enclave instances,
partitions the proxy layers, drops and delays wire traffic and browns
out the LRS — while health probes eject and readmit backends, crashed
instances re-attest and re-provision before serving again, and the
client library rides over the damage with timeouts, backoff retries
and hedges.

The headline number is **availability**: the fraction of issued calls
that eventually completed OK.  The scenario fails if availability
drops below the configured floor, if any crash went unrecovered, or if
the telemetry redaction audit is not clean on the error paths.

Determinism: everything runs on the virtual clock from named RNG
streams, so a fixed seed reproduces the identical fault/recovery event
stream (and, in a fresh process, a byte-identical telemetry artifact —
request-id allocation is process-global, which is why the CI job diffs
two separate invocations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.context import Deployment, SimContext
from repro.faults import ChaosSpec, FaultSupervisor, NetworkFaultController
from repro.faults.brownout import BrownoutLrs
from repro.lrs.stub import StubLrs, make_pseudonymous_payload
from repro.obs.slo import Objective, SloEngine, histogram_quantile
from repro.proxy.config import PProxConfig
from repro.simnet.metrics import LatencyRecorder
from repro.telemetry import Telemetry, instrument_stack
from repro.workload.injector import Injector

__all__ = [
    "ChaosResult",
    "run_chaos",
    "default_chaos_config",
    "chaos_slo_objectives",
    "DEFAULT_AVAILABILITY_FLOOR",
]

#: Default availability floor: with retries + hedging the client rides
#: over crashes, partitions and brownouts for the vast majority of
#: calls; only requests whose full retry budget lands inside fault
#: windows are lost.
DEFAULT_AVAILABILITY_FLOOR = 0.9


def default_chaos_config() -> PProxConfig:
    """Two instances per layer so a crash leaves a surviving backend."""
    return PProxConfig(
        ua_instances=2,
        ia_instances=2,
        shuffle_size=4,
        shuffle_timeout=0.2,
        balancing="round-robin",
    )


@dataclass
class ChaosResult:
    """Outcome of one chaos run (all counters are per-run)."""

    seed: int
    rps: float
    duration: float
    availability_floor: float
    issued: int = 0
    completed: int = 0
    failed: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)
    retries_performed: int = 0
    hedges_launched: int = 0
    retryable_errors: int = 0
    timeouts: int = 0
    crashes_injected: int = 0
    restarts_completed: int = 0
    failovers: int = 0
    readmissions: int = 0
    partition_drops: int = 0
    random_drops: int = 0
    delays_injected: int = 0
    brownout_rejected: int = 0
    brownout_slowed: int = 0
    stale_responses: int = 0
    transform_errors: int = 0
    #: The structured ``fault`` events, in emission order (the
    #: determinism check compares this stream across same-seed runs).
    fault_events: List[Dict[str, Any]] = field(default_factory=list)
    audit_violations: int = 0
    #: SLO verdict (:class:`repro.obs.slo.SloReport`) when the run was
    #: handed an engine; excluded from ``to_dict`` — callers write it
    #: as its own ``slo.json`` artifact.
    slo_report: Optional[Any] = None

    @property
    def availability(self) -> float:
        """Fraction of issued calls that completed OK."""
        return self.completed / self.issued if self.issued else 1.0

    @property
    def recovered(self) -> bool:
        """Every injected crash was restarted and readmitted."""
        return (
            self.restarts_completed == self.crashes_injected
            and self.readmissions == self.failovers
        )

    def problems(self) -> List[str]:
        """Acceptance-check failures (empty when the drill passed)."""
        found: List[str] = []
        if self.availability < self.availability_floor:
            found.append(
                f"availability {self.availability:.3f} below floor"
                f" {self.availability_floor:.3f}"
            )
        if self.crashes_injected == 0:
            found.append("no enclave crash was injected")
        if self.restarts_completed != self.crashes_injected:
            found.append(
                f"{self.crashes_injected} crashes but only"
                f" {self.restarts_completed} restarts completed"
            )
        if self.failovers == 0:
            found.append("health monitor never ejected a dead backend")
        if self.readmissions != self.failovers:
            found.append(
                f"{self.failovers} ejections but {self.readmissions} readmissions"
            )
        if self.partition_drops + self.random_drops + self.delays_injected == 0:
            found.append("no network fault ever hit a message")
        if self.brownout_rejected + self.brownout_slowed == 0:
            found.append("the LRS brownout never degraded a request")
        if self.audit_violations:
            found.append(f"redaction audit found {self.audit_violations} leak(s)")
        return found

    @property
    def ok(self) -> bool:
        return not self.problems()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (fault_events excluded; see the artifact)."""
        return {
            "seed": self.seed,
            "rps": self.rps,
            "duration": self.duration,
            "availability": self.availability,
            "availability_floor": self.availability_floor,
            "issued": self.issued,
            "completed": self.completed,
            "failed": self.failed,
            "outcomes": dict(self.outcomes),
            "retries_performed": self.retries_performed,
            "hedges_launched": self.hedges_launched,
            "retryable_errors": self.retryable_errors,
            "timeouts": self.timeouts,
            "crashes_injected": self.crashes_injected,
            "restarts_completed": self.restarts_completed,
            "failovers": self.failovers,
            "readmissions": self.readmissions,
            "partition_drops": self.partition_drops,
            "random_drops": self.random_drops,
            "delays_injected": self.delays_injected,
            "brownout_rejected": self.brownout_rejected,
            "brownout_slowed": self.brownout_slowed,
            "stale_responses": self.stale_responses,
            "transform_errors": self.transform_errors,
            "fault_event_count": len(self.fault_events),
            "audit_violations": self.audit_violations,
        }


def chaos_slo_objectives(
    availability_floor: float = DEFAULT_AVAILABILITY_FLOOR,
    full_batch_floor: float = 0.85,
    p99_ceiling: float = 2.5,
) -> List[Objective]:
    """The chaos drill's declarative objectives.

    Under chaos the anonymity promise is honestly a *ratio*, not a hard
    floor: failovers legitimately timer-flush a partial batch when the
    balancer stops routing to an ejected instance (the entries must be
    released — holding them would trade availability for anonymity).
    The SLO therefore budgets thin batches instead of pretending they
    cannot happen: at least *full_batch_floor* of released batches must
    be at full size S.
    """
    return [
        Objective(
            name="goodput",
            kind="ratio",
            target=availability_floor,
            good="completed",
            total="issued",
            description="Fraction of issued calls that completed OK.",
        ),
        Objective(
            name="anonymity_floor",
            kind="ratio",
            target=full_batch_floor,
            good="full_flushes",
            total="released_flushes",
            description="Fraction of released shuffle batches at full size S.",
        ),
        Objective(
            name="p99_latency_seconds",
            kind="ceiling",
            target=p99_ceiling,
            value="p99_latency_seconds",
            description="p99 of client-observed end-to-end latency.",
        ),
    ]


def run_chaos(
    seed: int = 7,
    rps: float = 60.0,
    duration: float = 12.0,
    *,
    availability_floor: float = DEFAULT_AVAILABILITY_FLOOR,
    spec: Optional[ChaosSpec] = None,
    config: Optional[PProxConfig] = None,
    telemetry: Optional[Telemetry] = None,
    slo: Optional[SloEngine] = None,
    probe_interval: float = 0.25,
    grace: float = 8.0,
) -> ChaosResult:
    """Run the chaos drill once and return its :class:`ChaosResult`.

    *grace* seconds of drain time after the injection phase let
    backoff retries, hedges and the last fault windows resolve before
    counters are read.  Pass an :class:`SloEngine` as *slo* to sample
    burn rates live and attach an ``slo_report`` verdict to the result.
    """
    telemetry = telemetry if telemetry is not None else Telemetry(scrape_interval=1.0)
    ctx = SimContext.fresh(seed, telemetry=telemetry)
    telemetry.bind(ctx.loop, run_label=f"chaos/seed{seed}")

    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    brownout = BrownoutLrs(inner=stub, loop=ctx.loop, rng=ctx.rng.stream("brownout"))
    pprox_config = config if config is not None else default_chaos_config()
    deployment = Deployment.build(
        ctx=ctx, config=pprox_config, lrs_picker=lambda: brownout
    )
    service = deployment.service
    if pprox_config.encryption and pprox_config.item_pseudonymization:
        stub.items = make_pseudonymous_payload(
            ctx.resolved_provider(), service.provisioner.layer_keys["IA"].symmetric_key
        )

    client = deployment.client(
        request_timeout=0.8,
        max_retries=5,
        backoff_base=0.05,
        backoff_jitter=0.02,
        hedge_delay=0.4,
    )
    monitor = deployment.health_monitor(interval=probe_interval)
    monitor.start()

    netfaults = NetworkFaultController(
        network=ctx.network, rng=ctx.rng.stream("netfaults")
    )
    supervisor = FaultSupervisor(
        loop=ctx.loop,
        service=service,
        netfaults=netfaults,
        lrs=brownout,
        telemetry=telemetry,
    )
    chaos_spec = spec if spec is not None else ChaosSpec(horizon=duration)
    plan = chaos_spec.sample(
        ctx.rng,
        ua_names=[instance.name for instance in service.ua_instances],
        ia_names=[instance.name for instance in service.ia_instances],
    )
    supervisor.arm(plan)

    injector = Injector(
        loop=ctx.loop, rng=ctx.rng.stream("injector"),
        recorder=LatencyRecorder("chaos"),
    )
    instrument_stack(
        telemetry,
        service=service,
        provider=ctx.resolved_provider(),
        lrs=brownout,
        injector=injector,
        network=ctx.network,
        monitor=monitor,
        client=client,
        supervisor=supervisor,
    )

    if slo is not None:
        if slo.telemetry is None:
            slo.telemetry = telemetry
        flush_counts = {"released": 0, "full": 0}
        shuffle_size = pprox_config.shuffle_size
        for instance in service.ua_instances:
            buffer = instance.request_buffer
            if buffer is None:
                continue

            def flush_hook(size: int, timer_fired: bool) -> None:
                flush_counts["released"] += 1
                if size >= shuffle_size:
                    flush_counts["full"] += 1

            buffer.chain_on_flush(flush_hook)
        latency_hist = telemetry.registry.histogram(
            "pprox_request_latency_seconds",
            "End-to-end client-observed request latency.",
        )
        slo.track("issued", lambda: injector.report.issued)
        slo.track("completed", lambda: injector.report.completed)
        slo.track("released_flushes", lambda: flush_counts["released"])
        slo.track("full_flushes", lambda: flush_counts["full"])
        slo.track(
            "p99_latency_seconds", lambda: histogram_quantile(latency_hist, 0.99)
        )

    users = [f"user-{index}" for index in range(200)]
    user_rng = ctx.rng.stream("users")

    def issue(on_complete) -> None:
        client.get(user_rng.choice(users), on_complete=on_complete)

    start, end = injector.inject(rps, duration, issue)
    if slo is not None:
        # Bounded at the drain horizon: the SLO tick and the telemetry
        # scraper both re-arm while the loop has pending work, so an
        # unbounded engine would keep the final ``run()`` alive forever.
        slo.attach(ctx.loop, until=end + grace)
    ctx.loop.run_until(end + grace)
    monitor.stop()
    ctx.loop.run()

    result = ChaosResult(
        seed=seed, rps=rps, duration=duration,
        availability_floor=availability_floor,
        issued=injector.report.issued,
        completed=injector.report.completed,
        failed=injector.report.failed,
        outcomes=dict(client.outcomes),
        retries_performed=client.retries_performed,
        hedges_launched=client.hedges_launched,
        retryable_errors=client.retryable_errors,
        timeouts=client.timeouts,
        crashes_injected=supervisor.crashes_injected,
        restarts_completed=supervisor.restarts_completed,
        failovers=monitor.failovers,
        readmissions=len(monitor.readmitted),
        partition_drops=netfaults.partition_drops,
        random_drops=netfaults.random_drops,
        delays_injected=netfaults.delays_injected,
        brownout_rejected=brownout.rejected,
        brownout_slowed=brownout.slowed,
        stale_responses=sum(
            instance.stale_responses
            for instance in service.ua_instances + service.ia_instances
        ),
        transform_errors=sum(
            instance.transform_errors
            for instance in service.ua_instances + service.ia_instances
        ),
        fault_events=[
            event.to_dict()
            for event in telemetry.event_log.events
            if event.kind == "fault"
        ],
        audit_violations=len(telemetry.audit()),
    )
    if slo is not None:
        result.slo_report = slo.evaluate(
            chaos_slo_objectives(availability_floor), experiment="chaos"
        )
    telemetry.finalize_run(extra={"scenario": "chaos", "seed": seed, **result.to_dict()})
    return result
