"""Rotation scenario: epoch-based live re-key under traffic (drill).

The breach response of footnote 1 stops the world; a production RaaS
fleet cannot.  This scenario rotates the UA layer's keys while a
steady request mix flows, with a crash of a rotating instance and a
network partition injected mid-drill, and asserts the three promises
of :mod:`repro.proxy.epochs`:

* **zero downtime** — no client call is ever aborted by the rotation
  (availability stays exactly 1.0; retries/hedges may fire, failures
  may not);
* **the anonymity floor holds** — every shuffle batch *released*
  during the dual-epoch window has size >= S, so the effective
  anonymity set never drops below ``S*I`` at any point an adversary
  could observe (crash drains discard their batch — nothing thinned
  reaches the wire);
* **restart safety** — the drill pauses (never aborts) while the
  rotating layer is degraded and resumes where it stood once the
  supervisor restarts + the health monitor readmits the instance.

A wiretapping :class:`~repro.privacy.adversary.Adversary` rides the
whole run: the epoch tag must never be visible beyond the client->UA
hop, and the user pseudonyms observed on the inner hops before the
announce must be disjoint from those after retirement (no wire
identifier is linkable across epochs).

Determinism: everything runs on the virtual clock from named RNG
streams, so a fixed seed reproduces the identical drill event stream
(and, in a fresh process, a byte-identical telemetry artifact — the
CI job diffs two separate invocations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.context import Deployment, SimContext
from repro.crypto.keys import KeyFactory
from repro.faults import FaultSupervisor, NetworkFaultController
from repro.faults.plan import FaultEvent, FaultPlan
from repro.lrs.service import HarnessService
from repro.obs.slo import Objective, SloEngine, histogram_quantile
from repro.privacy.adversary import Adversary
from repro.privacy.wire import epoch_tag_exposures
from repro.proxy.config import PProxConfig
from repro.proxy.epochs import RotationCoordinator
from repro.simnet.metrics import LatencyRecorder
from repro.telemetry import Telemetry, instrument_stack
from repro.workload.injector import Injector

__all__ = [
    "RotationResult",
    "run_rotation",
    "rotation_slo_objectives",
    "default_rotation_config",
    "default_rotation_plan",
]


def default_rotation_config() -> PProxConfig:
    """Two instances per layer (a crash leaves a surviving backend),
    S=4 with a timeout comfortably under the drill's retire grace."""
    return PProxConfig(
        ua_instances=2,
        ia_instances=2,
        shuffle_size=4,
        shuffle_timeout=0.25,
        balancing="round-robin",
    )


@dataclass
class RotationResult:
    """Outcome of one live-rotation drill (all counters per-run)."""

    seed: int
    rps: float
    duration: float
    announce_at: float
    #: Workload outcome.
    issued: int = 0
    completed: int = 0
    failed: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)
    retries_performed: int = 0
    hedges_launched: int = 0
    retryable_errors: int = 0
    timeouts: int = 0
    epoch_bumps: int = 0
    #: Injected damage and its recovery.
    crashes_injected: int = 0
    restarts_completed: int = 0
    failovers: int = 0
    readmissions: int = 0
    partition_drops: int = 0
    stale_generation_blocks: int = 0
    #: Drill progress.
    rotation_completed: bool = False
    final_state: str = "idle"
    old_epoch: Optional[int] = None
    new_epoch: Optional[int] = None
    window_seconds: float = 0.0
    pauses: int = 0
    pause_reasons: Dict[str, int] = field(default_factory=dict)
    reprovisions: int = 0
    ticks: int = 0
    rekey_events_processed: int = 0
    rekey_users_rekeyed: int = 0
    translate_cache_hits: int = 0
    translate_cache_misses: int = 0
    #: Dual-epoch window evidence.
    previous_epoch_decrypts: int = 0
    epoch_tags_seen: int = 0
    #: Privacy checks.
    shuffle_size: int = 0
    ia_instances: int = 0
    window_flushes: int = 0
    min_window_flush: Optional[int] = None
    tag_exposures: List[str] = field(default_factory=list)
    cross_epoch_user_overlap: int = 0
    pre_announce_pseudonyms: int = 0
    post_retire_pseudonyms: int = 0
    audit_violations: int = 0
    #: Structured ``rotation`` events, in emission order (the
    #: determinism check compares this stream across same-seed runs).
    rotation_events: List[Dict[str, Any]] = field(default_factory=list)
    #: SLO verdict (:class:`repro.obs.slo.SloReport`) when the drill ran
    #: under an engine; excluded from ``to_dict`` — callers write it as
    #: its own ``slo.json`` artifact.
    slo_report: Optional[Any] = None

    @property
    def required_anonymity(self) -> int:
        """The ``S*I`` bound the drill must never undercut."""
        return self.shuffle_size * max(1, self.ia_instances)

    @property
    def effective_anonymity_floor(self) -> int:
        """Worst released-batch anonymity inside the window."""
        if self.min_window_flush is None:
            return 0
        return self.min_window_flush * max(1, self.ia_instances)

    def problems(self) -> List[str]:
        """Acceptance-check failures (empty when the drill passed)."""
        found: List[str] = []
        if not self.rotation_completed:
            found.append(
                f"rotation never retired the old epoch (state {self.final_state!r},"
                f" pauses {self.pause_reasons})"
            )
        if self.failed:
            found.append(f"{self.failed} client call(s) aborted during the drill")
        if self.crashes_injected == 0:
            found.append("no crash was injected into the rotating layer")
        if self.restarts_completed != self.crashes_injected:
            found.append(
                f"{self.crashes_injected} crashes but only"
                f" {self.restarts_completed} restarts completed"
            )
        if self.pauses == 0:
            found.append("the drill never paused (crash mid-window went unnoticed)")
        if self.previous_epoch_decrypts == 0:
            found.append("no request ever exercised the dual-epoch window")
        if self.window_flushes == 0:
            found.append("no shuffle batch was released during the window")
        elif self.min_window_flush is not None and self.min_window_flush < self.shuffle_size:
            found.append(
                f"anonymity floor violated: a batch of {self.min_window_flush}"
                f" (< S={self.shuffle_size}) was released mid-window"
            )
        if self.tag_exposures:
            found.append(
                f"epoch tag visible beyond client->ua: {self.tag_exposures[0]}"
            )
        if self.cross_epoch_user_overlap:
            found.append(
                f"{self.cross_epoch_user_overlap} user pseudonym(s) linkable"
                " across epochs"
            )
        if self.audit_violations:
            found.append(f"redaction audit found {self.audit_violations} leak(s)")
        return found

    @property
    def ok(self) -> bool:
        return not self.problems()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (rotation_events excluded; see artifact)."""
        return {
            "seed": self.seed,
            "rps": self.rps,
            "duration": self.duration,
            "announce_at": self.announce_at,
            "issued": self.issued,
            "completed": self.completed,
            "failed": self.failed,
            "outcomes": dict(self.outcomes),
            "retries_performed": self.retries_performed,
            "hedges_launched": self.hedges_launched,
            "retryable_errors": self.retryable_errors,
            "timeouts": self.timeouts,
            "epoch_bumps": self.epoch_bumps,
            "crashes_injected": self.crashes_injected,
            "restarts_completed": self.restarts_completed,
            "failovers": self.failovers,
            "readmissions": self.readmissions,
            "partition_drops": self.partition_drops,
            "stale_generation_blocks": self.stale_generation_blocks,
            "rotation_completed": self.rotation_completed,
            "final_state": self.final_state,
            "old_epoch": self.old_epoch,
            "new_epoch": self.new_epoch,
            "window_seconds": self.window_seconds,
            "pauses": self.pauses,
            "pause_reasons": dict(self.pause_reasons),
            "reprovisions": self.reprovisions,
            "ticks": self.ticks,
            "rekey_events_processed": self.rekey_events_processed,
            "rekey_users_rekeyed": self.rekey_users_rekeyed,
            "translate_cache_hits": self.translate_cache_hits,
            "translate_cache_misses": self.translate_cache_misses,
            "previous_epoch_decrypts": self.previous_epoch_decrypts,
            "epoch_tags_seen": self.epoch_tags_seen,
            "shuffle_size": self.shuffle_size,
            "ia_instances": self.ia_instances,
            "window_flushes": self.window_flushes,
            "min_window_flush": self.min_window_flush,
            "required_anonymity": self.required_anonymity,
            "effective_anonymity_floor": self.effective_anonymity_floor,
            "tag_exposure_count": len(self.tag_exposures),
            "cross_epoch_user_overlap": self.cross_epoch_user_overlap,
            "pre_announce_pseudonyms": self.pre_announce_pseudonyms,
            "post_retire_pseudonyms": self.post_retire_pseudonyms,
            "rotation_event_count": len(self.rotation_events),
            "audit_violations": self.audit_violations,
        }


def default_rotation_plan(config: PProxConfig, announce_at: float) -> FaultPlan:
    """Crash a rotating-layer instance mid-window, partition the proxy
    layers briefly during re-encryption — both must pause, not abort.

    Times are relative to traffic start; the runner shifts them onto
    the virtual clock.
    """
    return FaultPlan.from_events(
        [
            FaultEvent(
                at=announce_at + 0.5, kind="crash", target="pprox-ua-0", duration=0.5
            ),
            FaultEvent(
                at=announce_at + 0.3, kind="partition", target="ua|ia", duration=0.2
            ),
        ]
    )


def rotation_slo_objectives(
    required_anonymity: float,
    goodput_floor: float = 0.995,
    pause_ceiling: float = 3.0,
    p99_ceiling: float = 2.5,
) -> List[Objective]:
    """The live-rotation drill's objectives.

    Rotation promises zero downtime, so goodput is a near-1.0 ratio
    (retries ride over the injected crash/partition; only a failure
    would dent it).  The anonymity floor is hard — a source that only
    reports while the dual-epoch window is open samples ``min released
    flush x I`` at exactly the instants an adversary can observe.  The
    pause budget bounds how long the drill may sit degraded: the crash
    plus partition must pause the rotation, but the supervisor restart
    and health-monitor readmission must unstick it well inside the
    ceiling.
    """
    return [
        Objective(
            name="goodput",
            kind="ratio",
            target=goodput_floor,
            good="completed",
            total="issued",
            description="Fraction of issued calls completed during the drill.",
        ),
        Objective(
            name="anonymity_floor",
            kind="floor",
            target=required_anonymity,
            value="anonymity_floor",
            description="min released flush x IA instances inside the dual window.",
        ),
        Objective(
            name="rotation_pause_seconds",
            kind="ceiling",
            target=pause_ceiling,
            value="rotation_pause_seconds",
            description="Accumulated wall of drill-paused state (virtual seconds).",
        ),
        Objective(
            name="p99_latency_seconds",
            kind="ceiling",
            target=p99_ceiling,
            value="p99_latency_seconds",
            description="p99 of client-observed end-to-end latency.",
        ),
    ]


def run_rotation(
    seed: int = 11,
    rps: float = 140.0,
    duration: float = 10.0,
    *,
    announce_at: float = 2.0,
    preload_events: int = 160,
    config: Optional[PProxConfig] = None,
    plan: Optional[FaultPlan] = None,
    telemetry: Optional[Telemetry] = None,
    slo: Optional[SloEngine] = None,
    probe_interval: float = 0.1,
    grace: float = 6.0,
) -> RotationResult:
    """Run the live-rotation drill once; returns its :class:`RotationResult`.

    *preload_events* feedback posts are stored (and the recommender
    trained) before traffic starts, so the online re-encryption has a
    real old-epoch prefix to translate while new-epoch rows keep
    arriving on top of it.  Pass an :class:`SloEngine` as *slo* to
    sample burn rates live (attached after preload, so the series
    covers only the drill) and attach an ``slo_report`` verdict.
    """
    telemetry = telemetry if telemetry is not None else Telemetry(scrape_interval=1.0)
    ctx = SimContext.fresh(seed, telemetry=telemetry)
    telemetry.bind(ctx.loop, run_label=f"rotation/seed{seed}")

    harness = HarnessService(
        loop=ctx.loop, rng=ctx.rng.stream("lrs"), frontend_count=3
    )
    harness.engine.trainer.llr_threshold = 0.0
    pprox_config = config if config is not None else default_rotation_config()
    deployment = Deployment.build(
        ctx=ctx, config=pprox_config, lrs_picker=harness.pick_frontend
    )
    service = deployment.service

    adversary = Adversary()
    adversary.attach(ctx.network)
    adversary.observe_lrs(harness.engine.store)

    #: epoch_ttl models a stale client population: material is cached
    #: for a second, so requests sealed under the outgoing keys keep
    #: arriving after the announce and the dual window does real work.
    client = deployment.client(
        request_timeout=0.8,
        max_retries=5,
        backoff_base=0.05,
        backoff_jitter=0.02,
        hedge_delay=0.4,
        epoch_ttl=1.0,
    )
    monitor = deployment.health_monitor(interval=probe_interval)

    netfaults = NetworkFaultController(
        network=ctx.network, rng=ctx.rng.stream("netfaults")
    )
    supervisor = FaultSupervisor(
        loop=ctx.loop, service=service, netfaults=netfaults, telemetry=telemetry
    )

    coordinator = RotationCoordinator(
        loop=ctx.loop,
        service=service,
        layer="UA",
        store=harness.engine.store,
        provider=ctx.resolved_provider(),
        factory=KeyFactory(
            rsa_bits=1024,
            rng_int=ctx.rng.int_fn("rot"),
            rng_bytes=ctx.rng.bytes_fn("rot-b"),
        ),
        on_cutover=harness.train,
        batch_size=8,
        tick_interval=0.05,
        retire_grace=0.6,
        telemetry=telemetry,
    )

    injector = Injector(
        loop=ctx.loop, rng=ctx.rng.stream("injector"),
        recorder=LatencyRecorder("rotation"),
    )
    instrument_stack(
        telemetry,
        service=service,
        provider=ctx.resolved_provider(),
        lrs=harness,
        injector=injector,
        network=ctx.network,
        monitor=monitor,
        client=client,
        supervisor=supervisor,
        rotation=coordinator,
    )

    # The window sampler: record every *released* batch so the
    # anonymity floor can be checked at exactly the instants an
    # adversary sees.
    flush_samples: List[Tuple[float, int]] = []
    for instance in service.ua_instances + service.ia_instances:
        buffer = instance.shuffle_buffer
        if buffer is not None:
            buffer.chain_on_flush(
                lambda size, timer_fired: flush_samples.append((ctx.loop.now, size))
            )

    # Old-epoch prefix: store + train before any rotation machinery
    # runs (the monitor/supervisor/coordinator are not started yet, so
    # this bare loop.run() terminates).  Counts are a multiple of 2*S
    # so round-robin leaves no partial batch behind for the timer.
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

    # Traffic, faults and the drill are all scheduled relative to the
    # post-preload clock so preload cost never shifts the drill.
    start, end = injector.inject(rps, duration, issue)

    if slo is not None:
        if slo.telemetry is None:
            slo.telemetry = telemetry
        ia_count = len(service.ia_instances)
        latency_hist = telemetry.registry.histogram(
            "pprox_request_latency_seconds",
            "End-to-end client-observed request latency.",
        )

        def anonymity_floor_source() -> Optional[float]:
            opened = coordinator.window_opened_at
            if opened is None:
                return None
            closed = coordinator.window_closed_at
            sizes = [
                size
                for at, size in flush_samples
                if at >= opened and (closed is None or at <= closed)
            ]
            if not sizes:
                return None
            return float(min(sizes) * ia_count)

        # Integrate paused time tick-by-tick: each sample adds the gap
        # since the previous one iff the coordinator is currently
        # paused (interval-resolution, deterministic on virtual time).
        pause_clock = {"seconds": 0.0, "last": None}

        def pause_seconds_source() -> float:
            now = ctx.loop.now
            last = pause_clock["last"]
            if last is not None and coordinator.paused:
                pause_clock["seconds"] += now - last
            pause_clock["last"] = now
            return pause_clock["seconds"]

        slo.track("issued", lambda: injector.report.issued)
        slo.track("completed", lambda: injector.report.completed)
        slo.track("anonymity_floor", anonymity_floor_source)
        slo.track("rotation_pause_seconds", pause_seconds_source)
        slo.track(
            "p99_latency_seconds", lambda: histogram_quantile(latency_hist, 0.99)
        )
        # Bounded at the drain horizon (the telemetry scraper also
        # re-arms while work is pending; two unbounded tickers would
        # keep each other alive and the final run() would never drain).
        slo.attach(ctx.loop, until=end + grace)

    monitor.start()
    relative_plan = (
        plan if plan is not None else default_rotation_plan(pprox_config, announce_at)
    )
    supervisor.arm(relative_plan.shifted(start))
    coordinator.start(start + announce_at)
    ctx.loop.run_until(end + grace)
    monitor.stop()
    if not coordinator.completed:
        # Never hang the runner on a drill that is still pausing at
        # traffic end; the result records the non-retired state.
        coordinator.stop()
    ctx.loop.run()

    window_samples = [
        size
        for at, size in flush_samples
        if coordinator.window_opened_at is not None
        and at >= coordinator.window_opened_at
        and (coordinator.window_closed_at is None or at <= coordinator.window_closed_at)
    ]
    before = adversary.pseudonyms_observed(
        until=coordinator.window_opened_at if coordinator.window_opened_at else 0.0
    )
    after = adversary.pseudonyms_observed(
        since=(
            coordinator.window_closed_at
            if coordinator.window_closed_at is not None
            else float("inf")
        )
    )
    overlap = before["user"] & after["user"]

    rekey_report = (
        coordinator.rekeyer.report() if coordinator.rekeyer is not None else None
    )
    result = RotationResult(
        seed=seed, rps=rps, duration=duration, announce_at=announce_at,
        issued=injector.report.issued,
        completed=injector.report.completed,
        failed=injector.report.failed,
        outcomes=dict(client.outcomes),
        retries_performed=client.retries_performed,
        hedges_launched=client.hedges_launched,
        retryable_errors=client.retryable_errors,
        timeouts=client.timeouts,
        epoch_bumps=client.epoch_bumps,
        crashes_injected=supervisor.crashes_injected,
        restarts_completed=supervisor.restarts_completed,
        failovers=monitor.failovers,
        readmissions=len(monitor.readmitted),
        partition_drops=netfaults.partition_drops,
        stale_generation_blocks=monitor.stale_generation_blocks,
        rotation_completed=coordinator.completed,
        final_state=coordinator.state,
        old_epoch=coordinator.old_epoch,
        new_epoch=coordinator.new_epoch,
        window_seconds=coordinator.dual_window_seconds,
        pauses=coordinator.pauses,
        pause_reasons=dict(coordinator.pause_reasons),
        reprovisions=coordinator.reprovisions,
        ticks=coordinator.ticks,
        rekey_events_processed=rekey_report.events_processed if rekey_report else 0,
        rekey_users_rekeyed=rekey_report.users_rekeyed if rekey_report else 0,
        translate_cache_hits=rekey_report.translate_cache_hits if rekey_report else 0,
        translate_cache_misses=(
            rekey_report.translate_cache_misses if rekey_report else 0
        ),
        previous_epoch_decrypts=sum(
            instance.previous_epoch_decrypts for instance in service.ua_instances
        ),
        epoch_tags_seen=sum(
            instance.epoch_tags_seen for instance in service.ua_instances
        ),
        shuffle_size=pprox_config.shuffle_size,
        ia_instances=len(service.ia_instances),
        window_flushes=len(window_samples),
        min_window_flush=min(window_samples) if window_samples else None,
        tag_exposures=epoch_tag_exposures(adversary.observations),
        cross_epoch_user_overlap=len(overlap),
        pre_announce_pseudonyms=len(before["user"]),
        post_retire_pseudonyms=len(after["user"]),
        rotation_events=[
            event.to_dict()
            for event in telemetry.event_log.events
            if event.kind == "rotation"
        ],
        audit_violations=len(telemetry.audit()),
    )
    if slo is not None:
        result.slo_report = slo.evaluate(
            rotation_slo_objectives(float(result.required_anonymity)),
            experiment="rotation",
        )
    telemetry.finalize_run(
        extra={"scenario": "rotation", "seed": seed, **result.to_dict()}
    )
    return result
