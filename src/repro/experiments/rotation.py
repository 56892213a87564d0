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
from typing import Any, Dict, List, Optional

from repro.crypto.keys import KeyFactory
from repro.experiments.rig import (
    POST_SHARE,
    DrillRig,
    Flush,
    print_summary,
    summarize,
    write_verdict,
)
from repro.faults.plan import FaultEvent, FaultPlan
from repro.obs.slo import Objective, SloReport
from repro.privacy.wire import epoch_tag_exposures
from repro.proxy.config import PProxConfig
from repro.proxy.epochs import RotationCoordinator
from repro.telemetry import Telemetry

__all__ = [
    "RotationResult",
    "run_rotation",
    "gate",
    "rotation_slo_objectives",
    "ROTATION_CONFIG",
    "ANNOUNCE_AT",
    "default_rotation_plan",
]

#: Two instances per layer (a crash leaves a surviving backend), S=4
#: with a timeout comfortably under the drill's retire grace.
ROTATION_CONFIG = PProxConfig(
    ua_instances=2,
    ia_instances=2,
    shuffle_size=4,
    shuffle_timeout=0.25,
    balancing="round-robin",
)

#: Seconds after traffic start at which the new epoch is announced.
ANNOUNCE_AT = 2.0


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
    #: The drill's SLO verdict, set by :func:`run_rotation`; excluded
    #: from ``to_dict`` — the gate writes it as its own ``slo.json``.
    slo_report: Optional[SloReport] = None

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
        """JSON-ready summary (exposures and events as counts)."""
        return summarize(
            self,
            counted=("tag_exposures", "rotation_events"),
            derived=("required_anonymity", "effective_anonymity_floor"),
        )


def default_rotation_plan() -> FaultPlan:
    """Crash a rotating-layer instance mid-window, partition the proxy
    layers briefly during re-encryption — both must pause, not abort.

    Times are relative to traffic start; the runner shifts them onto
    the virtual clock.
    """
    return FaultPlan.from_events(
        [
            FaultEvent(
                at=ANNOUNCE_AT + 0.5, kind="crash", target="pprox-ua-0", duration=0.5
            ),
            FaultEvent(
                at=ANNOUNCE_AT + 0.3, kind="partition", target="ua|ia", duration=0.2
            ),
        ]
    )


#: The drill's targets (ceilings in virtual seconds); why, see below.
GOODPUT_FLOOR = 0.995
PAUSE_CEILING = 3.0
P99_CEILING = 2.5


def rotation_slo_objectives(required_anonymity: float) -> List[Objective]:
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
            target=GOODPUT_FLOOR,
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
            target=PAUSE_CEILING,
            value="rotation_pause_seconds",
            description="Accumulated wall of drill-paused state (virtual seconds).",
        ),
        Objective(
            name="p99_latency_seconds",
            kind="ceiling",
            target=P99_CEILING,
            value="p99_latency_seconds",
            description="p99 of client-observed end-to-end latency.",
        ),
    ]


def run_rotation(
    seed: int = 11,
    rps: float = 140.0,
    duration: float = 10.0,
    *,
    telemetry: Optional[Telemetry] = None,
) -> RotationResult:
    """Run the live-rotation drill once; returns its :class:`RotationResult`.

    A feedback prefix is stored (and the recommender trained) before
    traffic starts, so the online re-encryption has a real old-epoch
    prefix to translate while new-epoch rows keep arriving on top of
    it.  The SLO engine attaches after preload, so the series behind
    ``slo_report`` covers only the drill.
    """
    rig = DrillRig("rotation", seed, grace=6.0, telemetry=telemetry, frontends=3)
    #: epoch_ttl models a stale client population: material is cached
    #: for a second, so requests sealed under the outgoing keys keep
    #: arriving after the announce and the dual window does real work.
    rig.deploy(
        ROTATION_CONFIG,
        request_timeout=0.8,
        max_retries=5,
        backoff_base=0.05,
        backoff_jitter=0.02,
        hedge_delay=0.4,
        epoch_ttl=1.0,
    )
    service, harness = rig.service, rig.lrs
    adversary, _ = rig.observe_wire()
    monitor = rig.add_monitor(interval=0.1)
    supervisor = rig.add_fault_rig()
    coordinator = RotationCoordinator(
        loop=rig.loop,
        service=service,
        layer="UA",
        store=harness.engine.store,
        provider=rig.ctx.resolved_provider(),
        factory=KeyFactory(
            rsa_bits=1024,
            rng_int=rig.rng.int_fn("rot"),
            rng_bytes=rig.rng.bytes_fn("rot-b"),
        ),
        on_cutover=harness.train,
        batch_size=8,
        tick_interval=0.05,
        retire_grace=0.6,
        telemetry=rig.telemetry,
    )
    rig.instrument(rotation=coordinator)
    rig.preload()
    rig.offer(rps, duration, post_share=POST_SHARE)

    def window_flushes() -> List[Flush]:
        """The batches *released* inside the dual-epoch window —
        exactly the instants an adversary can observe."""
        opened, closed = coordinator.window_opened_at, coordinator.window_closed_at
        if opened is None:
            return []
        return rig.released(opened, float("inf") if closed is None else closed)

    # Integrate paused time tick-by-tick: each sample adds the gap
    # since the previous one iff the coordinator is currently paused
    # (interval-resolution, deterministic on virtual time).
    pause_clock = {"seconds": 0.0, "last": None}

    def pause_seconds_source() -> float:
        now = rig.loop.now
        last = pause_clock["last"]
        if last is not None and coordinator.paused:
            pause_clock["seconds"] += now - last
        pause_clock["last"] = now
        return pause_clock["seconds"]

    rig.watch({
        "anonymity_floor": lambda: rig.anonymity_floor(window_flushes()),
        "rotation_pause_seconds": pause_seconds_source,
    })

    monitor.start()
    supervisor.arm(default_rotation_plan().shifted(rig.start))
    coordinator.start(rig.start + ANNOUNCE_AT)
    # Stopping the coordinator never hangs the runner on a drill that
    # is still pausing at traffic end (a no-op once retired); the
    # result records the non-retired state.
    rig.run(stop=[monitor, coordinator])

    window_samples = [flush.size for flush in window_flushes()]
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
        seed=seed, rps=rps, duration=duration, announce_at=ANNOUNCE_AT,
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
        shuffle_size=ROTATION_CONFIG.shuffle_size,
        ia_instances=len(service.ia_instances),
        window_flushes=len(window_samples),
        min_window_flush=min(window_samples, default=None),
        tag_exposures=epoch_tag_exposures(adversary.observations),
        cross_epoch_user_overlap=len(overlap),
        pre_announce_pseudonyms=len(before["user"]),
        post_retire_pseudonyms=len(after["user"]),
        rotation_events=rig.events("rotation"),
        **rig.counters_for(RotationResult),
    )
    result.slo_report = rig.finish(
        result.to_dict(), rotation_slo_objectives(float(result.required_anonymity))
    )
    return result


def gate(out_dir: str) -> List[str]:
    """``repro run rotation``: the default drill, its telemetry
    artifact, its ``slo.json`` and its zero-downtime / anonymity checks."""
    telemetry = Telemetry(scrape_interval=1.0)
    result = run_rotation(telemetry=telemetry)
    print_summary("rotation drill summary", result.to_dict(), (
        "seed", "issued", "completed", "failed",
        "old_epoch", "new_epoch", "final_state", "window_seconds",
        "pauses", "pause_reasons", "reprovisions",
        "rekey_events_processed", "previous_epoch_decrypts",
        "epoch_tags_seen", "epoch_bumps",
        "crashes_injected", "restarts_completed", "partition_drops",
        "min_window_flush", "effective_anonymity_floor", "required_anonymity",
        "cross_epoch_user_overlap", "outcomes",
    ))
    telemetry.write_artifact(out_dir)
    return write_verdict(result.slo_report, out_dir, result.problems())
