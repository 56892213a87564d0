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

from typing import List, Optional

from repro.crypto.keys import KeyFactory
from repro.experiments.rig import POST_SHARE, DrillRig, Flush, print_summary, write_verdict
from repro.faults.plan import FaultEvent, FaultPlan
from repro.obs.slo import Objective, run_end_objectives
from repro.privacy.wire import epoch_tag_exposures
from repro.proxy.config import PProxConfig
from repro.proxy.epochs import RotationCoordinator
from repro.telemetry import Telemetry

__all__ = [
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

#: The shared counters a rotation drill reports, read after the drain.
COUNTERS = (
    "issued", "completed", "failed", "outcomes", "retries_performed",
    "hedges_launched", "retryable_errors", "timeouts", "epoch_bumps",
    "crashes_injected", "restarts_completed", "failovers", "readmissions",
    "partition_drops", "stale_generation_blocks", "audit_violations",
)


def default_rotation_plan() -> FaultPlan:
    """Announce the UA layer's next epoch, then crash a rotating-layer
    instance mid-window and partition the proxy layers briefly during
    re-encryption — both must pause, not abort.

    Times are relative to traffic start.
    """
    return FaultPlan.from_events(
        [
            FaultEvent(at=ANNOUNCE_AT, kind="rotate", target="UA"),
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
    """The live-rotation drill's objectives — its whole verdict.

    Rotation promises zero downtime, so goodput is a near-1.0 ratio
    (retries ride over the injected crash/partition; only a failure
    would dent it).  The anonymity floor is hard — a source that only
    reports while the dual-epoch window is open samples ``min released
    flush x I`` at exactly the instants an adversary can observe.  The
    pause budget bounds how long the drill may sit degraded: the crash
    plus partition must pause the rotation, but the supervisor restart
    and health-monitor readmission must unstick it well inside the
    ceiling.  The run-end checks ask that the drill retired the old
    epoch with no aborted call, that its crash and its window did real
    work, and that the adversary — who must have seen pseudonyms on
    both sides of the window — links none of them across it.
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
    ] + run_end_objectives(
        ("rotation_completed", "equal", 1, "The rotation retired the old epoch."),
        ("failed", "equal", 0, "No client call was aborted during the drill."),
        ("crashes_injected", "at_least", 1, "A crash was injected into the rotating layer."),
        ("unrestarted_crashes", "equal", 0, "Every crash was restarted (crashes - restarts)."),
        ("pauses", "at_least", 1, "The drill paused (the crash mid-window was noticed)."),
        ("previous_epoch_decrypts", "at_least", 1, "A request exercised the dual-epoch window."),
        ("window_flushes", "at_least", 1, "A shuffle batch was released during the window."),
        ("min_window_flush", "at_least", ROTATION_CONFIG.shuffle_size,
         "No batch smaller than S was released mid-window."),
        ("tag_exposure_count", "equal", 0, "The epoch tag was never visible beyond client->ua."),
        ("pre_announce_pseudonyms", "at_least", 1, "Pseudonyms were seen before the announce."),
        ("post_retire_pseudonyms", "at_least", 1, "Pseudonyms were seen after retirement."),
        ("cross_epoch_user_overlap", "equal", 0, "No user pseudonym is linkable across epochs."),
        ("audit_violations", "equal", 0, "The redaction audit found no leak."),
    )


def run_rotation(
    seed: int = 11,
    rps: float = 140.0,
    duration: float = 10.0,
    *,
    telemetry: Optional[Telemetry] = None,
) -> DrillRig:
    """Run the live-rotation drill once; returns the finished rig (its
    ``summary`` and ``verdict``, its ``rotation`` events).

    A feedback prefix is stored (and the recommender trained) before
    traffic starts, so the online re-encryption has a real old-epoch
    prefix to translate while new-epoch rows keep arriving on top of
    it.  The SLO engine attaches after preload, so the series behind
    the verdict covers only the drill.
    """
    rig = DrillRig("rotation", seed, grace=6.0, telemetry=telemetry, frontends=3)
    #: epoch_ttl models a stale client population: material is cached
    #: for a second, so requests sealed under the outgoing keys keep
    #: arriving after the announce and the dual window does real work.
    rig.deploy(
        ROTATION_CONFIG,
        request_timeout=0.8,
        max_retries=5,
        hedge_delay=0.4,
        epoch_ttl=1.0,
    )
    service, harness = rig.service, rig.lrs
    adversary, _ = rig.observe_wire()
    rig.add_monitor(interval=0.1)
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
    # A drill still pausing at traffic end never hangs the run: the rig
    # stops the coordinator at the horizon and the summary records the
    # state it stood in.
    rig.arm(default_rotation_plan(), rotation=coordinator)
    rig.instrument()
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

    rig.run()

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
    counters = rig.counters_for(*COUNTERS)
    shuffle_size, ia_instances = ROTATION_CONFIG.shuffle_size, len(service.ia_instances)
    min_window_flush = min(window_samples, default=None)
    summary = {
        "seed": seed, "rps": rps, "duration": duration, "announce_at": ANNOUNCE_AT,
        **counters,
        "rotation_completed": coordinator.completed,
        "final_state": coordinator.state,
        "old_epoch": coordinator.old_epoch,
        "new_epoch": coordinator.new_epoch,
        "window_seconds": coordinator.dual_window_seconds,
        "pauses": coordinator.pauses,
        "pause_reasons": dict(coordinator.pause_reasons),
        "reprovisions": coordinator.reprovisions,
        "ticks": coordinator.ticks,
        "rekey_events_processed": rekey_report.events_processed if rekey_report else 0,
        "rekey_users_rekeyed": rekey_report.users_rekeyed if rekey_report else 0,
        "translate_cache_hits": rekey_report.translate_cache_hits if rekey_report else 0,
        "translate_cache_misses": rekey_report.translate_cache_misses if rekey_report else 0,
        "previous_epoch_decrypts": sum(
            instance.previous_epoch_decrypts for instance in service.ua_instances
        ),
        "epoch_tags_seen": sum(instance.epoch_tags_seen for instance in service.ua_instances),
        "shuffle_size": shuffle_size,
        "ia_instances": ia_instances,
        "window_flushes": len(window_samples),
        "min_window_flush": min_window_flush,
        "tag_exposure_count": len(epoch_tag_exposures(adversary.observations)),
        "cross_epoch_user_overlap": len(overlap),
        "pre_announce_pseudonyms": len(before["user"]),
        "post_retire_pseudonyms": len(after["user"]),
        "rotation_event_count": len(rig.events("rotation")),
        # The S*I bound, and the worst released-batch anonymity inside
        # the window (0 when no batch was released there).
        "required_anonymity": shuffle_size * max(1, ia_instances),
        "effective_anonymity_floor": (
            0 if min_window_flush is None else min_window_flush * max(1, ia_instances)
        ),
    }
    rig.finish(
        summary,
        rotation_slo_objectives(float(summary["required_anonymity"])),
        {"unrestarted_crashes": counters["crashes_injected"] - counters["restarts_completed"]},
    )
    return rig


def gate(out_dir: str) -> List[str]:
    """``repro run rotation``: the default drill, its telemetry
    artifact and its ``slo.json`` — zero downtime, the anonymity floor
    and every linkage check in one verdict."""
    telemetry = Telemetry(scrape_interval=1.0)
    rig = run_rotation(telemetry=telemetry)
    print_summary("rotation drill summary", rig.summary, (
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
    return write_verdict(rig.verdict, out_dir)
