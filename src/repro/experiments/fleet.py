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

from typing import List, Optional

from repro.experiments.rig import POST_SHARE, DrillRig, print_summary, write_json, write_verdict
from repro.faults.plan import FaultEvent, FaultPlan
from repro.fleet.placement import domain_kill_plan, placement_violations
from repro.obs.slo import Objective, run_end_objectives
from repro.overload import OverloadPolicy
from repro.privacy.wire import (
    epoch_tag_exposures,
    shard_routing_violations,
    trace_field_exposures,
)
from repro.proxy.config import PProxConfig

__all__ = [
    "run_fleet_drill",
    "gate",
    "fleet_slo_objectives",
    "FLEET_CONFIG",
    "FLEET_OVERLOAD",
]

#: Per-shard sizing: I=2 per layer, S=4, a shuffle timeout the
#: post-split per-instance rate still comfortably beats (so released
#: flushes stay full-size while traffic flows).
FLEET_CONFIG = PProxConfig(
    ua_instances=2,
    ia_instances=2,
    shuffle_size=4,
    shuffle_timeout=0.35,
    balancing="round-robin",
)

#: Overload protection armed wide: bounds are generous enough that the
#: drill's load shouldn't shed, but every queue, admission check and
#: breaker is live (a shed would still be pre-shuffle only).
FLEET_OVERLOAD = OverloadPolicy(
    ingress_capacity=256,
    max_inflight=64,
    admission_max_sojourn=0.5,
    admission_max_pressure=4.0,
)

#: The drill's timeline, relative to traffic start: the supervisor
#: begins splitting shard ``s0`` of the two initial shards at
#: ``SPLIT_AT``; at ``KILL_AT`` — inside the split's handoff window —
#: every instance of shard ``s1``'s failure domain crashes for
#: ``OUTAGE`` seconds.
SHARDS, SPLIT_SHARD, KILL_SHARD = 2, "s0", "s1"
SPLIT_AT, KILL_AT, OUTAGE = 2.0, 2.25, 1.2

#: Completed / issued through the kill (the drill's own acceptance
#: floor and its SLO target); client p99 ceiling (seconds).
GOODPUT_FLOOR = 0.9
P99_CEILING = 2.5


#: The shared counters a fleet drill reports, read after the drain.
COUNTERS = (
    "issued", "completed", "failed", "outcomes", "retries_performed",
    "hedges_launched", "retryable_errors", "timeouts", "crashes_injected",
    "restarts_completed", "shed_total", "audit_violations",
)


def fleet_slo_objectives(required_anonymity: float) -> List[Objective]:
    """The fleet drill's objectives — its whole verdict: failover
    goodput, the hard S*I floor and a bounded client-observed tail,
    then the run-end checks: no aborted call, a whole failure domain
    killed inside the split's window and healed, the split completed,
    every released batch at S, and every wire audit clean."""
    return [
        Objective(
            name="goodput",
            kind="ratio",
            target=GOODPUT_FLOOR,
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
            target=P99_CEILING,
            value="p99_latency_seconds",
            description="p99 of client-observed end-to-end latency.",
        ),
    ] + run_end_objectives(
        ("failed", "equal", 0, "No client call was aborted during the drill."),
        ("domain_crashes_missed", "equal", 0, "The kill crashed a whole domain (2I - crashes)."),
        ("unrestarted_crashes", "equal", 0, "Every crash was restarted (crashes - restarts)."),
        ("unejected_crashes", "at_most", 0, "Every crash was ejected (crashes - ejections)."),
        ("unreadmitted", "at_most", 0, "Every ejection was readmitted (ejections - readmits)."),
        ("splits_completed", "at_least", 1, "The split completed."),
        ("kill_inside_split_window", "equal", 1, "The domain kill fell inside the split window."),
        ("failovers", "at_least", 1, "A nonce failed over to a sibling shard."),
        ("window_flushes", "at_least", 1, "A shuffle batch was released while traffic flowed."),
        ("min_window_flush", "at_least", FLEET_CONFIG.shuffle_size,
         "No batch smaller than S was released mid-drill."),
        ("tag_exposure_count", "equal", 0, "The epoch tag was never exposed past client->ua."),
        ("trace_exposure_count", "equal", 0, "No trace id was exposed past client->ua."),
        ("shard_violation_count", "equal", 0, "Every routing key on the wire is a request nonce."),
        ("reject_violation_count", "equal", 0, "Every protected-hop reject is the uniform one."),
        ("placement_problem_count", "equal", 0, "Shard placement respects the failure domains."),
        ("audit_violations", "equal", 0, "The redaction audit found no leak."),
    )


def run_fleet_drill(
    seed: int = 23,
    rps: float = 360.0,
    duration: float = 10.0,
    out_dir: Optional[str] = None,
) -> DrillRig:
    """Run the shard-loss-mid-split drill once; returns the finished rig
    (its ``summary`` and ``verdict``).  Given *out_dir*, the telemetry
    artifact, its ``fleet`` events included, is written there."""
    rig = DrillRig("fleet", seed, grace=6.0, frontends=3, out_dir=out_dir)
    rig.deploy(
        FLEET_CONFIG,
        shards=SHARDS,
        overload=FLEET_OVERLOAD,
        request_timeout=0.9,
        max_retries=5,
        hedge_delay=0.4,
    )
    fleet, supervisor = rig.service, rig.fleet_supervisor
    adversary, reject_auditor = rig.observe_wire()
    kill_domain = fleet.directory.shards[KILL_SHARD].domain
    rig.arm(FaultPlan.from_events([
        FaultEvent(at=SPLIT_AT, kind="split", target=SPLIT_SHARD),
        *domain_kill_plan(fleet, kill_domain, at=KILL_AT, outage=OUTAGE),
    ]))
    rig.instrument()
    rig.preload()
    rig.offer(rps, duration, post_share=POST_SHARE)

    def effective_anonymity() -> Optional[int]:
        return rig.anonymity_floor(rig.offered_window())

    rig.watch({"anonymity_floor": effective_anonymity})
    rig.run()

    window = rig.offered_window()
    split_op = supervisor.operations[0] if supervisor.operations else None
    counters = rig.counters_for(*COUNTERS)
    crashes = counters["crashes_injected"]
    shuffle_size, instances_per_shard = FLEET_CONFIG.shuffle_size, fleet.instances_per_shard
    summary = {
        "seed": seed, "rps": rps, "duration": duration,
        "split_at": SPLIT_AT, "kill_at": KILL_AT, "outage": OUTAGE,
        **counters,
        "ejections": supervisor.ejections,
        "readmissions": supervisor.readmissions,
        "reprovisions": supervisor.reprovisions,
        "routed": fleet.directory.routed,
        "failovers": fleet.directory.failovers,
        "shards_initial": SHARDS,
        "shards_final": sum(1 for s in fleet.directory.shards.values() if s.state == "live"),
        "splits_started": supervisor.splits_started,
        "splits_completed": supervisor.splits_completed,
        "split_started_at": split_op.started_at if split_op else None,
        "split_flipped_at": split_op.flipped_at if split_op else None,
        "split_completed_at": split_op.completed_at if split_op else None,
        "kill_time": rig.start + KILL_AT,
        "pauses": supervisor.pauses,
        "pause_reasons": dict(supervisor.pause_reasons),
        "ticks": supervisor.ticks,
        "shuffle_size": shuffle_size,
        "instances_per_shard": instances_per_shard,
        "window_flushes": len(window),
        "min_window_flush": min((f.size for f in window), default=None),
        "min_effective_anonymity": effective_anonymity(),
        "tag_exposure_count": len(epoch_tag_exposures(adversary.observations)),
        "trace_exposure_count": len(trace_field_exposures(adversary.observations)),
        "shard_violation_count": len(
            shard_routing_violations(fleet.directory, adversary.observations)
        ),
        "reject_violation_count": len(reject_auditor.violations()),
        "placement_problem_count": len(placement_violations(fleet)),
        "fleet_event_count": rig.event_count("fleet"),
        # The S*I bound (I = live IA instances per shard).
        "required_anonymity": shuffle_size * max(1, instances_per_shard),
        "goodput": (
            round(counters["completed"] / counters["issued"], 6) if counters["issued"] else 0.0
        ),
    }
    started, completed_at = summary["split_started_at"], summary["split_completed_at"]
    rig.finish(
        summary,
        fleet_slo_objectives(float(summary["required_anonymity"])),
        {
            "domain_crashes_missed": 2 * instances_per_shard - crashes,
            "unrestarted_crashes": crashes - counters["restarts_completed"],
            "unejected_crashes": crashes - summary["ejections"],
            "unreadmitted": summary["ejections"] - summary["readmissions"],
            "kill_inside_split_window": (
                started is not None
                and completed_at is not None
                and started <= summary["kill_time"] <= completed_at
            ),
        },
    )
    return rig


def gate(out_dir: str) -> List[str]:
    """``repro run fleet``: the default drill; writes ``fleet.json``,
    ``slo.json`` and the telemetry artifact."""
    rig = run_fleet_drill(out_dir=out_dir)
    print_summary("fleet drill summary", rig.summary, (
        "seed", "issued", "completed", "failed", "goodput",
        "crashes_injected", "restarts_completed", "ejections", "readmissions",
        "routed", "failovers", "shards_initial", "shards_final",
        "splits_started", "splits_completed",
        "split_started_at", "split_flipped_at", "split_completed_at",
        "kill_time", "pauses", "pause_reasons",
        "window_flushes", "min_window_flush",
        "min_effective_anonymity", "required_anonymity", "shed_total", "outcomes",
    ))
    write_json(rig.summary, out_dir, "fleet.json")
    return write_verdict(rig.verdict, out_dir)
