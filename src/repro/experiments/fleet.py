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
from typing import Any, Dict, List, Optional

from repro.experiments.rig import (
    POST_SHARE,
    DrillRig,
    print_summary,
    summarize,
    write_json,
    write_verdict,
)
from repro.fleet.placement import domain_kill_plan, placement_violations
from repro.fleet.supervisor import FleetSupervisor
from repro.obs.slo import Objective, SloReport
from repro.overload import OverloadPolicy
from repro.privacy.wire import (
    epoch_tag_exposures,
    shard_routing_violations,
    trace_field_exposures,
)
from repro.proxy.config import PProxConfig
from repro.telemetry import Telemetry

__all__ = [
    "FleetDrillResult",
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
    #: The drill's SLO verdict, set by :func:`run_fleet_drill`.
    slo_report: Optional[SloReport] = None

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
        if self.goodput < GOODPUT_FLOOR:
            found.append(
                f"post-failover goodput {self.goodput:.3f} < {GOODPUT_FLOOR}"
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
        """JSON-ready summary (findings and events as counts)."""
        return summarize(
            self,
            counted=(
                "tag_exposures", "trace_exposures", "shard_violations",
                "reject_violations", "placement_problems", "fleet_events",
            ),
            derived=("required_anonymity", "goodput"),
            rounding={"goodput": 6},
        )


def fleet_slo_objectives(required_anonymity: float) -> List[Objective]:
    """The fleet drill's objectives: failover goodput, the hard S*I
    floor, and a bounded client-observed tail."""
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
    ]


def run_fleet_drill(
    seed: int = 23,
    rps: float = 360.0,
    duration: float = 10.0,
    *,
    telemetry: Optional[Telemetry] = None,
) -> FleetDrillResult:
    """Run the shard-loss-mid-split drill once."""
    rig = DrillRig("fleet", seed, grace=6.0, telemetry=telemetry, frontends=3)
    rig.deploy(
        FLEET_CONFIG,
        shards=SHARDS,
        overload=FLEET_OVERLOAD,
        request_timeout=0.9,
        max_retries=5,
        backoff_base=0.05,
        backoff_jitter=0.02,
        hedge_delay=0.4,
    )
    fleet = rig.service
    adversary, reject_auditor = rig.observe_wire()

    fault_supervisor = rig.add_fault_rig()
    supervisor = FleetSupervisor(
        loop=rig.loop, fleet=fleet, telemetry=rig.telemetry,
        tick_interval=0.1, drain_grace=0.5,
    )
    rig.instrument()
    rig.preload()
    rig.offer(rps, duration, post_share=POST_SHARE)

    def effective_anonymity() -> Optional[int]:
        return rig.anonymity_floor(rig.offered_window())

    rig.watch({"anonymity_floor": effective_anonymity})

    kill_domain = fleet.directory.shards[KILL_SHARD].domain
    plan = domain_kill_plan(fleet, kill_domain, at=KILL_AT, outage=OUTAGE)
    fault_supervisor.arm(plan.shifted(rig.start))
    supervisor.start()
    rig.loop.schedule(
        max(0.0, rig.start + SPLIT_AT - rig.loop.now),
        lambda: supervisor.split(SPLIT_SHARD),
    )
    rig.run(stop=[supervisor])

    window = rig.offered_window()
    split_ops = [op for op in supervisor.operations if op.kind == "split"]
    split_op = split_ops[0] if split_ops else None
    result = FleetDrillResult(
        seed=seed, rps=rps, duration=duration,
        split_at=SPLIT_AT, kill_at=KILL_AT, outage=OUTAGE,
        ejections=supervisor.ejections,
        readmissions=supervisor.readmissions,
        reprovisions=supervisor.reprovisions,
        routed=fleet.directory.routed,
        failovers=fleet.directory.failovers,
        shards_initial=SHARDS,
        shards_final=sum(
            1 for s in fleet.directory.shards.values() if s.state == "live"
        ),
        splits_started=supervisor.splits_started,
        splits_completed=supervisor.splits_completed,
        split_started_at=split_op.started_at if split_op else None,
        split_flipped_at=split_op.flipped_at if split_op else None,
        split_completed_at=split_op.completed_at if split_op else None,
        kill_time=rig.start + KILL_AT,
        pauses=supervisor.pauses,
        pause_reasons=dict(supervisor.pause_reasons),
        ticks=supervisor.ticks,
        shuffle_size=FLEET_CONFIG.shuffle_size,
        instances_per_shard=fleet.instances_per_shard,
        window_flushes=len(window),
        min_window_flush=min((f.size for f in window), default=None),
        min_effective_anonymity=effective_anonymity(),
        tag_exposures=epoch_tag_exposures(adversary.observations),
        trace_exposures=trace_field_exposures(adversary.observations),
        shard_violations=shard_routing_violations(
            fleet.directory, adversary.observations
        ),
        reject_violations=reject_auditor.violations(),
        placement_problems=placement_violations(fleet),
        fleet_events=rig.events("fleet"),
        **rig.counters_for(FleetDrillResult),
    )
    result.slo_report = rig.finish(
        result.to_dict(), fleet_slo_objectives(float(result.required_anonymity))
    )
    return result


def gate(out_dir: str) -> List[str]:
    """``repro run fleet``: the default drill; writes ``fleet.json``,
    ``slo.json`` and the telemetry artifact."""
    telemetry = Telemetry(scrape_interval=1.0)
    result = run_fleet_drill(telemetry=telemetry)
    summary = result.to_dict()
    print_summary("fleet drill summary", summary, (
        "seed", "issued", "completed", "failed", "goodput",
        "crashes_injected", "restarts_completed", "ejections", "readmissions",
        "routed", "failovers", "shards_initial", "shards_final",
        "splits_started", "splits_completed",
        "split_started_at", "split_flipped_at", "split_completed_at",
        "kill_time", "pauses", "pause_reasons",
        "window_flushes", "min_window_flush",
        "min_effective_anonymity", "required_anonymity", "shed_total", "outcomes",
    ))
    write_json(summary, out_dir, "fleet.json")
    telemetry.write_artifact(out_dir)
    return write_verdict(result.slo_report, out_dir, result.problems())
