"""Capacity planning: solve (shards, I, S) for a target, then prove it.

Promotes ``examples/capacity_planner.py`` from a demo sweep into an
experiment: for each ``(target RPS, p99 SLO)`` point the solver picks
a fleet shape — shard count, instances per layer per shard (I) and
shuffle batch size (S) — from the measured per-pair capacity, and the
plan is then **verified in simulation** with chaos *and* overload
armed: a :class:`~repro.faults.plan.ChaosSpec`-sampled fault plan
(crashes, a partition, loss/delay windows, an LRS brownout) runs
against the self-healing fleet while the target rate is injected, and
an :mod:`repro.obs.slo` verdict checks goodput, the released-flush
anonymity floor and the p99 ceiling.  A plan is only *planned
capacity* if it survives its own chaos drill.

The artifact (``capacity.json``) is deterministic for a fixed seed:
virtual clock, named RNG streams, and blake2b ring points.  Wall-clock
measurements go to the separate non-diffable meta report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.fleet import FLEET_OVERLOAD
from repro.experiments.rig import POST_SHARE, DrillRig, write_json
from repro.faults import ChaosSpec, FaultPlan
from repro.faults.plan import PARTITION_SECONDS
from repro.obs.slo import Objective, run_end_objectives
from repro.proxy.config import PProxConfig
from repro.simnet.metrics import percentile
from repro.telemetry import Telemetry

__all__ = [
    "MEASURED_PER_PAIR_RPS",
    "CapacityTarget",
    "CapacityPlan",
    "DEFAULT_TARGETS",
    "solve_plan",
    "capacity_chaos_spec",
    "degraded_p99_ceiling",
    "capacity_slo_objectives",
    "verify_plan",
    "run_capacity",
    "write_artifacts",
    "gate",
]

#: Sustainable request rate of one UA+IA pair before the latency knee,
#: from the micro sweep (m6: one pair saturates just past 250 RPS;
#: m7's two pairs just past 500 — see ``examples/capacity_planner.py``).
MEASURED_PER_PAIR_RPS = 250.0

#: Headroom factor: plan to run pairs at this fraction of the knee so
#: chaos-driven failovers (a crashed instance shifts its load onto the
#: survivors) don't push the fleet over the edge.
PLANNING_UTILIZATION = 0.8

#: Candidate shuffle batch sizes, largest first: the solver takes the
#: biggest S whose fill time still fits the latency budget.
SHUFFLE_SIZE_LADDER = (16, 10, 8, 4)

#: Instances per layer per shard (I) the solver builds shards from, and
#: the share of the p99 budget that filling one batch may consume.
INSTANCES_PER_SHARD = 2
FILL_BUDGET_FRACTION = 0.3


@dataclass(frozen=True)
class CapacityTarget:
    """One planning question: sustain *rps* with p99 <= *p99_slo*."""

    rps: float
    p99_slo: float

    def label(self) -> str:
        return f"rps{self.rps:g}-p99{self.p99_slo:g}"


#: The three canonical planning points exercised by the experiment.
DEFAULT_TARGETS: Tuple[CapacityTarget, ...] = (
    CapacityTarget(rps=250.0, p99_slo=0.5),
    CapacityTarget(rps=500.0, p99_slo=0.5),
    CapacityTarget(rps=1000.0, p99_slo=0.75),
)


@dataclass(frozen=True)
class CapacityPlan:
    """A solved fleet shape for one target."""

    shards: int
    instances_per_shard: int  # I, per layer per shard
    shuffle_size: int  # S
    shuffle_timeout: float
    pairs: int

    @property
    def anonymity_bound(self) -> int:
        """The paper's S*I linkage bound for a healthy shard."""
        return self.shuffle_size * self.instances_per_shard

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shards": self.shards,
            "instances_per_shard": self.instances_per_shard,
            "shuffle_size": self.shuffle_size,
            "shuffle_timeout": self.shuffle_timeout,
            "pairs": self.pairs,
            "anonymity_bound": self.anonymity_bound,
        }


def solve_plan(target: CapacityTarget) -> CapacityPlan:
    """Solve (shards, I, S) for one target.

    Sizing is two independent trade-offs:

    * **throughput** — pairs = ceil(rps / (per-pair knee x headroom)),
      rounded up to whole shards of I pairs each;
    * **anonymity vs latency** — the largest ladder S whose expected
      fill time (S / per-instance arrival rate) consumes at most
      :data:`FILL_BUDGET_FRACTION` of the p99 budget; the shuffle timeout is
      then set well above the fill time (so releases are size-driven,
      never timer-driven, while traffic flows) but inside the budget.
    """
    if target.rps <= 0:
        raise ValueError("target rps must be positive")
    pairs = max(1, math.ceil(target.rps / (MEASURED_PER_PAIR_RPS * PLANNING_UTILIZATION)))
    shards = max(1, math.ceil(pairs / INSTANCES_PER_SHARD))
    per_instance_rps = target.rps / (shards * INSTANCES_PER_SHARD)
    fill_budget = FILL_BUDGET_FRACTION * target.p99_slo
    shuffle_size = SHUFFLE_SIZE_LADDER[-1]
    for candidate in SHUFFLE_SIZE_LADDER:
        if candidate / per_instance_rps <= fill_budget:
            shuffle_size = candidate
            break
    fill_time = shuffle_size / per_instance_rps
    shuffle_timeout = round(min(max(4.0 * fill_time, 0.2), 0.6 * target.p99_slo), 3)
    return CapacityPlan(
        shards=shards,
        instances_per_shard=INSTANCES_PER_SHARD,
        shuffle_size=shuffle_size,
        shuffle_timeout=shuffle_timeout,
        pairs=shards * INSTANCES_PER_SHARD,
    )


#: The chaos spec every plan is verified against: two crashes, one
#: role partition, loss + delay windows, one LRS brownout.
def capacity_chaos_spec(duration: float) -> ChaosSpec:
    return ChaosSpec(horizon=duration, crash_outage=0.8)


def degraded_p99_ceiling(target: CapacityTarget, spec: ChaosSpec) -> float:
    """Structural worst-case tail under the armed chaos spec.

    A request caught at the wrong moment waits out the partition plus
    a crash outage on top of the steady-state budget, and the client's
    timeout/retry ladder adds about one more second of backoff before
    the retry lands on a healthy path.
    """
    return round(
        target.p99_slo + PARTITION_SECONDS + spec.crash_outage + 1.0, 3
    )


def capacity_slo_objectives(
    target: CapacityTarget, plan: CapacityPlan, *, chaos: bool, spec: Optional[ChaosSpec] = None
) -> List[Objective]:
    """The verification verdict for one run of one planning point.

    Clean mode proves the plan's steady-state promise: p99 within the
    SLO, essentially no losses, and every released flush at S.  Chaos
    mode proves graceful degradation: goodput >= 0.9 through the fault
    plan, the flush floor held *outside network-interruption windows*
    (during a total path interruption there is no traffic to mix, so
    the shuffle timer's liveness bound legitimately releases partial
    batches — those are reported, not floored), and the tail bounded
    by the structural degraded ceiling — and the drill must actually
    have crashed an instance.
    """
    if chaos:
        assert spec is not None
        return [
            Objective(
                name="goodput",
                kind="ratio",
                target=0.9,
                good="completed",
                total="issued",
                description="Fraction of issued calls completed under chaos.",
            ),
            Objective(
                name="released_flush_floor",
                kind="floor",
                target=float(plan.shuffle_size),
                value="min_steady_flush",
                description=(
                    "Smallest shuffle batch released outside "
                    "network-interruption windows."
                ),
            ),
            Objective(
                name="p99_latency_seconds",
                kind="ceiling",
                target=degraded_p99_ceiling(target, spec),
                value="p99_latency_seconds",
                description="p99 under chaos vs the structural degraded ceiling.",
            ),
        ] + run_end_objectives(("crashes_injected", "at_least", 1, "Chaos crashed an instance."))
    return [
        Objective(
            name="goodput",
            kind="ratio",
            target=0.99,
            good="completed",
            total="issued",
            description="Fraction of issued calls completed, fault-free.",
        ),
        Objective(
            name="released_flush_floor",
            kind="floor",
            target=float(plan.shuffle_size),
            value="min_released_flush",
            description="Smallest shuffle batch released while traffic flowed.",
        ),
        Objective(
            name="p99_latency_seconds",
            kind="ceiling",
            target=target.p99_slo,
            value="p99_latency_seconds",
            description="p99 of client-observed end-to-end latency.",
        ),
    ]


#: The shared counters a capacity leg reports, read after the drain.
COUNTERS = ("issued", "completed", "failed", "crashes_injected", "restarts_completed", "shed_total")


def verify_plan(
    target: CapacityTarget,
    plan: CapacityPlan,
    *,
    seed: int,
    duration: float = 8.0,
    chaos: bool = True,
    telemetry: Optional[Telemetry] = None,
) -> DrillRig:
    """Run one solved plan at its target rate, overload always armed;
    returns the finished rig.

    With *chaos* a :func:`capacity_chaos_spec` fault plan is sampled
    and armed mid-run; without it the same stack runs fault-free (the
    steady-state leg of the verdict).  No engine watches a leg: it is
    judged statically on its run-end values, under its run label, and
    its ``capacity.json`` entry is the summary plus that verdict.
    """
    mode = "chaos" if chaos else "clean"
    # The planner sizes the proxy fleet; the LRS behind it is assumed
    # provisioned for the target (three stock frontends sustain ~250
    # RPS — scale them with the load so the backend is not the wall).
    rig = DrillRig(
        "capacity", seed, grace=4.0, telemetry=telemetry,
        run_label=f"capacity/{target.label()}/{mode}",
        frontends=max(3, math.ceil(target.rps / 80.0)),
    )
    rig.deploy(
        PProxConfig(
            ua_instances=plan.instances_per_shard,
            ia_instances=plan.instances_per_shard,
            shuffle_size=plan.shuffle_size,
            shuffle_timeout=plan.shuffle_timeout,
            balancing="round-robin",
        ),
        shards=plan.shards,
        overload=FLEET_OVERLOAD,
        request_timeout=max(0.9, 1.5 * target.p99_slo),
        max_retries=5,
        hedge_delay=0.4,
    )
    fleet, fleet_supervisor = rig.service, rig.fleet_supervisor
    spec = capacity_chaos_spec(duration)
    faults = FaultPlan()
    if chaos:
        faults = spec.sample(
            rig.rng,
            [instance.name for instance in fleet.ua_instances],
            [instance.name for instance in fleet.ia_instances],
        )
    rig.arm(faults)
    rig.instrument()
    rig.preload()
    rig.offer(target.rps, duration, post_share=POST_SHARE)
    start = rig.start
    rig.run()

    window = rig.offered_window()
    # Network-interruption windows: while a partition or loss window is
    # open (plus one shuffle-timeout of wash-out) buffers starve, so
    # the timer's liveness bound may release partial batches.  The
    # steady floor is judged outside those windows.
    interruptions = [
        (start + event.at, start + event.at + event.duration + plan.shuffle_timeout)
        for event in faults
        if event.kind in ("partition", "drop")
    ]

    def interrupted(at: float) -> bool:
        return any(lo <= at <= hi for lo, hi in interruptions)

    steady = [flush for flush in window if not interrupted(flush.at)]
    # Steady-state tail: samples completing inside the injection window
    # (requests still in flight at cut-off drain through the shuffle
    # timer and would smear an end-of-run artifact into the p99).
    trimmed = rig.injector.recorder.trimmed(start, rig.end)
    p99 = percentile(sorted(trimmed), 0.99) if trimmed else None
    fault_kinds: Dict[str, int] = {}
    for event in faults:
        fault_kinds[event.kind] = fault_kinds.get(event.kind, 0) + 1
    counters = rig.counters_for(*COUNTERS)
    issued = counters["issued"]
    summary = {
        "point": target.label(),
        "target": {"rps": target.rps, "p99_slo": target.p99_slo},
        "plan": plan.to_dict(),
        "seed": seed,
        "mode": mode,
        **counters,
        "p99_latency_seconds": None if p99 is None else round(p99, 6),
        "min_released_flush": min((f.size for f in window), default=None),
        # Smallest flush released outside network-interruption windows.
        "min_steady_flush": min((f.size for f in steady), default=None),
        "sub_floor_interrupted_flushes": sum(
            1 for f in window if f.size < plan.shuffle_size and interrupted(f.at)
        ),
        "min_effective_anonymity": rig.anonymity_floor(window),
        "window_flushes": len(window),
        "ejections": fleet_supervisor.ejections,
        "readmissions": fleet_supervisor.readmissions,
        "failovers": fleet.directory.failovers,
        "fault_kinds": dict(sorted(fault_kinds.items())),
        "goodput": round(counters["completed"] / issued, 6) if issued else 0.0,
    }
    # The verdict judges the unrounded tail.
    rig.finish(
        summary,
        capacity_slo_objectives(target, plan, chaos=chaos, spec=spec),
        {"p99_latency_seconds": p99},
    )
    return rig


def _leg(rig: DrillRig) -> Dict[str, Any]:
    """A finished leg's ``capacity.json`` entry: its summary (the point
    label is the enclosing entry's) and its verdict."""
    leg = {key: value for key, value in rig.summary.items() if key != "point"}
    leg["slo"] = rig.verdict.to_dict()
    return leg


def run_capacity(
    targets: Sequence[CapacityTarget] = DEFAULT_TARGETS,
    *,
    seed: int = 11,
    duration: float = 8.0,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[Dict[str, Any], Dict[str, Any], List[DrillRig]]:
    """Solve and verify every target; returns (artifact, meta, rigs),
    one finished rig per leg.

    Each target is verified twice — a fault-free run proving the
    steady-state SLO and a chaos run proving graceful degradation —
    in fresh, independently seeded simulations.  *artifact* is the
    deterministic, diffable ``capacity.json`` body; *meta* carries the
    wall-clock measurements.
    """
    points: List[Dict[str, Any]] = []
    rigs: List[DrillRig] = []
    metas: List[Dict[str, Any]] = []
    for index, target in enumerate(targets):
        plan = solve_plan(target)
        legs: Dict[str, Dict[str, Any]] = {}
        for leg, chaos in (("clean", False), ("chaos", True)):
            wall_start = time.perf_counter()
            rig = verify_plan(
                target,
                plan,
                seed=seed + index,
                duration=duration,
                chaos=chaos,
                telemetry=telemetry if len(targets) == 1 else None,
            )
            wall = time.perf_counter() - wall_start
            legs[leg] = _leg(rig)
            rigs.append(rig)
            metas.append(
                {"point": target.label(), "mode": leg, "wall_seconds": wall}
            )
        points.append(
            {
                "target": {"rps": target.rps, "p99_slo": target.p99_slo},
                "plan": plan.to_dict(),
                "clean": legs["clean"],
                "chaos": legs["chaos"],
            }
        )
    artifact = {
        "experiment": "capacity",
        "seed": seed,
        "duration": duration,
        "per_pair_rps": MEASURED_PER_PAIR_RPS,
        "planning_utilization": PLANNING_UTILIZATION,
        "points": points,
        "ok": all(rig.verdict.ok for rig in rigs),
    }
    meta = {
        "points": metas,
        "total_wall_seconds": sum(entry["wall_seconds"] for entry in metas),
    }
    return artifact, meta, rigs


def write_artifacts(
    artifact: Dict[str, Any], meta: Dict[str, Any], out_dir: str
) -> Tuple[str, str]:
    """Write ``capacity.json`` (diffable) and ``capacity_meta.json`` (not)."""
    return (
        write_json(artifact, out_dir, "capacity.json"),
        write_json(meta, out_dir, "capacity_meta.json"),
    )


def gate(out_dir: str) -> List[str]:
    """``repro run capacity``: solve the canonical targets, verify
    both legs of each, write ``capacity.json`` (+ the wall-clock meta);
    its problems are every leg's verdict's."""
    artifact, meta, rigs = run_capacity()
    print("capacity plan verification")
    print("==========================")
    print(
        f"  {'target':>7s} {'p99 slo':>8s} {'mode':>6s} {'shards':>6s} {'I':>3s}"
        f" {'S':>3s} {'goodput':>8s} {'p99':>8s} {'min S':>6s} {'ok':>4s}"
    )
    for rig in rigs:
        leg, plan = rig.summary, rig.summary["plan"]
        floor = leg["min_steady_flush"] if leg["mode"] == "chaos" else leg["min_released_flush"]
        p99 = "-" if leg["p99_latency_seconds"] is None else f"{leg['p99_latency_seconds']:.3f}"
        print(
            f"  {leg['target']['rps']:7.0f} {leg['target']['p99_slo']:8.2f}"
            f" {leg['mode']:>6s} {plan['shards']:6d}"
            f" {plan['instances_per_shard']:3d} {plan['shuffle_size']:3d}"
            f" {leg['goodput']:8.4f} {p99:>8s}"
            f" {floor if floor is not None else '-':>6} {'yes' if rig.verdict.ok else 'NO':>4s}"
        )
    write_artifacts(artifact, meta, out_dir)
    return [problem for rig in rigs for problem in rig.verdict.problems()]
