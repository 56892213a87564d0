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
stream and a byte-identical telemetry artifact.  Request ids are
allocated per :class:`~repro.context.SimContext`, so nothing leaks
between runs in one process; CI still diffs two *separate* invocations
because only a fresh interpreter (and hash seed) proves nothing
depends on process state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.experiments.rig import DrillRig, print_summary, summarize, write_verdict
from repro.faults import ChaosSpec
from repro.faults.brownout import BrownoutLrs
from repro.obs.slo import Objective, SloReport
from repro.proxy.config import PProxConfig
from repro.telemetry import Telemetry

__all__ = [
    "ChaosResult",
    "run_chaos",
    "gate",
    "CHAOS_CONFIG",
    "chaos_slo_objectives",
    "DEFAULT_AVAILABILITY_FLOOR",
]

#: Default availability floor: with retries + hedging the client rides
#: over crashes, partitions and brownouts for the vast majority of
#: calls; only requests whose full retry budget lands inside fault
#: windows are lost.
DEFAULT_AVAILABILITY_FLOOR = 0.9

#: Two instances per layer so a crash leaves a surviving backend.
CHAOS_CONFIG = PProxConfig(
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
    #: The run's SLO verdict, set by :func:`run_chaos`; excluded from
    #: ``to_dict`` — the gate writes it as its own ``slo.json``.
    slo_report: Optional[SloReport] = None

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
        """JSON-ready summary (fault events as a count; see the artifact)."""
        return summarize(self, counted=("fault_events",), derived=("availability",))


#: Full-size share of released batches; client p99 ceiling (seconds).
FULL_BATCH_FLOOR = 0.85
P99_CEILING = 2.5


def chaos_slo_objectives() -> List[Objective]:
    """The chaos drill's declarative objectives.

    Under chaos the anonymity promise is honestly a *ratio*, not a hard
    floor: failovers legitimately timer-flush a partial batch when the
    balancer stops routing to an ejected instance (the entries must be
    released — holding them would trade availability for anonymity).
    The SLO therefore budgets thin batches instead of pretending they
    cannot happen: at least :data:`FULL_BATCH_FLOOR` of released
    batches must be at full size S.
    """
    return [
        Objective(
            name="goodput",
            kind="ratio",
            target=DEFAULT_AVAILABILITY_FLOOR,
            good="completed",
            total="issued",
            description="Fraction of issued calls that completed OK.",
        ),
        Objective(
            name="anonymity_floor",
            kind="ratio",
            target=FULL_BATCH_FLOOR,
            good="full_flushes",
            total="released_flushes",
            description="Fraction of released shuffle batches at full size S.",
        ),
        Objective(
            name="p99_latency_seconds",
            kind="ceiling",
            target=P99_CEILING,
            value="p99_latency_seconds",
            description="p99 of client-observed end-to-end latency.",
        ),
    ]


def run_chaos(
    seed: int = 7,
    rps: float = 60.0,
    duration: float = 12.0,
    *,
    telemetry: Optional[Telemetry] = None,
) -> ChaosResult:
    """Run the chaos drill once and return its :class:`ChaosResult`,
    ``slo_report`` verdict included."""
    rig = DrillRig("chaos", seed, grace=8.0, telemetry=telemetry)
    brownout = BrownoutLrs(inner=rig.lrs, loop=rig.loop, rng=rig.rng.stream("brownout"))
    rig.deploy(
        CHAOS_CONFIG,
        backend=brownout,
        request_timeout=0.8,
        max_retries=5,
        hedge_delay=0.4,
    )
    rig.add_monitor(interval=0.25)
    rig.arm(
        ChaosSpec(horizon=duration).sample(
            rig.rng,
            ua_names=[instance.name for instance in rig.service.ua_instances],
            ia_names=[instance.name for instance in rig.service.ia_instances],
        ),
        lrs=brownout,
    )
    rig.instrument()
    rig.offer(rps, duration, users=200)
    shuffle_size = CHAOS_CONFIG.shuffle_size
    rig.watch({
        "released_flushes": lambda: len(rig.released(layer="UA")),
        "full_flushes": lambda: sum(
            1 for flush in rig.released(layer="UA") if flush.size >= shuffle_size
        ),
    })
    rig.run()

    result = ChaosResult(
        seed=seed, rps=rps, duration=duration,
        availability_floor=DEFAULT_AVAILABILITY_FLOOR,
        brownout_rejected=brownout.rejected,
        brownout_slowed=brownout.slowed,
        fault_events=rig.events("fault"),
        **rig.counters_for(ChaosResult),
    )
    result.slo_report = rig.finish(result.to_dict(), chaos_slo_objectives())
    return result


def gate(out_dir: str) -> List[str]:
    """``repro run chaos``: the default drill, its telemetry artifact,
    its ``slo.json`` and its acceptance checks."""
    telemetry = Telemetry(scrape_interval=1.0)
    result = run_chaos(telemetry=telemetry)
    print_summary("chaos drill summary", result.to_dict(), (
        "seed", "issued", "completed", "failed", "availability",
        "crashes_injected", "restarts_completed", "failovers", "readmissions",
        "partition_drops", "random_drops", "delays_injected",
        "brownout_rejected", "brownout_slowed",
        "retries_performed", "hedges_launched", "timeouts", "outcomes",
    ))
    telemetry.write_artifact(out_dir)
    return write_verdict(result.slo_report, out_dir, result.problems())
