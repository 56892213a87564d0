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

from typing import List, Optional

from repro.experiments.rig import DrillRig, print_summary, write_verdict
from repro.faults import ChaosSpec
from repro.faults.brownout import BrownoutLrs
from repro.obs.slo import Objective, run_end_objectives
from repro.proxy.config import PProxConfig
from repro.telemetry import Telemetry

__all__ = [
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

#: The shared counters a chaos run reports, read after the drain.
COUNTERS = (
    "issued", "completed", "failed", "outcomes", "retries_performed",
    "hedges_launched", "retryable_errors", "timeouts", "crashes_injected",
    "restarts_completed", "failovers", "readmissions", "partition_drops",
    "random_drops", "delays_injected", "stale_responses", "transform_errors",
    "audit_violations",
)

#: Full-size share of released batches; client p99 ceiling (seconds).
FULL_BATCH_FLOOR = 0.85
P99_CEILING = 2.5


def chaos_slo_objectives() -> List[Objective]:
    """The chaos drill's declarative objectives — its whole verdict.

    Under chaos the anonymity promise is honestly a *ratio*, not a hard
    floor: failovers legitimately timer-flush a partial batch when the
    balancer stops routing to an ejected instance (the entries must be
    released — holding them would trade availability for anonymity).
    The SLO therefore budgets thin batches instead of pretending they
    cannot happen: at least :data:`FULL_BATCH_FLOOR` of released
    batches must be at full size S.  The run-end checks ask for
    evidence that every fault kind bit and every crash recovered.
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
    ] + run_end_objectives(
        ("crashes_injected", "at_least", 1, "An enclave crash was injected."),
        ("unrestarted_crashes", "equal", 0, "Every crash was restarted (crashes - restarts)."),
        ("failovers", "at_least", 1, "The health monitor ejected a dead backend."),
        ("unreadmitted", "equal", 0, "Every ejection was readmitted (ejections - readmits)."),
        ("network_faults", "at_least", 1, "A network fault hit a message (drops + delays)."),
        ("brownout_degraded", "at_least", 1, "The LRS brownout degraded a request."),
        ("audit_violations", "equal", 0, "The redaction audit found no leak on the error paths."),
    )


def run_chaos(
    seed: int = 7,
    rps: float = 60.0,
    duration: float = 12.0,
    *,
    telemetry: Optional[Telemetry] = None,
) -> DrillRig:
    """Run the chaos drill once; returns the finished rig (its
    ``summary`` and ``verdict``, its ``fault`` events)."""
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

    counters = rig.counters_for(*COUNTERS)
    issued, completed = counters["issued"], counters["completed"]
    summary = {
        "seed": seed, "rps": rps, "duration": duration,
        "availability_floor": DEFAULT_AVAILABILITY_FLOOR,
        **counters,
        "brownout_rejected": brownout.rejected,
        "brownout_slowed": brownout.slowed,
        "fault_event_count": len(rig.events("fault")),
        "availability": completed / issued if issued else 1.0,
    }
    rig.finish(summary, chaos_slo_objectives(), {
        "unrestarted_crashes": counters["crashes_injected"] - counters["restarts_completed"],
        "unreadmitted": counters["failovers"] - counters["readmissions"],
        "network_faults": (
            counters["partition_drops"] + counters["random_drops"] + counters["delays_injected"]
        ),
        "brownout_degraded": brownout.rejected + brownout.slowed,
    })
    return rig


def gate(out_dir: str) -> List[str]:
    """``repro run chaos``: the default drill, its telemetry artifact
    and its ``slo.json`` — the drill's whole verdict."""
    telemetry = Telemetry(scrape_interval=1.0)
    rig = run_chaos(telemetry=telemetry)
    print_summary("chaos drill summary", rig.summary, (
        "seed", "issued", "completed", "failed", "availability",
        "crashes_injected", "restarts_completed", "failovers", "readmissions",
        "partition_drops", "random_drops", "delays_injected",
        "brownout_rejected", "brownout_slowed",
        "retries_performed", "hedges_launched", "timeouts", "outcomes",
    ))
    telemetry.write_artifact(out_dir)
    return write_verdict(rig.verdict, out_dir)
