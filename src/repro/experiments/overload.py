"""Overload scenario: graceful degradation past saturation.

PProx promises SLA-grade latency; this scenario measures what happens
when the offered load *exceeds* capacity, with and without the
:mod:`repro.overload` protection stack armed.  The sweep runs the same
seeded workload at a sub-capacity, saturation and 2x-capacity offered
rate against two deployments:

* **protected** — bounded ingress queues with a shed policy, admission
  control at the UA front door, client deadline budgets propagated
  hop-by-hop, and the breaker/limiter :class:`~repro.overload.guard.
  GuardedLrs` on the IA->LRS edge;
* **baseline** — the identical deployment with ``overload=None``
  (no ingress queues, no admission control).

Acceptance (encoded in :meth:`OverloadResult.problems`):

* at 2x capacity the protected deployment's goodput stays within 20%
  of its saturation goodput (the baseline's collapses under queueing
  and retry amplification);
* the p99 latency of *admitted* requests stays bounded while the
  baseline's diverges;
* privacy holds through the episode: every shuffle flush during the
  overloaded window still carries at least ``S`` entries (sheds are
  pre-shuffle only), every reject on a protected hop is the single
  canonical padded message (:class:`~repro.privacy.wire.
  RejectAuditor`), and the role-aware redaction audit is clean over
  the shed/reject event stream.

Determinism: each load point runs in a fresh
:class:`~repro.context.SimContext` derived from the same seed, so a
fixed seed reproduces identical counters and byte-identical telemetry
artifacts (the CI job diffs two separate invocations).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.experiments.rig import DrillRig, summarize, write_verdict
from repro.obs.slo import Objective, SloReport
from repro.overload import AimdLimiter, CircuitBreaker, GuardedLrs, OverloadPolicy
from repro.proxy.config import PProxConfig
from repro.proxy.costs import DEFAULT_COSTS, ProxyCostModel
from repro.simnet.metrics import percentile
from repro.telemetry import Telemetry

__all__ = [
    "LoadPoint",
    "OverloadResult",
    "run_overload",
    "gate",
    "overload_slo_objectives",
    "overload_cost_model",
    "OVERLOAD_CONFIG",
    "OVERLOAD_POLICY",
    "MULTIPLIERS",
    "DEFAULT_CAPACITY_RPS",
    "GOODPUT_RETENTION_FLOOR",
]

#: Estimated per-pair saturation rate under :func:`overload_cost_model`
#: (one UA + one IA node, 2 cores each, costs inflated :data:`SLOWDOWN`x
#: to keep the sweep cheap).  The sweep multiplies this by :data:`MULTIPLIERS`.
DEFAULT_CAPACITY_RPS = 85.0
MULTIPLIERS = (0.5, 1.0, 2.0)
SLOWDOWN = 4.0

#: Protected goodput at 2x capacity must stay within this fraction of
#: the saturation goodput.
GOODPUT_RETENTION_FLOOR = 0.8

#: One instance per layer so the capacity cliff is sharp.
OVERLOAD_CONFIG = PProxConfig(
    ua_instances=1,
    ia_instances=1,
    shuffle_size=4,
    shuffle_timeout=0.2,
    balancing="round-robin",
)

#: Protection knobs matched to the sweep's scale.
OVERLOAD_POLICY = OverloadPolicy(
    ingress_capacity=64,
    shed_policy="codel",
    max_inflight=16,
    admission_max_sojourn=0.25,
)


def overload_cost_model() -> ProxyCostModel:
    """The calibrated cost model, uniformly slowed by :data:`SLOWDOWN`.

    Inflating per-leg core costs lowers the saturation point to
    ~:data:`DEFAULT_CAPACITY_RPS`, so driving the deployment to 2x
    capacity needs hundreds of virtual requests instead of thousands —
    the physics of the overload episode is unchanged, only cheaper.
    """
    base = DEFAULT_COSTS
    return replace(
        base,
        parse_seconds=base.parse_seconds * SLOWDOWN,
        forward_seconds=base.forward_seconds * SLOWDOWN,
        rsa_decrypt_seconds=base.rsa_decrypt_seconds * SLOWDOWN,
        det_id_seconds=base.det_id_seconds * SLOWDOWN,
        det_item_seconds=base.det_item_seconds * SLOWDOWN,
        list_encrypt_seconds=base.list_encrypt_seconds * SLOWDOWN,
    )


@dataclass
class LoadPoint:
    """Measured outcome of one (offered load, protection) cell."""

    offered_rps: float
    protected: bool
    issued: int = 0
    completed: int = 0
    failed: int = 0
    timeouts: int = 0
    retries_performed: int = 0
    shed_total: int = 0
    shed_by_stage: Dict[str, int] = field(default_factory=dict)
    guard_rejections: int = 0
    breaker_trips: int = 0
    goodput_rps: float = 0.0
    p50_seconds: float = 0.0
    p99_seconds: float = 0.0
    #: Smallest shuffle flush observed while the load was offered.
    min_flush_during_load: Optional[int] = None
    #: min flush x IA instances (the S*I anonymity bound's floor).
    anonymity_floor: float = 0.0
    required_anonymity: float = 0.0
    audit_violations: int = 0
    reject_audit: List[str] = field(default_factory=list)
    #: The cell's SLO verdict (set by the sweep, not in ``to_dict``).
    slo_report: Optional[SloReport] = None

    @property
    def shed_rate(self) -> float:
        """Sheds per issued call (client-visible attempts excluded)."""
        return self.shed_total / self.issued if self.issued else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return summarize(
            self,
            derived=("shed_rate",),
            rounding={"shed_rate": 4, "goodput_rps": 3, "p50_seconds": 5, "p99_seconds": 5},
        )


@dataclass
class OverloadResult:
    """Outcome of the full offered-load sweep."""

    seed: int
    duration: float
    capacity_rps: float
    shuffle_size: int
    points: List[LoadPoint] = field(default_factory=list)
    #: The headline cell's SLO verdict (protected deployment at the
    #: highest multiplier); the gate writes it as ``slo.json``.
    slo_report: Optional[SloReport] = None

    def point(self, *, protected: bool, multiplier: float) -> Optional[LoadPoint]:
        """The cell at ``capacity_rps * multiplier`` for one variant."""
        target = self.capacity_rps * multiplier
        for candidate in self.points:
            if candidate.protected == protected and abs(candidate.offered_rps - target) < 1e-9:
                return candidate
        return None

    def problems(self) -> List[str]:
        """Acceptance-check failures (empty when the episode passed)."""
        found: List[str] = []
        saturation = self.point(protected=True, multiplier=1.0)
        overloaded = self.point(protected=True, multiplier=2.0)
        baseline = self.point(protected=False, multiplier=2.0)
        if saturation is None or overloaded is None:
            return ["sweep did not cover the 1x and 2x protected points"]
        floor = GOODPUT_RETENTION_FLOOR * saturation.goodput_rps
        if overloaded.goodput_rps < floor:
            found.append(
                f"protected goodput at 2x ({overloaded.goodput_rps:.1f} rps) fell"
                f" below {GOODPUT_RETENTION_FLOOR:.0%} of saturation"
                f" ({saturation.goodput_rps:.1f} rps)"
            )
        if overloaded.shed_total == 0:
            found.append("2x offered load never triggered a shed")
        if baseline is not None and baseline.completed and overloaded.completed:
            if overloaded.p99_seconds >= baseline.p99_seconds:
                found.append(
                    f"protected p99 ({overloaded.p99_seconds:.3f}s) did not improve"
                    f" on the unprotected baseline ({baseline.p99_seconds:.3f}s)"
                )
        for point in self.points:
            if not point.protected:
                continue
            if point.min_flush_during_load is not None and (
                point.anonymity_floor < point.required_anonymity
            ):
                found.append(
                    f"anonymity floor {point.anonymity_floor:.0f} fell below"
                    f" S*I={point.required_anonymity:.0f} at"
                    f" {point.offered_rps:.0f} rps (a shed thinned a batch)"
                )
            if point.audit_violations:
                found.append(
                    f"redaction audit found {point.audit_violations} leak(s)"
                    f" at {point.offered_rps:.0f} rps"
                )
            if point.reject_audit:
                found.append(
                    f"reject uniformity violated at {point.offered_rps:.0f} rps:"
                    f" {point.reject_audit[0]}"
                )
        return found

    @property
    def ok(self) -> bool:
        return not self.problems()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "duration": self.duration,
            "capacity_rps": self.capacity_rps,
            "shuffle_size": self.shuffle_size,
            "points": [point.to_dict() for point in self.points],
        }


#: The headline cell's targets; the builder's docstring gives the why.
GOODPUT_FLOOR = 0.35
SHED_CEILING = 3.0
P99_CEILING = 2.5


def overload_slo_objectives(required_anonymity: float) -> List[Objective]:
    """The overload episode's objectives, judged on the headline cell.

    The headline cell offers 2x capacity, so the goodput *ratio*
    (completed/issued) is structurally ~0.5 even when protection works
    perfectly — the floor budgets for that, it is not an availability
    promise.  The shed-rate ceiling bounds retry amplification, not
    shedding itself: sheds count every dropped *attempt* at every stage
    (ingress, admission, guard), so past saturation the rate sits well
    above 1 by design; a runaway retry storm would push it past the
    ceiling.  The anonymity floor, by contrast, is a hard floor: sheds
    are pre-shuffle only, so even under 2x load every released batch
    must still carry S entries (min flush x I >= S*I).
    """
    return [
        Objective(
            name="goodput",
            kind="ratio",
            target=GOODPUT_FLOOR,
            good="completed",
            total="issued",
            description="Fraction of issued calls completed at 2x offered load.",
        ),
        Objective(
            name="anonymity_floor",
            kind="floor",
            target=required_anonymity,
            value="anonymity_floor",
            description="min shuffle flush x IA instances during the load window.",
        ),
        Objective(
            name="shed_rate",
            kind="ceiling",
            target=SHED_CEILING,
            value="shed_rate",
            description="Sheds per issued call (protection must not shed everything).",
        ),
        Objective(
            name="p99_latency_seconds",
            kind="ceiling",
            target=P99_CEILING,
            value="p99_latency_seconds",
            description="p99 of admitted requests' end-to-end latency.",
        ),
    ]


def _run_point(
    result: OverloadResult,
    multiplier: float,
    *,
    protected: bool,
    telemetry: Optional[Telemetry],
) -> LoadPoint:
    """One cell of the sweep, in a fresh simulation context; appended
    to *result* before the run is closed so the run-end record carries
    the sweep so far."""
    rps, duration = result.capacity_rps * multiplier, result.duration
    variant = "protected" if protected else "baseline"
    rig = DrillRig(
        "overload", result.seed, grace=3.0, telemetry=telemetry, costs=overload_cost_model(),
        run_label=f"overload/seed{result.seed}/{variant}/x{multiplier:g}",
    )
    guard: Optional[GuardedLrs] = None
    if protected:
        guard = GuardedLrs(
            inner=rig.lrs,
            breaker=CircuitBreaker(clock=lambda: rig.loop.now, reset_timeout=0.5),
            limiter=AimdLimiter(),
            telemetry=rig.telemetry,
        )
    rig.deploy(
        OVERLOAD_CONFIG,
        backend=guard,
        overload=OVERLOAD_POLICY if protected else None,
        request_timeout=0.5,
        max_retries=2,
        deadline_budget=0.8 if protected else None,
    )
    _, auditor = rig.observe_wire()
    rig.instrument(guard=guard)
    rig.offer(rps, duration, users=200)

    def guard_rejections() -> int:
        if guard is None:
            return 0
        return guard.breaker_rejections + guard.limiter_rejections + guard.expired_rejections

    def shed_source() -> Optional[float]:
        issued = rig.injector.report.issued
        return (rig.shed_total + guard_rejections()) / issued if issued else None

    rig.watch({
        "anonymity_floor": lambda: rig.anonymity_floor(rig.offered_window()),
        "shed_rate": shed_source,
    })
    rig.run()

    shed_by_stage: Dict[str, int] = {}
    for instance in rig.service.ua_instances + rig.service.ia_instances:
        for (stage, _reason), count in instance.shed_totals.items():
            shed_by_stage[stage] = shed_by_stage.get(stage, 0) + count
    rejected = guard_rejections()
    if rejected:
        shed_by_stage["lrs_guard"] = rejected

    # Full batches are only promised where load keeps the buffers fed.
    enforce_full_batches = protected and multiplier >= 1.0
    window = rig.offered_window() if enforce_full_batches else []
    latencies = sorted(rig.injector.recorder.trimmed(rig.start, rig.end))
    counters = rig.counters_for(LoadPoint)
    counters["shed_total"] += rejected
    point = LoadPoint(
        offered_rps=rps,
        protected=protected,
        shed_by_stage=dict(sorted(shed_by_stage.items())),
        guard_rejections=rejected,
        breaker_trips=guard.breaker.trips if guard is not None else 0,
        goodput_rps=rig.injector.report.completed / duration if duration else 0.0,
        p50_seconds=percentile(latencies, 0.50) if latencies else 0.0,
        p99_seconds=percentile(latencies, 0.99) if latencies else 0.0,
        min_flush_during_load=min((flush.size for flush in window), default=None),
        anonymity_floor=(rig.anonymity_floor(window) or 0) if enforce_full_batches else 0.0,
        required_anonymity=float(OVERLOAD_CONFIG.shuffle_size * OVERLOAD_CONFIG.ia_instances),
        reject_audit=auditor.violations(),
        **counters,
    )
    result.points.append(point)
    point.slo_report = rig.finish(
        result.to_dict(), overload_slo_objectives(point.required_anonymity)
    )
    return point


def run_overload(
    seed: int = 7,
    duration: float = 6.0,
    *,
    telemetry: Optional[Telemetry] = None,
) -> OverloadResult:
    """Run the offered-load sweep and return its :class:`OverloadResult`.

    The caller's *telemetry* hub (if any) collects the final, headline
    cell — the protected deployment at the highest multiplier — so the
    written artifact describes a real overload episode.  Earlier cells
    run under private hubs (each is a separate deployment; mixing their
    instruments in one registry would alias instance names).  Every
    cell is judged by its own engine; ``result.slo_report`` is the
    headline cell's verdict.
    """
    result = OverloadResult(
        seed=seed,
        duration=duration,
        capacity_rps=DEFAULT_CAPACITY_RPS,
        shuffle_size=OVERLOAD_CONFIG.shuffle_size,
    )
    for multiplier in MULTIPLIERS:
        for protected in (False, True):
            headline = protected and multiplier == max(MULTIPLIERS)
            point = _run_point(
                result,
                multiplier,
                protected=protected,
                telemetry=telemetry if headline else None,
            )
            if headline:
                result.slo_report = point.slo_report
    return result


def gate(out_dir: str) -> List[str]:
    """``repro run overload``: the default sweep, the headline cell's
    telemetry artifact and ``slo.json``, and the graceful-degradation
    checks."""
    telemetry = Telemetry(scrape_interval=1.0)
    result = run_overload(telemetry=telemetry)
    print("overload sweep summary")
    print("======================")
    print(f"  seed {result.seed}  capacity_rps {result.capacity_rps}"
          f"  shuffle_size {result.shuffle_size}")
    print(
        f"  {'offered':>8s} {'variant':>9s} {'issued':>7s} {'goodput':>8s}"
        f" {'p50':>8s} {'p99':>8s} {'sheds':>6s} {'anon>=':>7s}"
    )
    for point in result.points:
        anonymity = (
            f"{point.anonymity_floor:.0f}/{point.required_anonymity:.0f}"
            if point.min_flush_during_load is not None
            else "-"
        )
        print(
            f"  {point.offered_rps:8.1f} {'protect' if point.protected else 'baseline':>9s}"
            f" {point.issued:7d} {point.goodput_rps:8.2f} {point.p50_seconds:8.4f}"
            f" {point.p99_seconds:8.4f} {point.shed_total:6d} {anonymity:>7s}"
        )
    telemetry.write_artifact(out_dir)
    return write_verdict(result.slo_report, out_dir, result.problems())
