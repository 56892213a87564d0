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
  (legacy unbounded behaviour).

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
fixed seed reproduces identical counters (and, in a fresh process,
byte-identical telemetry artifacts — request-id allocation is
process-global, which is why the CI job diffs two invocations).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.context import Deployment, SimContext
from repro.lrs.stub import StubLrs, make_pseudonymous_payload
from repro.obs.slo import Objective, SloEngine, histogram_quantile
from repro.overload import GuardedLrs, OverloadPolicy
from repro.privacy.wire import RejectAuditor
from repro.proxy.config import PProxConfig
from repro.proxy.costs import DEFAULT_COSTS, ProxyCostModel
from repro.simnet.metrics import LatencyRecorder, percentile
from repro.telemetry import Telemetry, instrument_stack
from repro.workload.injector import Injector

__all__ = [
    "LoadPoint",
    "OverloadResult",
    "run_overload",
    "overload_slo_objectives",
    "default_overload_config",
    "default_overload_policy",
    "overload_cost_model",
    "DEFAULT_CAPACITY_RPS",
    "GOODPUT_RETENTION_FLOOR",
]

#: Estimated per-pair saturation rate under :func:`overload_cost_model`
#: (one UA + one IA node, 2 cores each, costs inflated 4x to keep the
#: sweep cheap).  The sweep multiplies this by 0.5 / 1.0 / 2.0.
DEFAULT_CAPACITY_RPS = 85.0

#: Protected goodput at 2x capacity must stay within this fraction of
#: the saturation goodput.
GOODPUT_RETENTION_FLOOR = 0.8


def default_overload_config() -> PProxConfig:
    """One instance per layer so the capacity cliff is sharp."""
    return PProxConfig(
        ua_instances=1,
        ia_instances=1,
        shuffle_size=4,
        shuffle_timeout=0.2,
        balancing="round-robin",
    )


def overload_cost_model(slowdown: float = 4.0) -> ProxyCostModel:
    """The calibrated cost model, uniformly slowed.

    Inflating per-leg core costs lowers the saturation point to
    ~:data:`DEFAULT_CAPACITY_RPS`, so driving the deployment to 2x
    capacity needs hundreds of virtual requests instead of thousands —
    the physics of the overload episode is unchanged, only cheaper.
    """
    base = DEFAULT_COSTS
    return replace(
        base,
        parse_seconds=base.parse_seconds * slowdown,
        forward_seconds=base.forward_seconds * slowdown,
        rsa_decrypt_seconds=base.rsa_decrypt_seconds * slowdown,
        det_id_seconds=base.det_id_seconds * slowdown,
        det_item_seconds=base.det_item_seconds * slowdown,
        list_encrypt_seconds=base.list_encrypt_seconds * slowdown,
    )


def default_overload_policy() -> OverloadPolicy:
    """Protection knobs matched to the default sweep's scale."""
    return OverloadPolicy(
        ingress_capacity=64,
        shed_policy="codel",
        codel_target=0.05,
        codel_interval=0.1,
        max_inflight=16,
        admission_max_sojourn=0.25,
        breaker_failure_threshold=5,
        breaker_reset_timeout=0.5,
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
    #: SLO verdict (:class:`repro.obs.slo.SloReport`) when the cell ran
    #: under an engine; excluded from ``to_dict`` — callers write it as
    #: its own ``slo.json`` artifact.
    slo_report: Optional[Any] = None

    @property
    def shed_rate(self) -> float:
        """Sheds per issued call (client-visible attempts excluded)."""
        return self.shed_total / self.issued if self.issued else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "offered_rps": self.offered_rps,
            "protected": self.protected,
            "issued": self.issued,
            "completed": self.completed,
            "failed": self.failed,
            "timeouts": self.timeouts,
            "retries_performed": self.retries_performed,
            "shed_total": self.shed_total,
            "shed_by_stage": dict(sorted(self.shed_by_stage.items())),
            "shed_rate": round(self.shed_rate, 4),
            "guard_rejections": self.guard_rejections,
            "breaker_trips": self.breaker_trips,
            "goodput_rps": round(self.goodput_rps, 3),
            "p50_seconds": round(self.p50_seconds, 5),
            "p99_seconds": round(self.p99_seconds, 5),
            "min_flush_during_load": self.min_flush_during_load,
            "anonymity_floor": self.anonymity_floor,
            "required_anonymity": self.required_anonymity,
            "audit_violations": self.audit_violations,
            "reject_audit": list(self.reject_audit),
        }


@dataclass
class OverloadResult:
    """Outcome of the full offered-load sweep."""

    seed: int
    duration: float
    capacity_rps: float
    shuffle_size: int
    points: List[LoadPoint] = field(default_factory=list)
    #: The headline cell's SLO verdict (protected deployment at the
    #: highest multiplier), when the sweep ran with an engine.
    slo_report: Optional[Any] = None

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


def overload_slo_objectives(
    required_anonymity: float,
    goodput_floor: float = 0.35,
    shed_ceiling: float = 3.0,
    p99_ceiling: float = 2.5,
) -> List[Objective]:
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
            target=goodput_floor,
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
            target=shed_ceiling,
            value="shed_rate",
            description="Sheds per issued call (protection must not shed everything).",
        ),
        Objective(
            name="p99_latency_seconds",
            kind="ceiling",
            target=p99_ceiling,
            value="p99_latency_seconds",
            description="p99 of admitted requests' end-to-end latency.",
        ),
    ]


def _run_point(
    seed: int,
    rps: float,
    duration: float,
    grace: float,
    *,
    protected: bool,
    config: PProxConfig,
    policy: OverloadPolicy,
    costs: ProxyCostModel,
    telemetry: Telemetry,
    run_label: str,
    enforce_full_batches: bool,
    slo: Optional[SloEngine] = None,
) -> LoadPoint:
    """One cell of the sweep, in a fresh simulation context."""
    ctx = SimContext.fresh(seed, costs=costs, telemetry=telemetry)
    telemetry.bind(ctx.loop, run_label=run_label)

    stub = StubLrs(loop=ctx.loop, rng=ctx.rng.stream("stub"))
    guard: Optional[GuardedLrs] = None
    if protected:
        guard = GuardedLrs(
            inner=stub,
            breaker=policy.make_breaker(clock=lambda: ctx.loop.now),
            limiter=policy.make_limiter(),
            telemetry=telemetry,
        )
    backend: Any = guard if guard is not None else stub
    deployment = Deployment.build(
        ctx=ctx,
        config=config,
        lrs_picker=lambda: backend,
        overload=policy if protected else None,
    )
    service = deployment.service
    if config.encryption and config.item_pseudonymization:
        stub.items = make_pseudonymous_payload(
            ctx.resolved_provider(), service.provisioner.layer_keys["IA"].symmetric_key
        )

    client = deployment.client(
        request_timeout=0.5,
        max_retries=2,
        backoff_base=0.05,
        backoff_jitter=0.02,
        deadline_budget=0.8 if protected else None,
    )

    auditor = RejectAuditor()
    ctx.network.add_wiretap(auditor.observe)

    injector = Injector(
        loop=ctx.loop, rng=ctx.rng.stream("injector"),
        recorder=LatencyRecorder("overload"),
    )
    instrument_stack(
        telemetry,
        service=service,
        provider=ctx.resolved_provider(),
        lrs=stub,
        injector=injector,
        network=ctx.network,
        client=client,
        guard=guard,
    )

    # Track flush sizes while the load is offered.
    flushes: List[Tuple[float, int]] = []
    for instance in service.ua_instances + service.ia_instances:
        buffer = instance.shuffle_buffer
        if buffer is not None:
            buffer.chain_on_flush(
                lambda size, timer_fired: flushes.append((ctx.loop.now, size))
            )

    users = [f"user-{index}" for index in range(200)]
    user_rng = ctx.rng.stream("users")

    def issue(on_complete) -> None:
        client.get(user_rng.choice(users), on_complete=on_complete)

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
            during = [size for when, size in flushes if start <= when <= end]
            if not during:
                return None
            return float(min(during) * ia_count)

        def shed_source() -> Optional[float]:
            issued = injector.report.issued
            if not issued:
                return None
            total = sum(
                count
                for instance in service.ua_instances + service.ia_instances
                for count in instance.shed_totals.values()
            )
            if guard is not None:
                total += (
                    guard.breaker_rejections
                    + guard.limiter_rejections
                    + guard.expired_rejections
                )
            return total / issued

        slo.track("issued", lambda: injector.report.issued)
        slo.track("completed", lambda: injector.report.completed)
        slo.track("anonymity_floor", anonymity_floor_source)
        slo.track("shed_rate", shed_source)
        slo.track(
            "p99_latency_seconds", lambda: histogram_quantile(latency_hist, 0.99)
        )
        # Bounded at the drain horizon (the telemetry scraper also
        # re-arms while work is pending; two unbounded tickers would
        # keep each other alive and the final run() would never drain).
        slo.attach(ctx.loop, until=end + grace)

    ctx.loop.run_until(end + grace)
    ctx.loop.run()

    instances = service.ua_instances + service.ia_instances
    shed_by_stage: Dict[str, int] = {}
    for instance in instances:
        for (stage, _reason), count in instance.shed_totals.items():
            shed_by_stage[stage] = shed_by_stage.get(stage, 0) + count
    guard_rejections = 0
    breaker_trips = 0
    if guard is not None:
        guard_rejections = (
            guard.breaker_rejections + guard.limiter_rejections + guard.expired_rejections
        )
        breaker_trips = guard.breaker.trips
        if guard_rejections:
            shed_by_stage["lrs_guard"] = (
                shed_by_stage.get("lrs_guard", 0) + guard_rejections
            )

    latencies = sorted(injector.recorder.trimmed(start, end))
    during_load = [size for when, size in flushes if start <= when <= end]
    min_flush = min(during_load) if during_load else None
    point = LoadPoint(
        offered_rps=rps,
        protected=protected,
        issued=injector.report.issued,
        completed=injector.report.completed,
        failed=injector.report.failed,
        timeouts=client.timeouts,
        retries_performed=client.retries_performed,
        shed_total=sum(shed_by_stage.values()),
        shed_by_stage=shed_by_stage,
        guard_rejections=guard_rejections,
        breaker_trips=breaker_trips,
        goodput_rps=injector.report.completed / duration if duration else 0.0,
        p50_seconds=percentile(latencies, 0.50) if latencies else 0.0,
        p99_seconds=percentile(latencies, 0.99) if latencies else 0.0,
        min_flush_during_load=min_flush if enforce_full_batches else None,
        anonymity_floor=(
            (min_flush or 0) * len(service.ia_instances)
            if enforce_full_batches
            else 0.0
        ),
        required_anonymity=float(config.shuffle_size * len(service.ia_instances)),
        audit_violations=len(telemetry.audit()),
        reject_audit=auditor.violations(),
    )
    if slo is not None:
        point.slo_report = slo.evaluate(
            overload_slo_objectives(point.required_anonymity), experiment="overload"
        )
    return point


def run_overload(
    seed: int = 7,
    duration: float = 6.0,
    *,
    capacity_rps: float = DEFAULT_CAPACITY_RPS,
    multipliers: Tuple[float, ...] = (0.5, 1.0, 2.0),
    config: Optional[PProxConfig] = None,
    policy: Optional[OverloadPolicy] = None,
    costs: Optional[ProxyCostModel] = None,
    telemetry: Optional[Telemetry] = None,
    slo: Optional[SloEngine] = None,
    grace: float = 3.0,
) -> OverloadResult:
    """Run the offered-load sweep and return its :class:`OverloadResult`.

    The caller's *telemetry* hub (if any) collects the final, headline
    cell — the protected deployment at the highest multiplier — so the
    written artifact describes a real overload episode.  Earlier cells
    run under private hubs (each is a separate deployment; mixing their
    instruments in one registry would alias instance names).  An *slo*
    engine likewise samples only the headline cell and leaves its
    verdict in ``result.slo_report``.
    """
    pprox_config = config if config is not None else default_overload_config()
    overload_policy = policy if policy is not None else default_overload_policy()
    cost_model = costs if costs is not None else overload_cost_model()
    result = OverloadResult(
        seed=seed,
        duration=duration,
        capacity_rps=capacity_rps,
        shuffle_size=pprox_config.shuffle_size,
    )
    cells: List[Tuple[float, bool]] = []
    for multiplier in multipliers:
        cells.append((multiplier, False))
        cells.append((multiplier, True))
    last_protected = max(m for m, _p in cells)
    for multiplier, protected in cells:
        headline = protected and multiplier == last_protected
        hub = (
            telemetry
            if (telemetry is not None and headline)
            else Telemetry(scrape_interval=1.0)
        )
        variant = "protected" if protected else "baseline"
        point = _run_point(
            seed,
            capacity_rps * multiplier,
            duration,
            grace,
            protected=protected,
            config=pprox_config,
            policy=overload_policy,
            costs=cost_model,
            telemetry=hub,
            run_label=f"overload/seed{seed}/{variant}/x{multiplier:g}",
            enforce_full_batches=protected and multiplier >= 1.0,
            slo=slo if headline else None,
        )
        result.points.append(point)
        if headline:
            result.slo_report = point.slo_report
        if telemetry is not None and headline:
            telemetry.finalize_run(
                extra={
                    "scenario": "overload",
                    "seed": seed,
                    **result.to_dict(),
                }
            )
    return result
